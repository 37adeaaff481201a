"""Span recorder for the traced benchmark run.

Wrappers are installed from the benchmark's side, at the attribute each
caller resolves: module functions are replaced in every fishrope module
that holds them (so `cli.patch_angles` and `experiments.bev_angles`,
imported by name, are covered as well as `formats.*` reached through the
module), and camera methods are replaced on their class.  The scalar
rope functions call each other through module globals, so a wrapped
`rotate_pairs` is a child span of a wrapped `apply_fishrope`; self time
is therefore span duration minus the durations of direct child spans,
never a plain sum of spans.

Spans live in flat in-memory arrays while ops run and are turned into
per-name totals only when the run ends.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SCALAR_ROPE = (
    "apply_fishrope",
    "apply_axial_rope",
    "rotate_pairs",
    "relative_logit",
    "rotation_matrix",
    "sinusoidal_pe",
)

CHECKS = (
    "check_camera_roundtrip",
    "check_monotonicity",
    "check_paraxial",
    "check_extrinsic_composition",
    "check_radial_symmetry",
    "check_angle_ranges",
    "check_bev_projection_consistency",
    "check_norm_preservation",
    "check_relative_identity",
    "check_rotation_composition",
    "check_self_logit_max",
    "check_softmax_rows",
    "check_shift_invariance",
    "check_stability",
    "check_gradient",
    "check_bench_determinism",
    "check_bench_matches_relative_logit",
    "check_lift_monotone",
)

FORMATS = (
    "load_calibration",
    "write_anglemap_csv",
    "read_anglemap_csv",
    "write_anglemap_bin",
    "read_anglemap_bin",
    "write_lut_csv",
    "write_lut_bin",
    "read_lut_bin",
    "dump_report_yaml",
    "write_report_yaml",
    "write_csv_table",
)
_WRITERS = {n for n in FORMATS if n.startswith("write_")}
_READERS = {n for n in FORMATS if n.startswith("read_")}

LAYERS = ("cli", "formats", "camera", "angular", "rope", "attention", "experiments")


def _module_functions() -> list[tuple[str, str]]:
    """(module, function) pairs wrapped wherever a fishrope module holds them."""
    pairs = [("cli", "main")]
    pairs += [("experiments", n) for n in ("retrieval_bench", "bev_roundtrip", "selfcheck")]
    pairs += [("experiments", n) for n in CHECKS]
    pairs += [("attention", n) for n in ("logit_matrix", "self_attention", "self_attention_jacobian")]
    pairs += [("rope", n) for n in SCALAR_ROPE + ("apply_rotary_batch", "sinusoidal_pe_batch")]
    pairs += [("angular", n) for n in ("patch_angles", "bev_angles")]
    pairs += [("formats", n) for n in FORMATS]
    return pairs


# (class, method, span name)
_METHODS = (
    ("KannalaBrandtCamera", "radius_to_theta", "camera.radius_to_theta"),
    ("KannalaBrandtCamera", "build_lut", "camera.build_lut"),
    ("KannalaBrandtCamera", "project", "camera.project"),
    ("KannalaBrandtCamera", "unproject_newton", "camera.unproject_newton"),
    ("InverseLut", "lookup", "camera.lut_lookup"),
)


def _count(span: str, args, result) -> tuple[str, float] | None:
    """Work counter recorded at a span boundary, from its arguments or result."""
    if span == "attention.logit_matrix":
        return "attention.logit_elements", result.size
    if span == "rope.apply_rotary_batch":
        return "rope.rows_rotated", len(args[0])
    if span == "camera.radius_to_theta":
        return "camera.newton_radii", np.size(args[1])
    if span == "camera.lut_lookup":
        return "camera.lut_lookups", np.size(args[1])
    if span == "angular.patch_angles":
        return "angular.patches", result.valid_mask.size
    if span == "angular.bev_angles":
        return "angular.bev_cells", result.visibility_mask.size
    fn = span.partition(".")[2]
    if fn in _WRITERS:
        return "formats.bytes_written", os.path.getsize(args[0])
    if fn in _READERS:
        return "formats.bytes_read", os.path.getsize(args[0])
    return None


class Recorder:
    """In-memory span store; `installed()` wraps the package for one op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.peak_alloc_bytes = 0
        self.current_op = -1
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str):
        sid = self._id(span)
        rec = self
        measure_alloc = span == "attention.logit_matrix"

        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(sid)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.op.append(rec.current_op)
            rec.end.append(0.0)
            rec._stack.append(idx)
            alloc = measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()
                if alloc:
                    rec.peak_alloc_bytes = max(
                        rec.peak_alloc_bytes, tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
            counted = _count(span, args, result)
            if counted is not None:
                key, value = counted
                rec.counters[key] = rec.counters.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, op_index: int):
        """Wrap every traced function for the duration of one op, then restore."""
        modules = [m for n, m in sys.modules.items() if n == "fishrope" or n.startswith("fishrope.")]
        restore: list[tuple[object, str, object]] = []
        for mod_name, fn_name in _module_functions():
            orig = getattr(sys.modules[f"fishrope.{mod_name}"], fn_name, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        camera = sys.modules["fishrope.camera"]
        for cls_name, method, span in _METHODS:
            cls = getattr(camera, cls_name)
            orig = cls.__dict__[method]
            restore.append((cls, method, orig))
            setattr(cls, method, self._wrap(orig, span))
        self.current_op = op_index
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)
            self.current_op = -1

    # -- analysis, after the run ----------------------------------------------

    def self_and_total(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: self seconds, inclusive seconds and call count."""
        n = len(self.start)
        if n == 0:
            return {}, {}, {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = np.bincount(names, weights=dur - child, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return (
            dict(zip(self.names, self_time.tolist())),
            dict(zip(self.names, total.tolist())),
            dict(zip(self.names, calls.tolist())),
        )

    def spans_of(self, op_index: int) -> dict:
        """Every span of one op, as parallel lists (parent, name, start, end)."""
        # One op's spans are contiguous, so parents are stored relative to the first.
        idx = np.flatnonzero(np.frombuffer(self.op, dtype=np.int32) == op_index)
        if len(idx) == 0:
            return {"op": op_index, "parent": [], "name": [], "start_s": [], "end_s": []}
        first = int(idx[0])
        parent = np.frombuffer(self.parent, dtype=np.int32)[idx]
        base = self.start[first]
        return {
            "op": op_index,
            "parent": np.where(parent >= 0, parent - first, -1).tolist(),
            "name": [self.names[i] for i in np.frombuffer(self.name_id, dtype=np.int32)[idx]],
            "start_s": (np.frombuffer(self.start)[idx] - base).tolist(),
            "end_s": (np.frombuffer(self.end)[idx] - base).tolist(),
        }


def per_layer_metrics(rec: Recorder, totals, traced_ops: int, wall: float) -> dict:
    """Per-layer metrics of the traced ops: self-time shares and per-op counts.

    `totals` is `rec.self_and_total()`.  A share is self (or, for checks,
    inclusive) seconds divided by `wall`, the summed wall time of the
    traced ops, so shares of one run add up to at most 1 and a function the
    workload never calls reads 0.
    """
    self_s, total_s, calls = totals

    def share(names) -> float:
        return sum(self_s.get(n, 0.0) for n in names) / wall

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (
            share(n for n in self_s if n.startswith(layer + ".")),
            "frac",
        )
    for check in CHECKS:
        out[f"experiments.{check}.share"] = (total_s.get(f"experiments.{check}", 0.0) / wall, "frac")
    for name in ("logit_matrix", "self_attention", "self_attention_jacobian"):
        out[f"attention.{name}.self_share"] = (share([f"attention.{name}"]), "frac")
    elements = rec.counters.get("attention.logit_elements", 0) / traced_ops
    out["attention.logit_elements"] = (elements, "count")
    out["attention.logit_bytes_computed"] = (8.0 * elements, "B")
    out["attention.logit_matrix.peak_alloc_mib"] = (rec.peak_alloc_bytes / 2**20, "MiB")
    scalar = [f"rope.{n}" for n in SCALAR_ROPE]
    out["rope.scalar.self_share"] = (share(scalar), "frac")
    out["rope.scalar_calls"] = (sum(calls.get(n, 0) for n in scalar) / traced_ops, "count")
    for name in ("apply_rotary_batch", "sinusoidal_pe_batch"):
        out[f"rope.{name}.self_share"] = (share([f"rope.{name}"]), "frac")
    for _, _, span in _METHODS:
        out[f"{span}.self_share"] = (share([span]), "frac")
    for name in ("patch_angles", "bev_angles"):
        out[f"angular.{name}.self_share"] = (share([f"angular.{name}"]), "frac")
    for name in FORMATS:
        out[f"formats.{name}.self_share"] = (share([f"formats.{name}"]), "frac")
    for counter, unit in (
        ("rope.rows_rotated", "count"),
        ("camera.newton_radii", "count"),
        ("camera.lut_lookups", "count"),
        ("angular.patches", "count"),
        ("angular.bev_cells", "count"),
        ("formats.bytes_written", "B"),
        ("formats.bytes_read", "B"),
    ):
        out[counter] = (rec.counters.get(counter, 0) / traced_ops, unit)
    return out


def top_self(self_s: dict[str, float], wall: float, k: int = 5) -> list[list]:
    """Largest self-time shares, with the scalar rope functions grouped as rope.scalar."""
    grouped: dict[str, float] = {}
    scalar = {f"rope.{n}" for n in SCALAR_ROPE}
    for name, seconds in self_s.items():
        key = "rope.scalar" if name in scalar else name
        grouped[key] = grouped.get(key, 0.0) + seconds
    ranked = sorted(grouped.items(), key=lambda kv: kv[1], reverse=True)[:k]
    return [[name, round(seconds / wall, 4)] for name, seconds in ranked]
