"""The four benchmark workloads and the checks on their outputs.

Every op is one or more in-process `fishrope.cli.main(argv)` calls, timed
by the caller through `Workload.op`; `Workload.check` then verifies the
op's output files outside the timed region and returns the op's work
units, or raises `CheckFailed`.  The expected values live in
`expected.json`, written once by `record_expected.py` from the commit that
introduced the benchmark and never re-recorded to fit a change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
CALIBRATION = Path("calibrations") / "synthetic_fisheye.yaml"

# Program inputs are drawn from these fixed sets by workload seed and op
# index, so every op's output has a digest recorded in expected.json.
BENCH_SEEDS = tuple(range(16))
SELFCHECK_SEEDS = tuple(range(16))
CHECKER_ORIGINS = tuple((2.0 + 1.25 * j, -4.0 + 2.5 * j) for j in range(8))

ARTIFACT_PATCH_SIZE = 4
ARTIFACT_LUT_RESOLUTION = 65536
ARTIFACT_FILES = {
    "angles.csv": ["angles", "--patch-size", str(ARTIFACT_PATCH_SIZE), "--format", "csv"],
    "angles.bin": ["angles", "--patch-size", str(ARTIFACT_PATCH_SIZE), "--format", "bin"],
    "lut.csv": ["lut", "--resolution", str(ARTIFACT_LUT_RESOLUTION), "--format", "csv"],
    "lut.bin": ["lut", "--resolution", str(ARTIFACT_LUT_RESOLUTION), "--format", "bin"],
}


class MissingSource(RuntimeError):
    """The checkout holds no fishrope source to benchmark."""


class CheckFailed(RuntimeError):
    """An op exited non-zero or its output did not match the expected bytes."""


def load_package(root: Path):
    """Import fishrope from `root/src`, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "fishrope" / "__init__.py").is_file():
        raise MissingSource(f"no fishrope package under {src}")
    if not (root / CALIBRATION).is_file():
        raise MissingSource(f"no calibration file {root / CALIBRATION}")
    sys.path.insert(0, str(src))
    import fishrope

    if src not in Path(fishrope.__file__).resolve().parents:
        raise MissingSource(f"fishrope imported from {fishrope.__file__}, not {src}")
    return fishrope


def run_cli(argv: list[str]) -> int:
    """One CLI call as a user makes it, minus interpreter start; stdout discarded."""
    from fishrope import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            return exc.code if isinstance(exc.code, int) else 2


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def origin_key(origin: tuple[float, float]) -> str:
    return f"{origin[0]!r},{origin[1]!r}"


class Workload:
    """Base: holds the checkout root, a scratch directory and the workload seed."""

    name = ""
    work_unit = ""

    def __init__(self, root: Path, workdir: Path, seed: int, expected: dict) -> None:
        self.workdir = workdir
        self.seed = seed
        self.expected = expected
        self.calib = str(root / CALIBRATION)

    def pick(self, choices: tuple, i: int):
        return choices[(self.seed + i) % len(choices)]

    def op(self, i: int):
        raise NotImplementedError

    def check(self, state) -> float:
        raise NotImplementedError


class Retrieval(Workload):
    """`bench` at its defaults: 208 keys, 2 x 512 queries, 4 encodings."""

    name = "retrieval"
    work_unit = "queries ranked"

    def op(self, i: int):
        seed = self.pick(BENCH_SEEDS, i)
        out = self.workdir / "bench.yaml"
        rc = run_cli(["bench", "--calib", self.calib, "--seed", str(seed), "--out", str(out)])
        return rc, str(seed), out

    def check(self, state) -> float:
        rc, key, out = state
        return _check_report(rc, out, self.expected["retrieval"][key])


class LiftScaled(Workload):
    """`lift` on the scaled scene: patch 8, 0.25 m cells, 9240 cells x 7472 keys."""

    name = "lift_scaled"
    work_unit = "BEV cells lifted"

    def op(self, i: int):
        origin = self.pick(CHECKER_ORIGINS, i)
        out = self.workdir / "lift.yaml"
        argv = ["lift", "--calib", self.calib, "--patch-size", "8", "--resolution", "0.25"]
        argv += ["--checker-origin", repr(origin[0]), repr(origin[1]), "--out", str(out)]
        return run_cli(argv), origin_key(origin), out

    def check(self, state) -> float:
        rc, key, out = state
        return _check_report(rc, out, self.expected["lift_scaled"][key])


def _check_report(rc: int, out: Path, expected: dict) -> float:
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    csv = Path(str(out) + ".csv")
    if sha256(out) != expected["yaml_sha256"] or sha256(csv) != expected["csv_sha256"]:
        raise CheckFailed(f"report bytes differ from the recorded digest for {out.name}")
    return expected["work"]


class SelfCheck(Workload):
    """`selfcheck --seed s`, every documented invariant."""

    name = "selfcheck"
    work_unit = "check results evaluated"

    def op(self, i: int):
        out = self.workdir / "selfcheck.yaml"
        seed = self.pick(SELFCHECK_SEEDS, i)
        return run_cli(["selfcheck", "--seed", str(seed), "--out", str(out)]), out

    def check(self, state) -> float:
        import yaml

        rc, out = state
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        doc = yaml.safe_load(out.read_text(encoding="utf-8"))
        got = [[c["name"], c["tolerance"]] for c in doc["checks"]]
        if got != self.expected["selfcheck"]["checks"]:
            raise CheckFailed("selfcheck names or tolerances differ from the recorded set")
        if not (doc["all_passed"] and all(c["passed"] for c in doc["checks"])):
            raise CheckFailed("selfcheck reports a failed check")
        return float(len(got))


class Artifacts(Workload):
    """`angles` (256 x 256 grid) and `lut` (65536 entries) in csv and bin, read back.

    The in-memory grid and LUT the read-back is compared with are built
    once, untimed, when the workload is created.
    """

    name = "artifacts"
    work_unit = "bytes written plus bytes read"

    def __init__(self, root: Path, workdir: Path, seed: int, expected: dict) -> None:
        super().__init__(root, workdir, seed, expected)
        from fishrope import formats
        from fishrope.angular import patch_angles

        camera, _ = formats.load_calibration(self.calib)
        grid = patch_angles(camera, ARTIFACT_PATCH_SIZE)
        self.grid = {
            "theta": grid.coords[..., 0],
            "phi": grid.coords[..., 1],
            "valid": grid.valid_mask,
            "patch_size": grid.patch_size,
            "theta_max": grid.theta_max,
        }
        self.lut = camera.build_lut(ARTIFACT_LUT_RESOLUTION)
        self.paths = {name: workdir / name for name in ARTIFACT_FILES}

    def op(self, i: int):
        from fishrope import formats

        p = self.paths
        rcs = [
            run_cli(argv + ["--calib", self.calib, "--out", str(p[name])])
            for name, argv in ARTIFACT_FILES.items()
        ]
        if any(rcs):
            return rcs, None
        read = (
            formats.read_anglemap_csv(p["angles.csv"]),
            formats.read_anglemap_bin(p["angles.bin"]),
            formats.read_lut_bin(p["lut.bin"]),
        )
        return rcs, read

    def check(self, state) -> float:
        rcs, read = state
        if any(rcs):
            raise CheckFailed(f"exit codes {rcs}")
        grid_csv, grid_bin, lut = read
        for label, got in (("angles.csv", grid_csv), ("angles.bin", grid_bin)):
            for key, want in self.grid.items():
                if not _same_bits(got[key], want):
                    raise CheckFailed(f"{label} read-back differs in {key!r}")
        for key in ("entries", "resolution", "r_max", "theta_max"):
            if not _same_bits(getattr(lut, key), getattr(self.lut, key)):
                raise CheckFailed(f"lut.bin read-back differs in {key!r}")
        # No LUT CSV reader exists; its bytes are checked against the digest.
        if sha256(self.paths["lut.csv"]) != self.expected["artifacts"]["lut_csv_sha256"]:
            raise CheckFailed("lut.csv bytes differ from the recorded digest")
        written = sum(path.stat().st_size for path in self.paths.values())
        read_bytes = sum(self.paths[n].stat().st_size for n in ("angles.csv", "angles.bin", "lut.bin"))
        return float(written + read_bytes)


def _same_bits(got, want) -> bool:
    a = np.asarray(got)
    b = np.asarray(want)
    return a.dtype == b.dtype and a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


WORKLOADS = {cls.name: cls for cls in (Retrieval, LiftScaled, SelfCheck, Artifacts)}
