"""Serialization: calibration files, angle maps, LUTs, reports.

Formats (bit-exact layouts documented in the README):

  calibration   YAML key-value tree; `model` must be "kannala_brandt".
  angle map     CSV with a commented metadata line, or flat little-endian
                float64 binary with an 8-value header
                (magic, version, rows, cols, patch_size, theta_max, 0, 0)
                followed by rows*cols*(theta, phi, valid) triples.
  LUT           float64 binary with a 5-value header
                (magic, version, resolution, r_max, theta_max) followed
                by `resolution` theta entries; or a CSV table.
  reports       YAML with sorted keys and no volatile fields, so equal
                configs and seeds serialize byte-identically; CSV tables
                alongside for plotting.

Every CSV goes through `_write_csv`: floats as repr (exact float64
round-trips), CSV_BLOCK_ROWS rows at a time.  Readers raise FormatError
on an unknown magic, tag or version; a non-finite header value, or a
count (rows, cols, patch_size, resolution) that is not a non-negative
whole number; a body of the wrong length or of partial float64s; a
malformed or out-of-order angle-map CSV line; a `valid` flag other than
0 or 1; LUT entries that InverseLut refuses.
"""

from __future__ import annotations

import math
import os
from typing import Any

import numpy as np
import yaml

from .angular import PatchGrid
from .camera import Extrinsics, InverseLut, KannalaBrandtCamera
from .errors import ConfigError, FormatError

ANGLE_MAP_MAGIC = 982451653.0
LUT_MAGIC = 514229.0
FORMAT_VERSION = 1

# Rows `_write_csv` formats and writes at a time, so a writer holds a few
# MiB of text however large its table is.
CSV_BLOCK_ROWS = 4096

_ANGLE_CSV_TAG = "# fishrope-anglemap-csv"
_ANGLE_CSV_COLUMNS = ["row", "col", "theta", "phi", "valid"]
_LUT_CSV_TAG = "# fishrope-lut-csv"
# Binary header fields after (magic, version); angle-map CSV metadata holds the first 4.
_ANGLE_BIN_FIELDS = ("rows", "cols", "patch_size", "theta_max", "reserved", "reserved")
_COUNT_FIELDS = frozenset({"rows", "cols", "patch_size", "resolution"})


# -- calibration ------------------------------------------------------------


def load_calibration(path) -> tuple[KannalaBrandtCamera, Extrinsics | None]:
    """Parse a calibration file into a camera and optional extrinsics."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"calibration file is not valid YAML: {exc}") from exc
    return calibration_from_dict(doc)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def calibration_from_dict(doc: Any) -> tuple[KannalaBrandtCamera, Extrinsics | None]:
    if not isinstance(doc, dict):
        raise ConfigError("calibration document must be a mapping")
    model = doc.get("model")
    if model != "kannala_brandt":
        raise ConfigError(f"unsupported model {model!r}; expected 'kannala_brandt'")
    for field in ("coeffs", "principal_point", "theta_max", "image_size"):
        if field not in doc:
            raise ConfigError(f"calibration missing required field {field!r}")
    for field, length in (("coeffs", None), ("principal_point", 2), ("image_size", 2)):
        value = doc[field]
        if not (isinstance(value, list) and all(map(_is_number, value))) or (
            length is not None and len(value) != length
        ):
            raise ConfigError(
                f"calibration field {field!r} must be a list of "
                f"{length or 'one or more'} numbers, got {value!r}"
            )
    if not _is_number(doc["theta_max"]):
        raise ConfigError(
            f"calibration field 'theta_max' must be a number, got {doc['theta_max']!r}"
        )
    camera = KannalaBrandtCamera(
        coeffs=tuple(doc["coeffs"]),
        principal_point=tuple(doc["principal_point"]),
        theta_max=doc["theta_max"],
        image_size=tuple(doc["image_size"]),
    )
    extrinsics = None
    if "extrinsics" in doc and doc["extrinsics"] is not None:
        ext = doc["extrinsics"]
        for field in ("rotation", "translation"):
            if field not in ext:
                raise ConfigError(f"extrinsics missing required field {field!r}")
        rotation = np.asarray(ext["rotation"], dtype=np.float64)
        if rotation.size != 9:
            raise ConfigError("extrinsics rotation must hold 9 floats (row-major)")
        extrinsics = Extrinsics(
            rotation=rotation.reshape(3, 3),
            translation=np.asarray(ext["translation"], dtype=np.float64),
        )
    return camera, extrinsics


def save_calibration(
    path, camera: KannalaBrandtCamera, extrinsics: Extrinsics | None = None
) -> None:
    doc: dict[str, Any] = {
        "model": "kannala_brandt",
        "coeffs": [float(k) for k in camera.coeffs],
        "principal_point": [float(c) for c in camera.principal_point],
        "theta_max": float(camera.theta_max),
        "image_size": [int(s) for s in camera.image_size],
    }
    if extrinsics is not None:
        doc["extrinsics"] = {
            "rotation": [float(x) for x in extrinsics.rotation.reshape(-1)],
            "translation": [float(x) for x in extrinsics.translation],
        }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


# -- CSV writer and binary header reader --------------------------------------


def _write_csv(path, preamble: list[str], header: list[str], columns: list) -> None:
    """Write the preamble lines, the header row, then one row per column entry.

    Columns are equal-length 1-D arrays.  Floats are written with repr and
    other values with str, CSV_BLOCK_ROWS rows at a time.
    """
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in [*preamble, ",".join(header)]))
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [
                [repr(float(x)) if isinstance(x, float) else str(x) for x in values.tolist()]
                for values in (column[start : start + CSV_BLOCK_ROWS] for column in columns)
            ]
            fh.write("".join(",".join(row) + "\n" for row in zip(*block)))


def _header_value(name: str, value) -> int | float:
    """A header field: a finite number, and for counts a non-negative whole one."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    count = name in _COUNT_FIELDS
    if not math.isfinite(number) or (count and not (number >= 0.0 and number.is_integer())):
        kind = "a non-negative whole number" if count else "a finite number"
        raise FormatError(f"header field {name!r} must be {kind}, got {value!r}")
    return int(number) if count else number


def _read_bin(path, kind: str, magic: float, fields: tuple[str, ...]):
    """Split a float64 file into its checked header fields and its body."""
    raw = np.fromfile(path, dtype="<f8")
    n_head = 2 + len(fields)
    if len(raw) < n_head or raw.nbytes != os.path.getsize(path):
        raise FormatError(f"{kind} binary is shorter than its header or not whole float64s")
    if raw[0] != magic:
        raise FormatError(f"bad {kind} magic {raw[0]}")
    if raw[1] != float(FORMAT_VERSION):
        raise FormatError(f"unknown {kind} version {raw[1]}")
    head = {f: _header_value(f, v) for f, v in zip(fields, raw[2:n_head].tolist())}
    return head, raw[n_head:]


# -- angle maps ---------------------------------------------------------------


def _anglemap(cells: np.ndarray, head: dict[str, Any]) -> dict[str, Any]:
    """Reader result from row-major (theta, phi, valid) cells and header fields."""
    cells = cells.reshape(head["rows"], head["cols"], 3)
    valid = cells[..., 2]
    if not np.all((valid == 0.0) | (valid == 1.0)):
        raise FormatError("angle-map valid flags must be 0 or 1")
    return {
        "theta": cells[..., 0],
        "phi": cells[..., 1],
        "valid": valid == 1.0,
        "patch_size": head["patch_size"],
        "theta_max": head["theta_max"],
    }


def write_anglemap_csv(path, grid: PatchGrid) -> None:
    """Columns row,col,theta,phi,valid; floats as repr for exact round-trips."""
    rows, cols = grid.grid_dims
    meta = (
        f"{_ANGLE_CSV_TAG} v{FORMAT_VERSION} rows={rows} cols={cols} "
        f"patch_size={grid.patch_size} theta_max={grid.theta_max!r}"
    )
    row, col = np.divmod(np.arange(rows * cols), cols)
    flat = grid.coords.reshape(-1, 2)
    valid = grid.valid_mask.reshape(-1).astype(np.uint8)
    _write_csv(path, [meta], _ANGLE_CSV_COLUMNS, [row, col, flat[:, 0], flat[:, 1], valid])


def read_anglemap_csv(path) -> dict[str, Any]:
    """Parse an angle-map CSV back into arrays (theta, phi, valid) plus metadata."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        tokens = header.split()
        if " ".join(tokens[:2]) != _ANGLE_CSV_TAG:
            raise FormatError(f"not an angle-map CSV: {header[:60]!r}")
        if tokens[2:3] != [f"v{FORMAT_VERSION}"]:
            raise FormatError(f"unknown angle-map CSV version {' '.join(tokens[2:3])!r}")
        meta = dict(token.partition("=")[::2] for token in tokens[3:])
        columns = fh.readline().rstrip("\n")
        if columns != ",".join(_ANGLE_CSV_COLUMNS):
            raise FormatError(f"unexpected column header {columns!r}")
        head = {f: _header_value(f, meta.get(f)) for f in _ANGLE_BIN_FIELDS[:4]}
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise FormatError(f"malformed angle-map CSV line: {exc}") from exc
    n = head["rows"] * head["cols"]
    if data.shape != (n, 5):
        raise FormatError(f"expected {n} rows of 5 fields, found shape {data.shape}")
    row, col = np.divmod(np.arange(n), head["cols"])
    if not (np.array_equal(data[:, 0], row) and np.array_equal(data[:, 1], col)):
        raise FormatError("angle-map CSV rows are not in row-major row,col order")
    return _anglemap(data[:, 2:], head)


def write_anglemap_bin(path, grid: PatchGrid) -> None:
    """8-float64 header then (theta, phi, valid) float64 triples, row-major, LE."""
    rows, cols = grid.grid_dims
    header = np.array(
        [ANGLE_MAP_MAGIC, FORMAT_VERSION, rows, cols, grid.patch_size, grid.theta_max, 0, 0],
        dtype="<f8",
    )
    body = np.concatenate(
        [grid.coords, grid.valid_mask[..., None].astype(np.float64)], axis=-1
    ).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(body.tobytes())


def read_anglemap_bin(path) -> dict[str, Any]:
    head, body = _read_bin(path, "angle-map", ANGLE_MAP_MAGIC, _ANGLE_BIN_FIELDS)
    n = head["rows"] * head["cols"] * 3
    if len(body) != n:
        raise FormatError(f"angle-map body holds {len(body)} values, expected {n}")
    return _anglemap(body, head)


# -- lookup tables ------------------------------------------------------------


def write_lut_bin(path, lut: InverseLut) -> None:
    """5-float64 header (magic, version, resolution, r_max, theta_max) + entries."""
    header = np.array(
        [LUT_MAGIC, FORMAT_VERSION, lut.resolution, lut.r_max, lut.theta_max], dtype="<f8"
    )
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(lut.entries.astype("<f8").tobytes())


def read_lut_bin(path) -> InverseLut:
    head, entries = _read_bin(path, "LUT", LUT_MAGIC, ("resolution", "r_max", "theta_max"))
    if len(entries) != head["resolution"]:
        raise FormatError(f"LUT holds {len(entries)} entries, expected {head['resolution']}")
    try:
        return InverseLut(entries=entries, **head)
    except ConfigError as exc:
        raise FormatError(f"LUT table is malformed: {exc}") from exc


def write_lut_csv(path, lut: InverseLut) -> None:
    meta = (
        f"{_LUT_CSV_TAG} v{FORMAT_VERSION} resolution={lut.resolution} "
        f"r_max={lut.r_max!r} theta_max={lut.theta_max!r}"
    )
    radii = np.linspace(0.0, lut.r_max, lut.resolution)
    columns = [np.arange(lut.resolution), radii, lut.entries]
    _write_csv(path, [meta], ["index", "r", "theta"], columns)


# -- reports ------------------------------------------------------------------


def dump_report_yaml(report: dict[str, Any]) -> str:
    """Deterministic YAML for report dicts: sorted keys, plain floats."""
    return yaml.safe_dump(_plain(report), sort_keys=True)


def write_report_yaml(path, report: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_report_yaml(report))


def write_csv_table(path, header: list[str], rows: list[list[Any]]) -> None:
    _write_csv(path, [], header, [np.array(column, dtype=object) for column in zip(*rows)])


def _plain(obj):
    """Recursively convert numpy scalars/arrays so YAML stays clean."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj
