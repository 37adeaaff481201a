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

Floats in CSV use repr, which round-trips float64 exactly.  Readers
reject unknown magics and versions.
"""

from __future__ import annotations

import io
from typing import Any

import numpy as np
import yaml

from .angular import PatchGrid
from .camera import Extrinsics, InverseLut, KannalaBrandtCamera
from .errors import ConfigError, FormatError

ANGLE_MAP_MAGIC = 982451653.0
LUT_MAGIC = 514229.0
FORMAT_VERSION = 1

_ANGLE_CSV_TAG = "# fishrope-anglemap-csv"
_LUT_CSV_TAG = "# fishrope-lut-csv"


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


# -- angle maps ---------------------------------------------------------------


def write_anglemap_csv(path, grid: PatchGrid) -> None:
    """Columns row,col,theta,phi,valid; floats as repr for exact round-trips."""
    rows, cols = grid.grid_dims
    buf = io.StringIO()
    buf.write(
        f"{_ANGLE_CSV_TAG} v{FORMAT_VERSION} rows={rows} cols={cols} "
        f"patch_size={grid.patch_size} theta_max={grid.theta_max!r}\n"
    )
    buf.write("row,col,theta,phi,valid\n")
    for r in range(rows):
        for c in range(cols):
            theta, phi = grid.coords[r, c]
            valid = int(grid.valid_mask[r, c])
            buf.write(f"{r},{c},{float(theta)!r},{float(phi)!r},{valid}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def read_anglemap_csv(path) -> dict[str, Any]:
    """Parse an angle-map CSV back into arrays (theta, phi, valid) plus metadata."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(_ANGLE_CSV_TAG):
            raise FormatError(f"not an angle-map CSV: {header[:60]!r}")
        tokens = header.split()
        version = tokens[2]
        if version != f"v{FORMAT_VERSION}":
            raise FormatError(f"unknown angle-map CSV version {version!r}")
        meta = dict(item.split("=") for item in tokens[3:])
        columns = fh.readline().rstrip("\n")
        if columns != "row,col,theta,phi,valid":
            raise FormatError(f"unexpected column header {columns!r}")
        rows = int(meta["rows"])
        cols = int(meta["cols"])
        theta = np.empty((rows, cols))
        phi = np.empty((rows, cols))
        valid = np.empty((rows, cols), dtype=bool)
        count = 0
        for line in fh:
            r_s, c_s, t_s, p_s, v_s = line.rstrip("\n").split(",")
            r, c = int(r_s), int(c_s)
            theta[r, c] = float(t_s)
            phi[r, c] = float(p_s)
            valid[r, c] = bool(int(v_s))
            count += 1
        if count != rows * cols:
            raise FormatError(f"expected {rows * cols} rows, found {count}")
    return {
        "theta": theta,
        "phi": phi,
        "valid": valid,
        "patch_size": int(meta["patch_size"]),
        "theta_max": float(meta["theta_max"]),
    }


def write_anglemap_bin(path, grid: PatchGrid) -> None:
    """8-float64 header then (theta, phi, valid) float64 triples, row-major, LE."""
    rows, cols = grid.grid_dims
    header = np.array(
        [
            ANGLE_MAP_MAGIC,
            float(FORMAT_VERSION),
            float(rows),
            float(cols),
            float(grid.patch_size),
            grid.theta_max,
            0.0,
            0.0,
        ],
        dtype="<f8",
    )
    body = np.concatenate(
        [grid.coords, grid.valid_mask[..., None].astype(np.float64)], axis=-1
    ).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(body.tobytes())


def read_anglemap_bin(path) -> dict[str, Any]:
    raw = np.fromfile(path, dtype="<f8")
    if len(raw) < 8:
        raise FormatError("angle-map binary too short for header")
    magic, version, rows_f, cols_f, patch_size, theta_max = raw[:6]
    if magic != ANGLE_MAP_MAGIC:
        raise FormatError(f"bad angle-map magic {magic}")
    if version != float(FORMAT_VERSION):
        raise FormatError(f"unknown angle-map version {version}")
    rows, cols = int(rows_f), int(cols_f)
    body = raw[8:]
    if len(body) != rows * cols * 3:
        raise FormatError(
            f"angle-map body holds {len(body)} values, expected {rows * cols * 3}"
        )
    body = body.reshape(rows, cols, 3)
    return {
        "theta": body[..., 0],
        "phi": body[..., 1],
        "valid": body[..., 2] != 0.0,
        "patch_size": int(patch_size),
        "theta_max": float(theta_max),
    }


# -- lookup tables ------------------------------------------------------------


def write_lut_bin(path, lut: InverseLut) -> None:
    """5-float64 header (magic, version, resolution, r_max, theta_max) + entries."""
    header = np.array(
        [LUT_MAGIC, float(FORMAT_VERSION), float(lut.resolution), lut.r_max, lut.theta_max],
        dtype="<f8",
    )
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(lut.entries.astype("<f8").tobytes())


def read_lut_bin(path) -> InverseLut:
    raw = np.fromfile(path, dtype="<f8")
    if len(raw) < 5:
        raise FormatError("LUT binary too short for header")
    magic, version, resolution_f, r_max, theta_max = raw[:5]
    if magic != LUT_MAGIC:
        raise FormatError(f"bad LUT magic {magic}")
    if version != float(FORMAT_VERSION):
        raise FormatError(f"unknown LUT version {version}")
    resolution = int(resolution_f)
    entries = raw[5:]
    if len(entries) != resolution:
        raise FormatError(f"LUT holds {len(entries)} entries, expected {resolution}")
    return InverseLut(
        entries=entries, resolution=resolution, r_max=float(r_max), theta_max=float(theta_max)
    )


def write_lut_csv(path, lut: InverseLut) -> None:
    radii = np.linspace(0.0, lut.r_max, lut.resolution)
    buf = io.StringIO()
    buf.write(
        f"{_LUT_CSV_TAG} v{FORMAT_VERSION} resolution={lut.resolution} "
        f"r_max={lut.r_max!r} theta_max={lut.theta_max!r}\n"
    )
    buf.write("index,r,theta\n")
    for i, (r, t) in enumerate(zip(radii, lut.entries)):
        buf.write(f"{i},{float(r)!r},{float(t)!r}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


# -- attention dumps and report tables ---------------------------------------


def write_attention_csv(path, logits: np.ndarray, attn: np.ndarray) -> None:
    """Per-pair attention dump with columns q_index,k_index,logit,weight."""
    logits = np.asarray(logits)
    attn = np.asarray(attn)
    if logits.shape != attn.shape or logits.ndim != 2:
        raise ConfigError("logits and weights must be equal-shape 2-D arrays")
    buf = io.StringIO()
    buf.write("q_index,k_index,logit,weight\n")
    for qi in range(logits.shape[0]):
        for ki in range(logits.shape[1]):
            buf.write(f"{qi},{ki},{float(logits[qi, ki])!r},{float(attn[qi, ki])!r}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def dump_report_yaml(report: dict[str, Any]) -> str:
    """Deterministic YAML for report dicts: sorted keys, plain floats."""
    return yaml.safe_dump(_plain(report), sort_keys=True)


def write_report_yaml(path, report: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_report_yaml(report))


def write_csv_table(path, header: list[str], rows: list[list[Any]]) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
        buf.write("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


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
