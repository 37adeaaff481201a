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

Every CSV goes through `_write_csv`: every value as its str (for floats
that is repr, so float64 round-trips exactly), CSV_BLOCK_ROWS rows at a
time.  A numeric column's block that repeats its values formats each
distinct value once; the bytes are those of formatting every value.
A table of two or more blocks is formatted in two processes where
`_parallel.fork_split` allows: a forked child writes the second half to
a temporary file that the parent appends, with the same bytes as one
process writes.  `read_anglemap_csv` splits a body of two or more blocks
the same way: the child parses the bytes after the first newline past
the middle and the parent the bytes before it, with the same arrays as
one process parses; any failure there is parsed again in one process,
which raises that parse's FormatError.

Every writer goes through `_replacing`: it writes a new sibling of its
path and renames it over the path only once the write has finished, so
a failed write leaves what was there before.  YAML uses libyaml's safe
dumper and loader where PyYAML has them, which give the pure-Python
classes' bytes and trees.

Readers raise FormatError
on an unknown magic, tag or version; a non-finite header value, or a
count (rows, cols, patch_size, resolution) that is not a non-negative
whole number; a body of the wrong length or of partial float64s; a
malformed or out-of-order angle-map CSV line; a `valid` flag other than
0 or 1; an angle map whose patch_size is below 1, whose theta_max is not
positive, or with a valid cell outside theta in [0, theta_max] and
|phi| <= pi (wider than PatchGrid's [-pi, pi), so phi = +pi at the seam
reads); a LUT whose header count is not its body length, or that
InverseLut refuses (entries that do not start at 0, rise strictly and
end at a finite theta_max, or an r_max that is not finite and positive).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import warnings
from typing import TYPE_CHECKING, Any

import numpy as np
import yaml

from . import _parallel
from .camera import Extrinsics, InverseLut, KannalaBrandtCamera
from .errors import ConfigError, FishropeError, FormatError

if TYPE_CHECKING:
    from .angular import PatchGrid

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

# libyaml's emitter and parser where PyYAML was built with them; the
# pure-Python classes give the same bytes and trees, more slowly.
_YamlDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_YamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@contextlib.contextmanager
def _replacing(path, mode: str):
    """Yield a file open on a new sibling of path; replace path with it on success.

    The sibling is created next to the file path names (through any
    symlink), so `os.replace` swaps it in atomically; on any failure it
    is removed and the file is left as it was.  A path that exists and is
    not a regular file, such as /dev/null or a pipe, is written in place.
    """
    encoding = None if "b" in mode else "utf-8"
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, mode, encoding=encoding) as fh:
            yield fh
        return
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # umask applies
    except OSError as exc:  # name the path the user gave, not the sibling
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# -- calibration ------------------------------------------------------------


def load_calibration(path) -> tuple[KannalaBrandtCamera, Extrinsics | None]:
    """Parse a calibration file into a camera and optional extrinsics."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_YamlLoader)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of over 4300 digits
            raise ConfigError(f"calibration file is not valid YAML: {exc}") from exc
    return calibration_from_dict(doc)


def _is_number(value: Any) -> bool:
    """A YAML int or float that a float64 holds; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:  # an int beyond float64's range
        return False
    return True


def _require_numbers(what: str, value: Any, length: int | None) -> None:
    """ConfigError unless value is a list of numbers, of `length` if given."""
    if not (isinstance(value, list) and all(map(_is_number, value))) or (
        length is not None and len(value) != length
    ):
        raise ConfigError(
            f"{what} must be a list of {length or 'one or more'} numbers, got {value!r}"
        )


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
        _require_numbers(f"calibration field {field!r}", doc[field], length)
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
    ext = doc.get("extrinsics")
    if ext is None:
        return camera, None
    if not isinstance(ext, dict):
        raise ConfigError(f"calibration field 'extrinsics' must be a mapping, got {ext!r}")
    for field, length in (("rotation", 9), ("translation", 3)):
        if field not in ext:
            raise ConfigError(f"extrinsics missing required field {field!r}")
        _require_numbers(f"extrinsics field {field!r}", ext[field], length)
    rotation = np.asarray(ext["rotation"], dtype=np.float64).reshape(3, 3)
    return camera, Extrinsics(rotation=rotation, translation=ext["translation"])


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
    with _replacing(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=_YamlDumper, sort_keys=True)


# -- CSV writer and binary header reader --------------------------------------


def _block_strs(block: np.ndarray) -> list[str]:
    """The str of each value of one block of a column.

    A numeric block with at most half as many distinct values as rows
    formats each distinct value once and shares its str between the rows
    that hold it.  Floats are told apart by their int64 bits, so -0.0 and
    0.0, and NaNs with different payloads, each get their own value's str.
    """
    if block.dtype.kind in "iuf":
        keys = block.view(f"i{block.itemsize}") if block.dtype.kind == "f" else block
        ordered = np.sort(keys, kind="stable")  # linear on an already sorted block
        if 2 * (np.count_nonzero(ordered[1:] != ordered[:-1]) + 1) <= len(block):
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            strs = np.array(list(map(str, block[first].tolist())), dtype=object)
            return strs[inverse].tolist()
    return list(map(str, block.tolist()))


def _write_csv(path, preamble: list[str], header: list[str], columns: list) -> None:
    """Write the preamble lines, the header row, then one row per column entry.

    Columns are equal-length 1-D arrays, and every value is written as its
    str (for a float that is repr), CSV_BLOCK_ROWS rows at a time; within
    a block, each distinct value of a repeating numeric column is
    formatted once (`_block_strs`).  A table of at least two blocks is
    split at a block boundary when `_parallel.fork_split`'s gate allows: a
    forked child formats the second half into its temporary file while
    this process formats the first half, then this process appends the
    child's bytes.  Either way the bytes are the same.
    """
    n_rows = len(columns[0]) if columns else 0

    def block_text(lo: int, hi: int) -> str:
        # the strs go when this returns, before the next block makes its own
        strs = [_block_strs(column[lo:hi]) for column in columns]
        return "\n".join([*map(",".join, zip(*strs)), ""])

    def write_rows(write, start: int, stop: int) -> None:
        for lo in range(start, stop, CSV_BLOCK_ROWS):
            write(block_text(lo, min(lo + CSV_BLOCK_ROWS, stop)))

    with _replacing(path, "w") as fh:
        fh.write("".join(line + "\n" for line in [*preamble, ",".join(header)]))
        if n_rows >= 2 * CSV_BLOCK_ROWS:
            half = CSV_BLOCK_ROWS * round(n_rows / (2 * CSV_BLOCK_ROWS))

            def format_tail(tail) -> None:
                write_rows(lambda text: tail.write(text.encode("utf-8")), half, n_rows)

            def append(tail) -> None:
                fh.flush()
                shutil.copyfileobj(tail, fh.buffer)

            if _parallel.fork_split(
                format_tail,
                lambda: write_rows(fh.write, 0, half),
                append,
                f"the process writing rows {half}..{n_rows} of {path}",
            ) is not None:
                return
        write_rows(fh.write, 0, n_rows)


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
    if head["patch_size"] < 1 or head["theta_max"] <= 0.0:
        raise FormatError(
            f"angle-map needs patch_size >= 1 and theta_max > 0, got "
            f"{head['patch_size']} and {head['theta_max']}"
        )
    cells = cells.reshape(head["rows"], head["cols"], 3)
    theta, phi, valid = np.moveaxis(cells, -1, 0)
    if not np.all((valid == 0.0) | (valid == 1.0)):
        raise FormatError("angle-map valid flags must be 0 or 1")
    valid = valid == 1.0
    in_range = (theta >= 0.0) & (theta <= head["theta_max"]) & (np.abs(phi) <= math.pi)
    if not np.all(in_range[valid]):
        raise FormatError(
            f"a valid angle-map cell lies outside theta in [0, {head['theta_max']}], "
            "|phi| <= pi"
        )
    return {
        "theta": theta,
        "phi": phi,
        "valid": valid,
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


def _loadtxt_range(fd: int, start: int, stop: int) -> np.ndarray:
    """np.loadtxt of bytes start..stop of fd, decoded as `read_anglemap_csv` decodes.

    The bytes come from os.pread, which leaves the descriptor's offset
    alone.  ValueError if the file ends before stop; any warning (a range
    with no data line) is raised as an error.
    """
    body = os.pread(fd, stop - start, start)
    if len(body) != stop - start:
        raise ValueError(f"the file ends before byte {stop}")
    text = io.TextIOWrapper(io.BytesIO(body), encoding="utf-8", errors="replace")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(text, delimiter=",", ndmin=2)


def _split_loadtxt(fh) -> np.ndarray | None:
    """The rest of text file fh as np.loadtxt parses it, in two processes; or None.

    The rest is cut after the first newline at or past its byte midpoint.
    Through `_parallel.fork_split`, a forked child parses the bytes after the
    cut and writes (rows, cols) as two int64 values, then its float64
    rows, to its temporary file, while this process parses the bytes before
    it; this process then copies its rows into the result and reads the
    child's in after them.  Both halves are read through fh's descriptor
    with os.pread: the path is not opened again (a replaced --out could
    swap the file between two opens) and fh does not move.  None when the
    gate says no; when fh is not a seekable file, its position is not a
    plain byte offset, or it has no newline within io.DEFAULT_BUFFER_SIZE
    bytes of the midpoint; when either half fails to parse; and when the
    halves differ in width.  The caller then parses fh in one process,
    with that parse's errors.
    """
    if not fh.seekable():
        return None
    fd = fh.fileno()
    start, size = fh.tell(), os.fstat(fd).st_size
    if start > size:  # a tell() cookie that holds decoder state, not a byte offset
        return None
    mid = start + (size - start) // 2
    newline = os.pread(fd, io.DEFAULT_BUFFER_SIZE, mid).find(b"\n")
    if newline < 0:
        return None
    cut = mid + newline + 1
    halves = []

    def parse_tail(out) -> None:
        tail = _loadtxt_range(fd, cut, size)
        out.write(np.array(tail.shape, dtype=np.int64).tobytes())
        out.write(tail)

    def join(out) -> np.ndarray | None:
        (head,) = halves
        rows, cols = np.frombuffer(out.read(16), dtype=np.int64).tolist()
        if cols != head.shape[1]:
            return None
        data = np.empty((len(head) + rows, cols))
        data[: len(head)] = head
        out.readinto(data[len(head) :])
        return data

    try:
        split = _parallel.fork_split(
            parse_tail,
            lambda: halves.append(_loadtxt_range(fd, start, cut)),
            join,
            f"the process parsing bytes {cut}..{size} of {fh.name}",
        )
    except (ValueError, Warning, FishropeError):
        return None
    return None if split is None else split[1]


def read_anglemap_csv(path) -> dict[str, Any]:
    """Parse an angle-map CSV back into arrays (theta, phi, valid) plus metadata.

    A body of at least 2 * CSV_BLOCK_ROWS rows by the metadata line is
    parsed in two processes where `_parallel.fork_split`'s gate allows (see
    `_split_loadtxt`), with the same bits as one process parses.  Any
    failure there, and every smaller body, is parsed by np.loadtxt in this
    process, which raises the FormatError for a malformed line.  A body
    without a data line is zero rows, so a zero-cell map reads as its
    binary form does and any other map is refused for its row count.
    """
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
        n = head["rows"] * head["cols"]
        data = _split_loadtxt(fh) if n >= 2 * CSV_BLOCK_ROWS else None
        if data is None:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError as exc:
                    raise FormatError(f"malformed angle-map CSV line: {exc}") from exc
                except UserWarning:  # np.loadtxt warns on a body without a data line
                    data = np.empty((0, 5))
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
    ).astype("<f8", copy=False)
    with _replacing(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(body.data)


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
    with _replacing(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(lut.entries, dtype="<f8").data)


def read_lut_bin(path) -> InverseLut:
    head, entries = _read_bin(path, "LUT", LUT_MAGIC, ("resolution", "r_max", "theta_max"))
    if len(entries) != head["resolution"]:
        raise FormatError(f"LUT holds {len(entries)} entries, expected {head['resolution']}")
    try:
        return InverseLut(entries=entries, r_max=head["r_max"], theta_max=head["theta_max"])
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
    return yaml.dump(_plain(report), Dumper=_YamlDumper, sort_keys=True)


def write_report_yaml(path, report: dict[str, Any]) -> None:
    with _replacing(path, "w") as fh:
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
