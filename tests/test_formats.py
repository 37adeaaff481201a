import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishrope import ConfigError, FormatError, patch_angles
from fishrope.fixtures import scene_extrinsics, wide_camera
from fishrope import formats


class TestCalibration:
    def test_roundtrip_preserves_camera_and_extrinsics(self, tmp_path):
        cam = wide_camera()
        ext = scene_extrinsics()
        path = tmp_path / "calib.yaml"
        formats.save_calibration(path, cam, ext)
        cam2, ext2 = formats.load_calibration(path)
        assert cam2 == cam
        np.testing.assert_array_equal(ext2.rotation, ext.rotation)
        np.testing.assert_array_equal(ext2.translation, ext.translation)

    def test_extrinsics_optional(self, tmp_path):
        path = tmp_path / "calib.yaml"
        formats.save_calibration(path, wide_camera())
        _, ext = formats.load_calibration(path)
        assert ext is None

    def test_rejects_unknown_model(self, tmp_path):
        path = tmp_path / "pinhole.yaml"
        path.write_text("model: pinhole\ncoeffs: [1.0]\n")
        with pytest.raises(ConfigError) as exc:
            formats.load_calibration(path)
        assert "pinhole" in str(exc.value)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("model: kannala_brandt\ncoeffs: [100.0]\n")
        with pytest.raises(ConfigError) as exc:
            formats.load_calibration(path)
        assert "principal_point" in str(exc.value)

    @staticmethod
    def _doc(**override):
        doc = {
            "model": "kannala_brandt",
            "coeffs": [160.0],
            "principal_point": [512.0, 512.0],
            "theta_max": 1.5,
            "image_size": [1024, 1024],
        }
        doc.update(override)
        return doc

    @pytest.mark.parametrize("field", ["coeffs", "principal_point", "image_size"])
    @pytest.mark.parametrize("value", [5, 1.5, "160.0"])
    def test_rejects_non_list_fields(self, field, value):
        with pytest.raises(ConfigError, match=field):
            formats.calibration_from_dict(self._doc(**{field: value}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coeffs", ["a"]),
            ("coeffs", [True]),
            ("principal_point", [512.0, 512.0, 1.0]),
            ("image_size", [1024]),
            ("image_size", [1024, None]),
            ("theta_max", "wide"),
            ("theta_max", [1.5]),
        ],
    )
    def test_rejects_malformed_field_entries(self, field, value):
        with pytest.raises(ConfigError, match=field):
            formats.calibration_from_dict(self._doc(**{field: value}))

    def test_rejects_malformed_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("model: [unclosed\n")
        with pytest.raises(ConfigError):
            formats.load_calibration(path)

    def test_repo_fixture_matches_builtin(self, calibration_path):
        cam, ext = formats.load_calibration(calibration_path)
        assert cam == wide_camera()
        np.testing.assert_allclose(ext.rotation, scene_extrinsics().rotation, atol=1e-15)


class TestAngleMaps:
    @pytest.fixture
    def grid(self):
        return patch_angles(wide_camera(), 96)

    def test_csv_roundtrip_bit_exact(self, tmp_path, grid):
        path = tmp_path / "angles.csv"
        formats.write_anglemap_csv(path, grid)
        back = formats.read_anglemap_csv(path)
        assert np.array_equal(back["theta"], grid.coords[..., 0], equal_nan=True)
        assert np.array_equal(back["phi"], grid.coords[..., 1], equal_nan=True)
        assert np.array_equal(back["valid"], grid.valid_mask)
        assert back["patch_size"] == grid.patch_size
        assert back["theta_max"] == grid.theta_max

    def test_bin_roundtrip_bit_exact(self, tmp_path, grid):
        path = tmp_path / "angles.bin"
        formats.write_anglemap_bin(path, grid)
        back = formats.read_anglemap_bin(path)
        assert np.array_equal(back["theta"], grid.coords[..., 0], equal_nan=True)
        assert np.array_equal(back["phi"], grid.coords[..., 1], equal_nan=True)
        assert np.array_equal(back["valid"], grid.valid_mask)

    def test_bin_rejects_bad_magic(self, tmp_path, grid):
        path = tmp_path / "angles.bin"
        formats.write_anglemap_bin(path, grid)
        raw = bytearray(path.read_bytes())
        raw[:8] = np.array([123.0]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            formats.read_anglemap_bin(path)

    def test_bin_rejects_unknown_version(self, tmp_path, grid):
        path = tmp_path / "angles.bin"
        formats.write_anglemap_bin(path, grid)
        raw = bytearray(path.read_bytes())
        raw[8:16] = np.array([99.0]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            formats.read_anglemap_bin(path)

    def test_csv_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError):
            formats.read_anglemap_csv(path)


class TestLut:
    def test_bin_roundtrip_identical(self, tmp_path):
        lut = wide_camera().build_lut(512)
        path = tmp_path / "lut.bin"
        formats.write_lut_bin(path, lut)
        back = formats.read_lut_bin(path)
        assert back.resolution == lut.resolution
        assert back.r_max == lut.r_max
        assert back.theta_max == lut.theta_max
        assert np.array_equal(back.entries, lut.entries)

    def test_bin_rejects_truncated(self, tmp_path):
        lut = wide_camera().build_lut(64)
        path = tmp_path / "lut.bin"
        formats.write_lut_bin(path, lut)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            formats.read_lut_bin(path)

    def test_csv_has_version_line(self, tmp_path):
        lut = wide_camera().build_lut(16)
        path = tmp_path / "lut.csv"
        formats.write_lut_csv(path, lut)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# fishrope-lut-csv v1")


class TestReportsAndTables:
    def test_report_yaml_deterministic_and_sorted(self):
        doc = {"b": 2, "a": [1.5, {"z": True, "y": np.float64(0.25)}]}
        a = formats.dump_report_yaml(doc)
        b = formats.dump_report_yaml(doc)
        assert a == b
        assert a.index("a:") < a.index("b:")

    def test_csv_table_float_repr(self, tmp_path):
        path = tmp_path / "table.csv"
        value = 0.1 + 0.2  # 0.30000000000000004
        formats.write_csv_table(path, ["x"], [[value]])
        text = path.read_text().splitlines()[1]
        assert float(text) == value

    def test_blocked_writes_equal_one_block(self, tmp_path, monkeypatch):
        grid = patch_angles(wide_camera(), 96)
        lut = wide_camera().build_lut(100)
        table = [["a", 0.5, 1], ["b", np.float64(0.1) * 3, 2], ["c", float("nan"), 3]]
        writers = [
            (formats.write_anglemap_csv, (grid,)),
            (formats.write_lut_csv, (lut,)),
            (formats.write_csv_table, (["name", "x", "n"], table)),
        ]
        whole = []
        for i, (write, args) in enumerate(writers):
            write(tmp_path / f"{i}.csv", *args)
            whole.append((tmp_path / f"{i}.csv").read_bytes())
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        for i, (write, args) in enumerate(writers):
            write(tmp_path / f"{i}.blocked.csv", *args)
            assert (tmp_path / f"{i}.blocked.csv").read_bytes() == whole[i]
        assert whole[2].decode().splitlines()[2] == "b,0.30000000000000004,2"


class TestCsvWriterMemory:
    """The CSV writer holds one block of rows, never the whole file's text."""

    @pytest.mark.parametrize(
        "write, make",
        [
            (formats.write_anglemap_csv, lambda: patch_angles(wide_camera(), 4)),  # 256 x 256
            (formats.write_lut_csv, lambda: wide_camera().build_lut(65536)),
        ],
        ids=["anglemap", "lut"],
    )
    def test_peak_memory_bounded_by_blocks(self, tmp_path, write, make):
        artifact = make()
        path = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            write(path, artifact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Blocked: under 4 MiB.  Formatting every row at once peaks near
        # 25 MiB, and building the text in one buffer near 9 MiB.
        assert path.stat().st_size > 2**21
        assert peak < 6 * 2**20


# -- readers: every malformed file raises FormatError --------------------------

GRID_DIMS = 11  # patch_angles(wide_camera(), 96) is an 11 x 11 grid
LUT_RESOLUTION = 64


def _write(kind, path):
    if kind == "lut_bin":
        formats.write_lut_bin(path, wide_camera().build_lut(LUT_RESOLUTION))
    else:
        grid = patch_angles(wide_camera(), 96)
        assert grid.grid_dims == (GRID_DIMS, GRID_DIMS)
        getattr(formats, f"write_{kind}")(path, grid)


def _read(kind, path):
    return getattr(formats, f"read_{kind}")(path)


def _set(index, value):
    """Overwrite float64 values of a binary file."""
    def mutate(values):
        values[index] = value
    return mutate


def _csv_field(line, field, value):
    """Replace one comma-separated field (a slice drops fields) of a CSV line."""
    def mutate(lines):
        parts = lines[line].split(",")
        parts[field] = value
        lines[line] = ",".join(parts)
    return mutate


def _csv_replace(line, old, new):
    def mutate(lines):
        assert old in lines[line]
        lines[line] = lines[line].replace(old, new)
    return mutate


# Binary header slots: 0 magic, 1 version, then the fields; angle-map cells
# start at value 8 as (theta, phi, valid).  CSV line 0 is the metadata, line
# 1 the column header, line 2 + k the k-th cell in row-major order.
MALFORMED = {
    "anglemap-bin-nan-rows": ("anglemap_bin", _set(2, np.nan)),
    "anglemap-bin-fractional-rows": ("anglemap_bin", _set(2, 11.5)),
    "anglemap-bin-half-valid": ("anglemap_bin", _set(8 + 2, 0.5)),
    "anglemap-bin-negated-dims": ("anglemap_bin", _set(slice(2, 4), -GRID_DIMS)),
    "anglemap-bin-nan-patch-size": ("anglemap_bin", _set(4, np.nan)),
    "lut-bin-nan-resolution": ("lut_bin", _set(2, np.nan)),
    "lut-bin-fractional-resolution": ("lut_bin", _set(2, 64.5)),
    "anglemap-csv-duplicate-row-index": ("anglemap_csv", _csv_field(3, 1, "0")),
    "anglemap-csv-valid-2": ("anglemap_csv", _csv_field(2, 4, "2")),
    "anglemap-csv-non-numeric": ("anglemap_csv", _csv_field(2, 2, "abc")),
    "anglemap-csv-short-line": ("anglemap_csv", _csv_field(2, slice(4, None), [])),
    "anglemap-csv-row-index-99": ("anglemap_csv", _csv_field(2, 0, "99")),
    "anglemap-csv-no-cols": ("anglemap_csv", _csv_replace(0, f" cols={GRID_DIMS}", "")),
    "anglemap-csv-nan-rows": ("anglemap_csv", _csv_replace(0, f"rows={GRID_DIMS}", "rows=nan")),
    "lut-bin-nan-theta-max": ("lut_bin", _set(4, np.nan)),
    "lut-bin-decreasing-entry": ("lut_bin", _set(6, -1.0)),
}


@pytest.mark.parametrize("kind, mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_reader_rejects_malformed_file(tmp_path, kind, mutate):
    path = tmp_path / "artifact"
    _write(kind, path)
    if kind.endswith("_csv"):
        lines = path.read_text().splitlines()
        mutate(lines)
        path.write_text("\n".join(lines) + "\n")
    else:
        values = np.fromfile(path, dtype="<f8")
        mutate(values)
        values.tofile(path)
    with pytest.raises(FormatError):
        _read(kind, path)


@pytest.mark.parametrize("kind", ["anglemap_bin", "lut_bin"])
def test_bin_reader_rejects_partial_float(tmp_path, kind):
    path = tmp_path / "artifact"
    _write(kind, path)
    path.write_bytes(path.read_bytes() + b"\0\0\0")
    with pytest.raises(FormatError):
        _read(kind, path)


def test_csv_reader_rejects_a_binary_file(tmp_path):
    path = tmp_path / "angles.bin"
    _write("anglemap_bin", path)
    with pytest.raises(FormatError):
        formats.read_anglemap_csv(path)


# Header slots a reader must reject any of the fuzz values in (magic,
# version and the counts the body length depends on), and the count slots.
_ALWAYS_CHECKED = {"anglemap_bin": {0, 1, 2, 3}, "lut_bin": {0, 1, 2}}
_COUNT_SLOTS = {"anglemap_bin": {2, 3, 4}, "lut_bin": {2}}
_HEADER_LEN = {"anglemap_bin": 8, "lut_bin": 5}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("originals")
    data = {}
    for kind in _HEADER_LEN:
        _write(kind, root / kind)
        data[kind] = (root / kind).read_bytes()
    return root, data


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_HEADER_LEN)),
    mutation=st.one_of(
        st.tuples(st.just("truncate"), st.integers(1, 10**6)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24)),
        st.tuples(
            st.just("overwrite"),
            st.integers(0, 7),
            st.sampled_from([math.nan, -1.0, 1.5, 1e300]),
        ),
    ),
)
def test_bin_reader_fuzzed_header_raises_only_format_error(originals, kind, mutation):
    root, data = originals
    raw = data[kind]
    if mutation[0] == "truncate":
        mutated, must_reject = raw[: max(len(raw) - mutation[1], 0)], True
    elif mutation[0] == "extend":
        mutated, must_reject = raw + mutation[1], True
    else:
        _, slot, value = mutation
        slot %= _HEADER_LEN[kind]
        values = np.frombuffer(raw, dtype="<f8").copy()
        values[slot] = value
        mutated = values.tobytes()
        must_reject = (
            math.isnan(value)
            or slot in _ALWAYS_CHECKED[kind]
            or (slot in _COUNT_SLOTS[kind] and value in (-1.0, 1.5))
        )
    path = root / f"fuzzed-{kind}"
    path.write_bytes(mutated)
    try:
        _read(kind, path)
    except FormatError:
        return
    assert not must_reject, f"{kind} accepted {mutation}"
