import errno
import importlib.util
import io
import math
import os
import pathlib
import stat
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fishrope import ConfigError, FishropeError, FormatError, patch_angles
from fishrope.cli import main
from fishrope.experiments import CheckResult, SelfCheckReport
from fishrope.fixtures import scene_extrinsics, wide_camera
from fishrope import _parallel, formats

from .test_parallel import _cores, _count_forks


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_EYE = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


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
            # the next three once ended in numpy's ValueError or TypeError traceback
            ("extrinsics", {"rotation": "abc", "translation": [0.0, 0.0, 0.0]}),
            ("extrinsics", {"rotation": {"a": 1}, "translation": [0.0, 0.0, 0.0]}),
            ("extrinsics", 5),
            ("extrinsics", []),
            ("extrinsics", {"rotation": _EYE[:8], "translation": [0.0, 0.0, 0.0]}),
            ("extrinsics", {"rotation": _EYE, "translation": [0.0, 0.0]}),
            ("extrinsics", {"rotation": _EYE, "translation": None}),
            ("extrinsics", {"rotation": _EYE}),
            ("extrinsics", {"rotation": [math.nan] + _EYE[1:], "translation": [0.0] * 3}),
            ("extrinsics", {"rotation": _EYE, "translation": [0.0, math.inf, 0.0]}),
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

    def test_rejects_an_integer_too_long_to_parse(self, tmp_path):
        # Python refuses to parse an int of over 4300 digits, and the YAML
        # loader raises that ValueError, not a YAMLError
        path = tmp_path / "long.yaml"
        path.write_text("theta_max: " + "1" * 5000 + "\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            formats.load_calibration(path)

    def test_repo_fixture_matches_builtin(self, calibration_path):
        cam, ext = formats.load_calibration(calibration_path)
        assert cam == wide_camera()
        np.testing.assert_allclose(ext.rotation, scene_extrinsics().rotation, atol=1e-15)

    def test_script_regenerates_the_repo_fixture_exactly(self, calibration_path, tmp_path,
                                                        monkeypatch, capsys):
        path = REPO_ROOT / "scripts" / "make_fixture_camera.py"
        spec = importlib.util.spec_from_file_location("make_fixture_camera", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "synthetic_fisheye.yaml"
        monkeypatch.setattr(script, "OUT", out)
        assert script.main() == 0
        assert capsys.readouterr().out.endswith(f"wrote {out}\n")
        assert out.read_bytes() == calibration_path.read_bytes()


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

    @staticmethod
    def _header_only_csv(path, rows, cols):
        path.write_text(
            f"{formats._ANGLE_CSV_TAG} v{formats.FORMAT_VERSION} rows={rows} cols={cols} "
            f"patch_size=8 theta_max=1.5\n{','.join(formats._ANGLE_CSV_COLUMNS)}\n"
        )

    def test_csv_without_a_data_line_raises_format_error_not_a_warning(self, tmp_path):
        path = tmp_path / "angles.csv"
        self._header_only_csv(path, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            with pytest.raises(FormatError, match="expected 1 rows of 5 fields"):
                formats.read_anglemap_csv(path)

    def test_zero_cell_map_reads_the_same_from_csv_and_bin(self, tmp_path):
        csv_path, bin_path = tmp_path / "angles.csv", tmp_path / "angles.bin"
        self._header_only_csv(csv_path, 0, 0)
        header = [formats.ANGLE_MAP_MAGIC, formats.FORMAT_VERSION, 0, 0, 8, 1.5, 0, 0]
        np.array(header, dtype="<f8").tofile(bin_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from_csv = formats.read_anglemap_csv(csv_path)
            from_bin = formats.read_anglemap_bin(bin_path)
        for key in ("theta", "phi", "valid"):
            assert from_csv[key].shape == from_bin[key].shape == (0, 0)
            assert from_csv[key].dtype == from_bin[key].dtype
        assert from_csv["patch_size"] == from_bin["patch_size"] == 8
        assert from_csv["theta_max"] == from_bin["theta_max"] == 1.5


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


def _reference_csv(header, columns) -> bytes:
    """The header and body rows with each value formatted on its own by str."""
    rows = zip(*[column.tolist() for column in columns])
    lines = [",".join(header)] + [",".join(str(x) for x in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


class TestSplitWriter:
    """Tables of two or more blocks are formatted by two processes, same bytes."""

    _FLOATS = [
        math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.0, -2.5e-300,
    ]
    _INTS = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 7]

    def _columns(self, n_rows):
        # np.resize repeats each list of values over n_rows
        floats = np.resize(np.array(self._FLOATS), n_rows)
        report = np.array(["fishrope", np.float64(0.1) * 3, 3, True, math.nan, -0.0, "a b"],
                          dtype=object)
        return [
            np.resize(np.array(self._INTS, dtype=np.int64), n_rows),
            floats,
            floats[::-1].copy(),
            (np.arange(n_rows) % 2).astype(np.uint8),
            np.resize(report, n_rows),
        ]

    @pytest.mark.parametrize("n_rows", [4, 5, 7, 9, 16])
    def test_split_and_in_process_bytes_identical(self, tmp_path, monkeypatch, n_rows):
        # 2-row blocks: 4 rows make the smallest split table, 7 rows an odd block count
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        header = ["i", "x", "y", "flag", "report"]
        columns = self._columns(n_rows)
        forks = _count_forks(monkeypatch)
        written = {}
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            path = tmp_path / f"{cores}.csv"
            formats._write_csv(path, ["# preamble"], header, columns)
            written[cores] = path.read_bytes()
        assert len(forks) == 1  # only the 2-core write split
        assert written[1] == written[2]
        assert written[2] == b"# preamble\n" + _reference_csv(header, columns)

    @pytest.mark.parametrize("n_rows", [0, 1, 3])
    def test_under_two_blocks_stays_in_process(self, tmp_path, monkeypatch, n_rows):
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        _cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        columns = [np.arange(n_rows), np.full(n_rows, 0.5)]
        formats._write_csv(tmp_path / "t.csv", [], ["i", "x"], columns)
        assert forks == []
        assert (tmp_path / "t.csv").read_bytes() == _reference_csv(["i", "x"], columns)

    def test_failed_child_raises(self, tmp_path, monkeypatch):
        # a value that cannot be formatted sits in the child's half only
        class Unprintable:
            def __str__(self):
                raise ValueError("unprintable")

        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        _cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        column = np.array([1, 2, 3, Unprintable()], dtype=object)
        with pytest.raises(FishropeError, match=r"rows 2\.\.4 .* failed"):
            formats._write_csv(tmp_path / "t.csv", [], ["x"], [column])
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_child_exits_1_with_one_line(self, calibration_path, tmp_path, monkeypatch,
                                               capsys):
        # the child cannot write its temporary file, as on a full disk
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        _cores(monkeypatch, 2)
        read_only = types.SimpleNamespace(TemporaryFile=lambda: open(os.devnull, "rb"))
        monkeypatch.setattr(_parallel, "tempfile", read_only)
        out = tmp_path / "lut.csv"
        argv = ["lut", "--calib", str(calibration_path), "--resolution", "16", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("failure: ") and "failed" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.iterdir()) == []  # neither lut.csv nor its temporary sibling

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        _cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        columns = [np.arange(9), np.linspace(0.0, 1.0, 9)]
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            formats._write_csv(tmp_path / "t.csv", [], ["i", "x"], columns)
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert forks == []
        assert (tmp_path / "t.csv").read_bytes() == _reference_csv(["i", "x"], columns)


def _float_bits(*bits) -> list[float]:
    return np.array(bits, dtype=np.uint64).view(np.float64).tolist()


class TestBlockFormatting:
    """Repeating numeric blocks format each distinct value once, with per-value bytes."""

    # Eight values with distinct keys per column.  Floats hold -0.0 beside
    # 0.0, NaNs of two payloads and a negative NaN, +-inf, subnormals, the
    # smallest normal and two floats one ulp apart.
    _VALUES = {
        "x": [-0.0, 0.0, math.inf, -math.inf, *_float_bits(0x7FF8000000000001,
              0x7FF4000000000000, 0xFFF8000000000000), 5e-324],
        "y": [1.0, math.nextafter(1.0, 2.0), 2.225073858507201e-308, 2.2250738585072014e-308,
              0.1 + 0.2, 0.3, -1e300, 1e-5],
        "i": [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1,
              np.iinfo(np.int64).min + 1, np.iinfo(np.int64).max - 1, 1, 7],
        "flag": [0, 255, 1, 2, 254, 3, 4, 5],
        "report": ["fishrope", np.float64(0.1) * 3, 3, True, math.nan, -0.0, "a b", None],
    }
    _DTYPES = {"x": np.float64, "y": np.float64, "i": np.int64, "flag": np.uint8,
               "report": object}
    # Indices into each column's values for 8-row blocks: exactly half
    # distinct, all distinct, half distinct, one over half, then a ragged
    # last block of 6 rows with 3 distinct.
    _BLOCKS = [
        ([0, 1, 2, 3, 0, 1, 2, 3], True),
        ([0, 1, 2, 3, 4, 5, 6, 7], False),
        ([4, 5, 6, 7, 5, 4, 7, 6], True),
        ([0, 1, 2, 3, 4, 0, 1, 2], False),
        ([7, 6, 7, 6, 5, 5], True),
    ]

    def _columns(self):
        index = np.concatenate([np.array(block) for block, _ in self._BLOCKS])
        return [
            np.array(self._VALUES[name], dtype=dtype)[index]
            for name, dtype in self._DTYPES.items()
        ]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_bytes_equal_per_value_str(self, tmp_path, monkeypatch, cores):
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 8)
        _cores(monkeypatch, cores)
        forks = _count_forks(monkeypatch)
        header, columns = list(self._DTYPES), self._columns()
        path = tmp_path / "t.csv"
        formats._write_csv(path, [], header, columns)
        assert len(forks) == cores - 1  # 38 rows: the child writes rows 16..38
        assert path.read_bytes() == _reference_csv(header, columns)

    def test_only_repeating_numeric_blocks_format_each_value_once(self, monkeypatch):
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        lo = 0
        for block, repeats in self._BLOCKS:
            for name, column in zip(self._DTYPES, self._columns()):
                part = column[lo : lo + len(block)]
                calls.clear()
                strs = formats._block_strs(part)
                assert strs == [str(v) for v in part.tolist()]
                assert len(calls) == (name != "report" and repeats), (name, block)
                if calls:  # one str object per distinct value, shared by its rows
                    assert len({id(s) for s in strs}) == len(set(block))
            lo += len(block)


def _anglemap_lines(rows, cols, pad=()) -> list[str]:
    """Lines of an angle-map CSV with NaN angles in every third (invalid) cell.

    Each cell in pad gets 400 trailing zeros on its theta, a long line that
    parses to the same float.
    """
    lines = [
        f"{formats._ANGLE_CSV_TAG} v{formats.FORMAT_VERSION} rows={rows} cols={cols} "
        "patch_size=8 theta_max=1.5",
        ",".join(formats._ANGLE_CSV_COLUMNS),
    ]
    for k in range(rows * cols):
        theta = f"{0.01 * k!r}" + "0" * (400 if k in pad else 0)
        angles = "nan,nan,0" if k % 3 == 2 else f"{theta},{-0.5 + 0.1 * k!r},1"
        lines.append(f"{k // cols},{k % cols},{angles}")
    return lines


def _first_child_line(lines) -> int:
    """Index in lines of the first line the split reader leaves to the child.

    The body is cut after the first newline at or past its byte midpoint.
    """
    body = "".join(line + "\n" for line in lines[2:]).encode()
    cut = body.index(b"\n", len(body) // 2) + 1
    return 2 + body[:cut].count(b"\n")


def _read_outcome(path):
    """read_anglemap_csv's arrays as bytes, or its FormatError's message."""
    try:
        back = formats.read_anglemap_csv(path)
    except FormatError as exc:
        return str(exc)
    return [back[k].tobytes() for k in ("theta", "phi", "valid")] + [
        back["patch_size"], back["theta_max"]
    ]


class TestSplitReader:
    """Bodies of two or more blocks are parsed by two processes, same bits and errors."""

    @staticmethod
    def _read_both(monkeypatch, path):
        """The one-process and the split outcome, and the forks each made."""
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        forks = _count_forks(monkeypatch)
        outcomes, counts = [], []
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcomes.append(_read_outcome(path))
            assert caught == []
            counts.append(len(forks))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return outcomes, [counts[0], counts[1] - counts[0]]

    @pytest.mark.parametrize(
        "rows, cols, pad, child_first",
        [
            (3, 5, (), None),  # 15 cells, odd, short lines on both sides of the cut
            (2, 2, (), None),  # the smallest split body, 4 cells
            (3, 5, (7,), 10),  # the cut lands right after a long line
            (3, 5, (0, 7), 9),  # the child's first line is a long one
        ],
    )
    def test_split_and_in_process_bits_identical(self, tmp_path, monkeypatch, rows, cols,
                                                 pad, child_first):
        lines = _anglemap_lines(rows, cols, pad)
        if child_first is not None:
            assert _first_child_line(lines) == child_first
        path = tmp_path / "angles.csv"
        path.write_text("".join(line + "\n" for line in lines))
        (whole, split), forks = self._read_both(monkeypatch, path)
        assert forks == [0, 1]
        assert not isinstance(whole, str)
        assert split == whole
        assert np.isnan(np.frombuffer(whole[0], dtype=np.float64)[2::3]).all()

    def test_written_grid_reads_back_the_same_on_two_cores(self, tmp_path, monkeypatch):
        grid = patch_angles(wide_camera(), 96)  # 11 x 11, odd, NaN outside the circle
        path = tmp_path / "angles.csv"
        formats.write_anglemap_csv(path, grid)
        (whole, split), forks = self._read_both(monkeypatch, path)
        assert forks == [0, 1] and split == whole
        assert whole[0] == grid.coords[..., 0].tobytes()
        assert whole[2] == grid.valid_mask.tobytes()

    @pytest.mark.parametrize(
        "edit",
        [
            "under-two-blocks",  # 3 cells
            "line-longer-than-a-buffer",  # no newline within io.DEFAULT_BUFFER_SIZE of the middle
            "lone-cr-header",  # tell() carries decoder state, not a byte offset
        ],
    )
    def test_no_fork_where_the_body_cannot_be_split(self, tmp_path, monkeypatch, edit):
        lines = _anglemap_lines(1, 3) if edit == "under-two-blocks" else _anglemap_lines(3, 5)
        text = "".join(line + "\n" for line in lines)
        if edit == "line-longer-than-a-buffer":
            text = text.replace("0.07,", "0.07" + "0" * 2 * io.DEFAULT_BUFFER_SIZE + ",")
        elif edit == "lone-cr-header":
            text = text.replace("\n", "\r", 2)
        path = tmp_path / "angles.csv"
        path.write_bytes(text.encode())
        (whole, split), forks = self._read_both(monkeypatch, path)
        assert forks == [0, 0]
        assert not isinstance(whole, str) and split == whole

    def test_pipe_is_read_in_one_process(self, tmp_path, monkeypatch):
        text = "".join(line + "\n" for line in _anglemap_lines(3, 5)).encode()
        plain, pipe = tmp_path / "angles.csv", tmp_path / "pipe.csv"
        plain.write_bytes(text)
        os.mkfifo(pipe)
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        _cores(monkeypatch, 2)
        writer = threading.Thread(target=pipe.write_bytes, args=(text,))
        writer.start()
        try:
            # the reader cannot tell() on a pipe; the writer thread also closes the gate
            from_pipe = _read_outcome(pipe)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert not isinstance(from_pipe, str) and from_pipe == _read_outcome(plain)

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_half_without_data_falls_back_without_a_warning(self, tmp_path, monkeypatch,
                                                            capfd, where):
        # long comment lines before or after the cells put one half among them
        lines = _anglemap_lines(2, 2)
        comments = ["# " + "x" * 200] * 4
        lines[2:2] = comments if where == "before" else []
        lines += comments if where == "after" else []
        path = tmp_path / "angles.csv"
        path.write_text("".join(line + "\n" for line in lines))
        (whole, split), forks = self._read_both(monkeypatch, path)
        assert forks == [0, 1]
        assert not isinstance(whole, str) and split == whole
        assert capfd.readouterr().err == ""  # nor did the child warn

    @staticmethod
    def _edit(lines, case) -> bytes:
        """The file's bytes with case's defect placed relative to the cut."""
        child = _first_child_line(lines)
        if case == "bad-field-in-child-half":
            lines[-1] = lines[-1].replace(",nan,", ",abc,", 1)
        elif case == "columns-change-across-the-cut":
            # a comment in place of the last comma keeps every line's length
            lines[child:] = ["#".join(line.rsplit(",", 1)) for line in lines[child:]]
        elif case == "one-column-before-the-cut":
            lines[2:child] = [line.replace(",", "#", 1) for line in lines[2:child]]
        elif case == "blank-line-at-the-cut":
            lines[child] = ""
        elif case == "whitespace-line-at-the-cut":
            lines[child] = "  "
        assert _first_child_line(lines) == child
        text = "".join(line + "\n" for line in lines).encode()
        if case == "truncated-body":
            return text[:-4]
        if case == "trailing-garbage":
            return text + b"0,0,garbage\n"
        if case.startswith("non-utf8-in-"):
            index = 2 if case.endswith("parent-half") else len(lines) - 1
            start = len("".join(line + "\n" for line in lines[:index]).encode())
            return text[:start] + b"\xff" + text[start + 1 :]
        return text

    @pytest.mark.parametrize(
        "case",
        [
            "bad-field-in-child-half",
            "columns-change-across-the-cut",
            "one-column-before-the-cut",
            "blank-line-at-the-cut",
            "whitespace-line-at-the-cut",
            "truncated-body",
            "non-utf8-in-parent-half",
            "non-utf8-in-child-half",
            "trailing-garbage",
        ],
    )
    def test_split_raises_the_in_process_error(self, tmp_path, monkeypatch, case):
        path = tmp_path / "angles.csv"
        path.write_bytes(self._edit(_anglemap_lines(3, 5), case))
        (whole, split), forks = self._read_both(monkeypatch, path)
        assert forks == [0, 1]
        assert isinstance(whole, str), whole
        assert split == whole


class _FullDisk:
    """A file whose n-th write raises ENOSPC, as when the disk fills part way."""

    def __init__(self, fh, fail_at):
        self._fh, self._left = fh, fail_at

    def write(self, data):
        self._left -= 1
        if self._left == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestReplacingOut:
    """Every --out writer replaces the file whole or leaves it as it was."""

    @pytest.mark.parametrize(
        "argv, fail_at",
        [
            (["lut", "--resolution", "16"], 3),  # header, one block of rows, then the disk is full
            (["lut", "--resolution", "16", "--format", "bin"], 2),  # after the header
            (["angles", "--patch-size", "64", "--format", "bin"], 2),
            (["selfcheck"], 1),
        ],
    )
    def test_failed_write_leaves_earlier_out_untouched(self, calibration_path, tmp_path,
                                                       monkeypatch, capsys, argv, fail_at):
        monkeypatch.setattr(formats, "CSV_BLOCK_ROWS", 2)
        _cores(monkeypatch, 1)  # the in-process path
        monkeypatch.setattr(
            formats, "open", lambda *a, **k: _FullDisk(open(*a, **k), fail_at), raising=False
        )
        out = tmp_path / "out"
        out.write_bytes(b"an earlier run\n")
        calib = [] if argv[0] == "selfcheck" else ["--calib", str(calibration_path)]
        assert main(argv + calib + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert out.read_bytes() == b"an earlier run\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_success_replaces_out_and_leaves_no_sibling(self, calibration_path, tmp_path):
        out = tmp_path / "lut.bin"
        out.write_bytes(b"an earlier run\n")
        assert main(["lut", "--calib", str(calibration_path), "--format", "bin",
                     "--resolution", "16", "--out", str(out)]) == 0
        assert formats.read_lut_bin(out).resolution == 16
        assert list(tmp_path.iterdir()) == [out]

    def test_symlinked_out_replaces_its_target(self, calibration_path, tmp_path):
        target, link = tmp_path / "lut.bin", tmp_path / "link.bin"
        target.write_bytes(b"an earlier run\n")
        link.symlink_to(target)
        assert main(["lut", "--calib", str(calibration_path), "--format", "bin",
                     "--resolution", "16", "--out", str(link)]) == 0
        assert link.is_symlink() and formats.read_lut_bin(target).resolution == 16
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_out_that_is_not_a_regular_file_is_written_in_place(self, calibration_path,
                                                                tmp_path):
        pipe, plain = tmp_path / "pipe", tmp_path / "lut.bin"
        os.mkfifo(pipe)
        keeper = os.open(pipe, os.O_RDWR | os.O_NONBLOCK)  # a reader, so writing never blocks
        try:
            for out in (pipe, plain):
                assert main(["lut", "--calib", str(calibration_path), "--format", "bin",
                             "--resolution", "16", "--out", str(out)]) == 0
            assert stat.S_ISFIFO(os.stat(pipe).st_mode)
            assert os.read(keeper, 1 << 16) == plain.read_bytes()
        finally:
            os.close(keeper)
        assert sorted(tmp_path.iterdir()) == [plain, pipe]

    def test_out_in_a_missing_directory_exits_3(self, calibration_path, tmp_path, capsys):
        out = tmp_path / "absent" / "lut.csv"
        assert main(["lut", "--calib", str(calibration_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestLibyamlParity:
    """libyaml's dumper and loader give the pure-Python classes' bytes and trees."""

    @staticmethod
    def _both_dumps(tree):
        return [yaml.dump(tree, Dumper=d, sort_keys=True)
                for d in (yaml.CSafeDumper, yaml.SafeDumper)]

    @pytest.mark.parametrize("name", ["bench.yaml", "lift.yaml", "selfcheck.yaml"])
    def test_default_reports_dump_to_equal_bytes(self, name):
        text = (REPO_ROOT / "results" / name).read_text(encoding="utf-8")
        c_dump, py_dump = self._both_dumps(yaml.load(text, Loader=yaml.SafeLoader))
        assert c_dump == py_dump == text

    def test_report_with_a_failure_note_dumps_to_equal_bytes(self):
        failed = CheckResult(
            name="rope.relative_identity",
            passed=False,
            measured=math.inf,
            tolerance=1e-12,
            note="failure: the process writing rows 4096..65536 of out/angles.csv failed "
            "(exit code 1); 'quoted', #hash, [brackets] and a long line to wrap",
        )
        report = SelfCheckReport(results=(failed,)).as_dict()
        c_dump, py_dump = self._both_dumps(formats._plain(report))
        assert c_dump == py_dump == formats.dump_report_yaml(report)
        assert yaml.load(c_dump, Loader=yaml.CSafeLoader)["checks"][0]["note"] == failed.note

    def test_loaders_parse_the_calibration_to_equal_dicts(self, calibration_path):
        text = calibration_path.read_text(encoding="utf-8")
        c_tree = yaml.load(text, Loader=yaml.CSafeLoader)
        assert c_tree == yaml.load(text, Loader=yaml.SafeLoader)
        assert c_tree["model"] == "kannala_brandt"


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
    def test_peak_memory_bounded_by_blocks(self, tmp_path, monkeypatch, write, make):
        artifact = make()
        path = tmp_path / "out.csv"
        _cores(monkeypatch, 2)  # split in two processes; this one formats half
        forks = _count_forks(monkeypatch)
        tracemalloc.start()
        try:
            write(path, artifact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Blocked: under 4 MiB.  Formatting every row at once peaks near
        # 25 MiB, and building the text in one buffer near 9 MiB.
        assert len(forks) == 1
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


def _csv_meta(field, value):
    """Set one `field=value` token of the angle-map CSV metadata line."""
    def mutate(lines):
        tokens = lines[0].split()
        index = [t.partition("=")[0] for t in tokens].index(field)
        tokens[index] = f"{field}={value}"
        lines[0] = " ".join(tokens)
    return mutate


# Binary header slots: 0 magic, 1 version, then the fields; angle-map cells
# start at value 8 as (theta, phi, valid).  CSV line 0 is the metadata, line
# 1 the column header, line 2 + k the k-th cell in row-major order.  Cell
# CENTER, the middle of the grid, is valid.
CENTER = GRID_DIMS * GRID_DIMS // 2
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
    "lut-bin-negative-r-max": ("lut_bin", _set(3, -1.0)),
    "lut-bin-zero-r-max": ("lut_bin", _set(3, 0.0)),
    "anglemap-bin-zero-patch-size": ("anglemap_bin", _set(4, 0.0)),
    "anglemap-bin-negative-theta-max": ("anglemap_bin", _set(5, -1.0)),
    "anglemap-bin-theta-max-below-body": ("anglemap_bin", _set(5, 0.5)),
    "anglemap-bin-negative-theta": ("anglemap_bin", _set(8 + 3 * CENTER, -0.1)),
    "anglemap-bin-nan-theta": ("anglemap_bin", _set(8 + 3 * CENTER, np.nan)),
    "anglemap-bin-phi-beyond-pi": ("anglemap_bin", _set(8 + 3 * CENTER + 1, 4.0)),
    "anglemap-csv-zero-patch-size": ("anglemap_csv", _csv_meta("patch_size", "0")),
    "anglemap-csv-negative-theta-max": ("anglemap_csv", _csv_meta("theta_max", "-1.0")),
    "anglemap-csv-theta-beyond-max": ("anglemap_csv", _csv_field(2 + CENTER, 2, "3.0")),
    "anglemap-csv-phi-beyond-pi": ("anglemap_csv", _csv_field(2 + CENTER, 3, "-4.0")),
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
# version and the counts the body length depends on), the count slots, and
# the slots that must be positive (patch_size, theta_max, r_max).
_ALWAYS_CHECKED = {"anglemap_bin": {0, 1, 2, 3}, "lut_bin": {0, 1, 2}}
_COUNT_SLOTS = {"anglemap_bin": {2, 3, 4}, "lut_bin": {2}}
_POSITIVE_SLOTS = {"anglemap_bin": {4, 5}, "lut_bin": {3, 4}}
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
            or (slot in _POSITIVE_SLOTS[kind] and value == -1.0)
        )
    path = root / f"fuzzed-{kind}"
    path.write_bytes(mutated)
    try:
        _read(kind, path)
    except FormatError:
        return
    assert not must_reject, f"{kind} accepted {mutation}"
