import numpy as np
import pytest

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

    def test_attention_csv_layout(self, tmp_path):
        logits = np.array([[1.0, 2.0], [3.0, 4.0]])
        weights = np.array([[0.25, 0.75], [0.5, 0.5]])
        path = tmp_path / "attn.csv"
        formats.write_attention_csv(path, logits, weights)
        lines = path.read_text().splitlines()
        assert lines[0] == "q_index,k_index,logit,weight"
        assert lines[1] == "0,0,1.0,0.25"
        assert len(lines) == 5

    def test_csv_table_float_repr(self, tmp_path):
        path = tmp_path / "table.csv"
        value = 0.1 + 0.2  # 0.30000000000000004
        formats.write_csv_table(path, ["x"], [[value]])
        text = path.read_text().splitlines()[1]
        assert float(text) == value
