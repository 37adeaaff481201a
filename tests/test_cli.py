import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

from fishrope import formats, patch_angles
from fishrope.camera import MAX_LUT_RESOLUTION, MAX_NEWTON_ITERATIONS
from fishrope.cli import main
from fishrope.experiments import MAX_BENCH_QUERIES, MAX_FEATURE_DIM
from fishrope.fixtures import wide_camera


@pytest.fixture
def calib(calibration_path):
    return str(calibration_path)


class TestAngles:
    def test_csv_written_with_summary(self, calib, tmp_path, capsys):
        out = tmp_path / "angles.csv"
        code = main(["angles", "--calib", calib, "--out", str(out), "--patch-size", "64"])
        assert code == 0
        assert out.exists()
        summary = capsys.readouterr().out
        assert "16x16" in summary and "valid fraction" in summary

    def test_emitted_csv_matches_in_memory_grid(self, calib, tmp_path):
        out = tmp_path / "angles.csv"
        assert main(["angles", "--calib", calib, "--out", str(out), "--patch-size", "32"]) == 0
        back = formats.read_anglemap_csv(out)
        grid = patch_angles(wide_camera(), 32)
        assert np.array_equal(back["theta"], grid.coords[..., 0], equal_nan=True)
        assert np.array_equal(back["phi"], grid.coords[..., 1], equal_nan=True)
        assert np.array_equal(back["valid"], grid.valid_mask)

    def test_default_patch_size_is_14(self, calib, tmp_path):
        out = tmp_path / "angles.csv"
        assert main(["angles", "--calib", calib, "--out", str(out)]) == 0
        assert formats.read_anglemap_csv(out)["patch_size"] == 14

    def test_binary_format_selectable(self, calib, tmp_path):
        out = tmp_path / "angles.bin"
        code = main(
            ["angles", "--calib", calib, "--out", str(out), "--patch-size", "64",
             "--format", "bin"]
        )
        assert code == 0
        assert formats.read_anglemap_bin(out)["patch_size"] == 64

    def test_unsupported_model_exits_2(self, tmp_path):
        bad = tmp_path / "pinhole.yaml"
        bad.write_text("model: pinhole\n")
        code = main(["angles", "--calib", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_calibration_exits_2(self, tmp_path):
        code = main(["angles", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unwritable_output_exits_3(self, calib, tmp_path):
        code = main(
            ["angles", "--calib", calib, "--out", str(tmp_path / "no" / "dir" / "x.csv")]
        )
        assert code == 3


class TestLut:
    def test_binary_roundtrip_matches_rebuild(self, calib, tmp_path):
        out = tmp_path / "lut.bin"
        code = main(
            ["lut", "--calib", calib, "--out", str(out), "--resolution", "512",
             "--format", "bin"]
        )
        assert code == 0
        back = formats.read_lut_bin(out)
        rebuilt = wide_camera().build_lut(512)
        assert np.array_equal(back.entries, rebuilt.entries)
        assert back.r_max == rebuilt.r_max

    def test_resolution_one_exits_2(self, calib, tmp_path):
        code = main(["lut", "--calib", calib, "--out", str(tmp_path / "l.bin"),
                     "--resolution", "1"])
        assert code == 2


class TestProjectUnproject:
    def test_project_prints_pixel(self, calib, capsys):
        assert main(["project", "--calib", calib, "--theta", "0.5", "--phi", "0.0"]) == 0
        u, v = capsys.readouterr().out.split()
        cam = wide_camera()
        eu, ev = cam.project(0.5, 0.0)
        assert float(u) == eu and float(v) == ev

    def test_unproject_inverts_project(self, calib, capsys):
        cam = wide_camera()
        u, v = cam.project(0.9, 1.25)
        code = main(
            ["unproject", "--calib", calib, "--u", repr(u), "--v", repr(v),
             "--iterations", "50"]
        )
        assert code == 0
        theta, phi = (float(x) for x in capsys.readouterr().out.split())
        assert theta == pytest.approx(0.9, abs=1e-9)
        assert phi == pytest.approx(1.25, abs=1e-9)

    def test_theta_out_of_range_exits_2(self, calib):
        assert main(["project", "--calib", calib, "--theta", "3.0", "--phi", "0.0"]) == 2

    def test_pixel_outside_circle_exits_2(self, calib):
        assert main(["unproject", "--calib", calib, "--u", "1024", "--v", "1024"]) == 2


class TestBenchAndLift:
    def test_bench_deterministic_reports(self, calib, tmp_path):
        args = ["bench", "--calib", calib, "--n-queries", "64", "--patch-size", "128",
                "--seed", "7"]
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.yaml.csv").read_bytes() == (tmp_path / "b.yaml.csv").read_bytes()
        assert b"runtime" not in a.read_bytes()

    def test_bench_rejects_unknown_encoding(self, calib, tmp_path):
        code = main(["bench", "--calib", calib, "--out", str(tmp_path / "r.yaml"),
                     "--encodings", "fishrope,learned"])
        assert code == 2

    def test_lift_deterministic_reports_with_region_table(self, calib, tmp_path):
        args = ["lift", "--calib", calib, "--extent", "16", "16", "--resolution", "1.0",
                "--patch-size", "64"]
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        table = (tmp_path / "a.yaml.csv").read_text().splitlines()
        assert table[0] == "encoding,region,accuracy,n_cells"
        regions = {line.split(",")[1] for line in table[1:]}
        assert {"overall", "inner", "mid", "outer"} <= regions

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--resolution", "0"], "resolution must be positive"),
            (["--checker", "0"], "checker square must be positive"),
            (["--checker", "-1"], "checker square must be positive"),
        ],
    )
    def test_lift_bad_geometry_exits_2_with_one_line(self, calib, tmp_path, capsys,
                                                      extra, message):
        out = tmp_path / "r.yaml"
        args = ["lift", "--calib", calib, "--patch-size", "64", "--out", str(out)]
        assert main(args + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_missing_calibration_file_exits_3(self, tmp_path, capsys):
        out = tmp_path / "r.yaml"
        argv = ["bench", "--calib", str(tmp_path / "absent.yaml"), "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_lift_requires_extrinsics(self, tmp_path):
        stripped = tmp_path / "noext.yaml"
        formats.save_calibration(stripped, wide_camera())
        code = main(["lift", "--calib", str(stripped), "--out", str(tmp_path / "r.yaml")])
        assert code == 2


class TestInputContract:
    """Bad input exits 2 with a one-line error and writes nothing."""

    @staticmethod
    def _exits_2_with_one_line(argv, out, capsys, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--patch-size", "5000"], "retrieval needs at least 2"),
            (["--encodings", ","], "at least one encoding"),
        ],
    )
    def test_bench_degenerate_config(self, calib, tmp_path, capsys, extra, message):
        out = tmp_path / "r.yaml"
        argv = ["bench", "--calib", calib, "--out", str(out)] + extra
        self._exits_2_with_one_line(argv, out, capsys, message)

    def test_lift_single_key(self, calib, tmp_path, capsys):
        out = tmp_path / "r.yaml"
        argv = ["lift", "--calib", calib, "--out", str(out), "--patch-size", "5000"]
        self._exits_2_with_one_line(argv, out, capsys, "lift needs at least 2")

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["lut", "--resolution"], MAX_LUT_RESOLUTION),
            (["bench", "--n-queries"], MAX_BENCH_QUERIES),
            (["bench", "--dim"], MAX_FEATURE_DIM),
            (["lift", "--dim"], MAX_FEATURE_DIM),
            (["unproject", "--u", "512", "--v", "512", "--iterations"], MAX_NEWTON_ITERATIONS),
        ],
        ids=["lut-resolution", "bench-n-queries", "bench-dim", "lift-dim", "unproject-iterations"],
    )
    def test_flag_above_ceiling(self, calib, tmp_path, capsys, argv, limit):
        out = tmp_path / "r.out"
        argv = argv + [str(limit + 1), "--calib", calib, "--out", str(out)]
        self._exits_2_with_one_line(argv, out, capsys, f"above the limit of {limit}")

    @pytest.mark.parametrize("dim", ["6", "0"])
    def test_lift_feature_dim(self, calib, tmp_path, capsys, dim):
        out = tmp_path / "r.yaml"
        argv = ["lift", "--calib", calib, "--out", str(out), "--dim", dim]
        self._exits_2_with_one_line(argv, out, capsys, "feature_dim")

    def test_lift_oversized_grid(self, calib, tmp_path, capsys):
        out = tmp_path / "r.yaml"
        argv = ["lift", "--calib", calib, "--out", str(out), "--resolution", "1e-9"]
        self._exits_2_with_one_line(argv, out, capsys, "above the limit")

    def test_scalar_calibration_coeffs(self, calib, tmp_path, capsys):
        doc = yaml.safe_load(pathlib.Path(calib).read_text(encoding="utf-8"))
        doc["coeffs"] = 5
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        out = tmp_path / "angles.csv"
        argv = ["angles", "--calib", str(bad), "--out", str(out)]
        self._exits_2_with_one_line(argv, out, capsys, "must be a list")


class TestSelfcheckCommand:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        out = tmp_path / "selfcheck.yaml"
        code = main(["selfcheck", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "PASS camera.round_trip.converged.theta[linear]" in stdout
        assert "all passed" in stdout
        assert out.exists()


def test_module_entrypoint_smoke(calib, tmp_path):
    # the CLI is reachable as a module; exercises the console path end to end
    result = subprocess.run(
        [sys.executable, "-m", "fishrope.cli", "project", "--calib", calib,
         "--theta", "0.1", "--phi", "0.0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert len(result.stdout.split()) == 2
