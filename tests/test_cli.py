import argparse
import contextlib
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fishrope import formats, patch_angles
from fishrope.angular import MAX_BEV_CELLS, MAX_PATCH_SIZE
from fishrope.camera import MAX_LUT_RESOLUTION, MAX_NEWTON_ITERATIONS
from fishrope.cli import _build_parser, main
from fishrope.experiments import MAX_BENCH_LOGITS, MAX_BENCH_QUERIES, MAX_FEATURE_DIM
from fishrope.fixtures import wide_camera
from fishrope.rope import ENCODINGS


@pytest.fixture
def calib(calibration_path):
    return str(calibration_path)


def _edited_calibration(calib, tmp_path, path, value) -> str:
    """A copy of the calibration at calib with the entry at key path set to value."""
    doc = yaml.safe_load(pathlib.Path(calib).read_text(encoding="utf-8"))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    edited = tmp_path / "edited.yaml"
    edited.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(edited)


def _assert_lines(text, lines):
    """text is exactly lines, each "<t>" in them matching a printed runtime."""
    got = text.splitlines()
    assert len(got) == len(lines), got
    for line, want in zip(got, lines):
        assert re.fullmatch(re.escape(want).replace(re.escape("<t>"), r"\d+\.\d\d"), line), line


# Every option each subcommand takes, in declaration order; the top-level
# parser takes -h alone, so every flag follows its subcommand.
_OPTIONS = {
    "angles": ["--calib", "--out", "--format", "--patch-size"],
    "lut": ["--calib", "--out", "--format", "--resolution"],
    "project": ["--calib", "--theta", "--phi"],
    "unproject": ["--calib", "--u", "--v", "--iterations"],
    "selfcheck": ["--seed", "--out"],
    "bench": ["--calib", "--out", "--seed", "--patch-size", "--n-queries", "--dim",
              "--encodings"],
    "lift": ["--calib", "--out", "--seed", "--patch-size", "--dim", "--extent",
             "--resolution", "--checker", "--checker-origin"],
}


def _taken(command, values) -> list[str]:
    """Each flag of values that command takes, followed by its value."""
    return [token for flag, value in values.items() if flag in _OPTIONS[command]
            for token in (flag, value)]


def _with_calib_and_out(argv, calib, out) -> list[str]:
    """argv followed by --calib and --out, each only where its command takes it."""
    return argv + _taken(argv[0], {"--calib": calib, "--out": str(out)})


class TestAngles:
    def test_csv_written_with_summary(self, calib, tmp_path, capsys):
        out = tmp_path / "angles.csv"
        code = main(["angles", "--calib", calib, "--out", str(out), "--patch-size", "64"])
        assert code == 0
        assert out.exists()
        summary = capsys.readouterr().out
        assert "16x16" in summary and "valid fraction" in summary

    @pytest.mark.parametrize(
        "patch_size, summary",
        [
            (4, "grid 256x256 theta range [0.017676, 1.657956] valid fraction 0.7676"),
            (14, "grid 74x74 theta range [0.008839, 1.657853] valid fraction 0.7515"),
        ],
    )
    def test_summary_line_pinned(self, calib, tmp_path, capsys, patch_size, summary):
        out = tmp_path / "angles.bin"
        argv = ["angles", "--calib", calib, "--out", str(out), "--format", "bin"]
        assert main(argv + ["--patch-size", str(patch_size)]) == 0
        assert capsys.readouterr().out == f"angle map: {summary} -> {out}\n"

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

    def test_unwritable_output_exits_3(self, calib, tmp_path, capsys):
        out = str(tmp_path / "no" / "dir" / "x.csv")
        code = main(["angles", "--calib", calib, "--out", out])
        assert code == 3
        # the error names --out, not the temporary sibling written beside it
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and out in err and ".tmp" not in err


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
            ["unproject", "--calib", calib, "--u", repr(float(u)), "--v", repr(float(v)),
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

    def test_exponent_form_negative_value(self, calib, capsys):
        argv = ["project", "--calib", calib, "--theta", "0.5"]
        assert main(argv + ["--phi=-1e-3"]) == 0
        expected = capsys.readouterr().out
        assert main(argv + ["--phi", "-1e-3"]) == 0
        assert capsys.readouterr().out == expected


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

    def test_bench_stdout_pinned(self, calib, tmp_path, capsys):
        out = tmp_path / "r.yaml"
        assert main(["bench", "--calib", calib, "--n-queries", "64", "--patch-size", "128",
                     "--encodings", "fishrope,none", "--out", str(out)]) == 0
        report = yaml.safe_load(out.read_text(encoding="utf-8"))
        scores = {s["encoding"]: s for s in report["results"]}
        lines = [
            f"bench[{enc}] top1={scores[enc]['top1_accuracy']:.4f} "
            f"periphery={scores[enc]['periphery_accuracy']:.4f} "
            f"mean_rank={scores[enc]['mean_rank']:.2f} (<t>s)"
            for enc in report["config"]["encodings"]
        ]
        _assert_lines(capsys.readouterr().out, lines + [f"report -> {out}"])

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

    def test_lift_stdout_pinned(self, calib, tmp_path, capsys):
        out = tmp_path / "r.yaml"
        assert main(["lift", "--calib", calib, "--extent", "16", "16", "--resolution", "1.0",
                     "--patch-size", "64", "--out", str(out)]) == 0
        report = yaml.safe_load(out.read_text(encoding="utf-8"))
        lines = [
            f"lift[{s['encoding']}] overall={s['overall_accuracy']:.4f} "
            f"peripheral={s['peripheral_accuracy']:.4f} (<t>s)"
            for s in report["results"]
        ]
        lines.append(
            f"report -> {out} (visible cells: {report['n_visible']}, keys: {report['n_keys']})"
        )
        _assert_lines(capsys.readouterr().out, lines)

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

    def test_lift_exponent_form_checker_origin(self, calib, tmp_path):
        args = ["lift", "--calib", calib, "--extent", "16", "16", "--resolution", "1.0",
                "--patch-size", "64", "--checker-origin"]
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        assert main(args + ["-1e5", "0", "--out", str(a)]) == 0
        assert main(args + ["-100000", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.yaml.csv").read_bytes() == (tmp_path / "b.yaml.csv").read_bytes()

    def test_lift_seed_is_only_recorded(self, calib, tmp_path):
        # lift draws nothing at random, so its seed moves no byte but its own
        args = ["lift", "--calib", calib, "--extent", "20", "20", "--resolution", "1",
                "--patch-size", "32"]
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        assert main(args + ["--seed", "0", "--out", str(a)]) == 0
        assert main(args + ["--seed", "5", "--out", str(b)]) == 0
        assert (tmp_path / "a.yaml.csv").read_bytes() == (tmp_path / "b.yaml.csv").read_bytes()
        lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
        assert len(lines_a) == len(lines_b)
        assert [(x, y) for x, y in zip(lines_a, lines_b) if x != y] == [
            ("  seed: 0", "  seed: 5")
        ]

    def test_lift_requires_extrinsics(self, tmp_path):
        stripped = tmp_path / "noext.yaml"
        formats.save_calibration(stripped, wide_camera())
        code = main(["lift", "--calib", str(stripped), "--out", str(tmp_path / "r.yaml")])
        assert code == 2


# `--help` of every command and of `fishrope` itself, at 80 columns.  The
# experiment commands' flag defaults come from the configs when the command
# runs, not from the parser.
_ANGLES_HELP = """\
usage: fishrope angles [-h] --calib CALIB --out OUT [--format {csv,bin}]
                       [--patch-size PATCH_SIZE]

options:
  -h, --help            show this help message and exit
  --calib CALIB         calibration file (YAML)
  --out OUT             output path
  --format {csv,bin}    artifact format
  --patch-size PATCH_SIZE
"""
_LUT_HELP = """\
usage: fishrope lut [-h] --calib CALIB --out OUT [--format {csv,bin}]
                    [--resolution RESOLUTION]

options:
  -h, --help            show this help message and exit
  --calib CALIB         calibration file (YAML)
  --out OUT             output path
  --format {csv,bin}    artifact format
  --resolution RESOLUTION
"""
_PROJECT_HELP = """\
usage: fishrope project [-h] --calib CALIB --theta THETA --phi PHI

options:
  -h, --help     show this help message and exit
  --calib CALIB  calibration file (YAML)
  --theta THETA
  --phi PHI
"""
_UNPROJECT_HELP = """\
usage: fishrope unproject [-h] --calib CALIB --u U --v V
                          [--iterations ITERATIONS]

options:
  -h, --help            show this help message and exit
  --calib CALIB         calibration file (YAML)
  --u U
  --v V
  --iterations ITERATIONS
"""
_SELFCHECK_HELP = """\
usage: fishrope selfcheck [-h] [--seed SEED] [--out OUT]

options:
  -h, --help   show this help message and exit
  --seed SEED  RNG seed
  --out OUT    report path; without it no report is written
"""
_BENCH_HELP = """\
usage: fishrope bench [-h] --calib CALIB --out OUT [--seed SEED]
                      [--patch-size PATCH_SIZE] [--n-queries N_QUERIES]
                      [--dim DIM] [--encodings ENCODINGS]

options:
  -h, --help            show this help message and exit
  --calib CALIB         calibration file (YAML)
  --out OUT             output path
  --seed SEED           RNG seed
  --patch-size PATCH_SIZE
  --n-queries N_QUERIES
  --dim DIM
  --encodings ENCODINGS
                        comma-separated subset of
                        none,sinusoidal,axial_rope,fishrope
"""
_LIFT_HELP = """\
usage: fishrope lift [-h] --calib CALIB --out OUT [--seed SEED]
                     [--patch-size PATCH_SIZE] [--dim DIM]
                     [--extent EXTENT EXTENT] [--resolution RESOLUTION]
                     [--checker CHECKER]
                     [--checker-origin CHECKER_ORIGIN CHECKER_ORIGIN]

options:
  -h, --help            show this help message and exit
  --calib CALIB         calibration file (YAML)
  --out OUT             output path
  --seed SEED           RNG seed
  --patch-size PATCH_SIZE
  --dim DIM
  --extent EXTENT EXTENT
  --resolution RESOLUTION
  --checker CHECKER     checker square size, m
  --checker-origin CHECKER_ORIGIN CHECKER_ORIGIN
                        checker square corner anchor, m
"""


_TOP_HELP = """\
usage: fishrope [-h] {angles,lut,project,unproject,selfcheck,bench,lift} ...

Fisheye camera geometry, angular rotary embeddings, BEV lifting.

positional arguments:
  {angles,lut,project,unproject,selfcheck,bench,lift}
    angles              emit a patch angle map
    lut                 emit an inverse lookup table
    project             project (theta, phi) to pixels
    unproject           invert pixels to (theta, phi)
    selfcheck           run every invariant check
    bench               run the retrieval benchmark
    lift                run the BEV round-trip

options:
  -h, --help            show this help message and exit
"""
_HELP = {
    "angles": _ANGLES_HELP, "lut": _LUT_HELP, "project": _PROJECT_HELP,
    "unproject": _UNPROJECT_HELP, "selfcheck": _SELFCHECK_HELP, "bench": _BENCH_HELP,
    "lift": _LIFT_HELP,
}


class TestHelp:
    @pytest.mark.parametrize("command, expected", list(_HELP.items()), ids=list(_HELP))
    def test_text_is_pinned(self, monkeypatch, capsys, command, expected):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["-h", "bench"]])
    def test_top_level_text_is_pinned(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == _TOP_HELP

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'angles', "
                        "'lut', 'project', 'unproject', 'selfcheck', 'bench', 'lift')"),
            (["--seed", "3", "selfcheck"],
             "argument command: invalid choice: '3' (choose from 'angles', 'lut', "
             "'project', 'unproject', 'selfcheck', 'bench', 'lift')"),
        ],
        ids=["no-command", "unknown-command", "flag-before-command"],
    )
    def test_command_error_is_pinned(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bench_help_lists_every_encoding(self):
        assert ",".join(ENCODINGS) in _BENCH_HELP.split()


def _built_subparsers(monkeypatch) -> list[str]:
    """The names of the subparsers built from now on, in build order."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return built


class TestParserBuild:
    """One parser, built on the first call, serves every call in the process."""

    def test_several_calls_build_the_parser_once(self, calib, tmp_path, monkeypatch):
        _build_parser.cache_clear()
        built = _built_subparsers(monkeypatch)
        assert main(["bench", "--calib", calib, "--out", str(tmp_path / "b.yaml")]) == 0
        assert main(["bogus"]) == 2
        with pytest.raises(SystemExit):
            main(["lut", "--help"])
        assert main(["unproject", "--calib", calib, "--u", "512", "--v", "512"]) == 0
        assert built == list(_OPTIONS)

    @pytest.mark.parametrize("first", ["parse-error", "help", "success"])
    def test_a_call_leaves_the_parser_as_a_fresh_one(self, calib, monkeypatch, capsys, first):
        # argparse stores nothing on the parser during a parse, so each call
        # after the first answers as it would on a parser of its own
        monkeypatch.setenv("COLUMNS", "80")
        project = ["project", "--calib", calib, "--theta", "0.5", "--phi"]
        calls = {
            "parse-error": project + ["x"],
            "help": ["bench", "--help"],
            "success": project + ["0.25"],
        }

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exit_info:
                code = f"exit {exit_info.code}"
            return code, capsys.readouterr()

        fresh = []
        for argv in calls.values():
            _build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _ in fresh] == [2, "exit 0", 0]
        _build_parser.cache_clear()
        run(calls[first])
        assert [run(argv) for argv in calls.values()] == fresh


_SHARED = ("--calib", "--out", "--format", "--seed")
# The further arguments each subcommand cannot run without.
_REQUIRED = {
    "angles": [], "lut": [], "project": ["--theta", "0.5", "--phi", "0"],
    "unproject": ["--u", "512", "--v", "512"], "selfcheck": [], "bench": [], "lift": [],
}


def _shared_values(calib, out) -> dict:
    return dict(zip(_SHARED, (calib, str(out), "bin", "3")))


def _option_strings(parser) -> list[str]:
    return [option for action in parser._actions for option in action.option_strings]


class TestSharedFlags:
    """Each subcommand takes only the shared flags its handler reads."""

    def test_options_of_every_parser_are_pinned(self):
        parser = _build_parser()
        assert _option_strings(parser) == ["-h", "--help"]
        (commands,) = [
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(commands) == list(_OPTIONS)
        for name, sub in commands.items():
            assert _option_strings(sub) == ["-h", "--help", *_OPTIONS[name]], name

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c in _OPTIONS for f in _SHARED if f in _OPTIONS[c]]
    )
    def test_shared_flag_before_the_subcommand(self, calib, tmp_path, capsys, command, flag):
        # a shared flag once parsed here too, and the subcommand's default then
        # replaced it: `--seed 3 selfcheck` ran seed 0 and exited 0
        values = _shared_values(calib, tmp_path / "r.out")
        value = values.pop(flag)
        argv = [flag, value, command, *_REQUIRED[command], *_taken(command, values)]
        message = f"argument command: invalid choice: {value!r}"
        TestInputContract._exits_2_with_one_line(argv, tmp_path / "r.out", capsys, message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c in _OPTIONS for f in _SHARED if f not in _OPTIONS[c]]
    )
    def test_shared_flag_the_command_does_not_read(self, calib, tmp_path, capsys, command,
                                                   flag):
        # each once parsed and was ignored, as in `project --out` or `bench --format`
        values = _shared_values(calib, tmp_path / "r.out")
        argv = [command, *_REQUIRED[command], *_taken(command, values), flag, values[flag]]
        message = f"unrecognized arguments: {flag} {values[flag]}"
        TestInputContract._exits_2_with_one_line(argv, tmp_path / "r.out", capsys, message)
        assert list(tmp_path.iterdir()) == []


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
            (["angles", "--patch-size"], MAX_PATCH_SIZE),
            (["lut", "--resolution"], MAX_LUT_RESOLUTION),
            (["bench", "--n-queries"], MAX_BENCH_QUERIES),
            (["bench", "--dim"], MAX_FEATURE_DIM),
            (["lift", "--dim"], MAX_FEATURE_DIM),
            (["unproject", "--u", "512", "--v", "512", "--iterations"], MAX_NEWTON_ITERATIONS),
        ],
        ids=[
            "angles-patch-size", "lut-resolution", "bench-n-queries", "bench-dim", "lift-dim",
            "unproject-iterations",
        ],
    )
    def test_flag_above_ceiling(self, calib, tmp_path, capsys, argv, limit):
        out = tmp_path / "r.out"
        argv = _with_calib_and_out(argv + [str(limit + 1)], calib, out)
        self._exits_2_with_one_line(argv, out, capsys, f"above the limit of {limit}")

    @pytest.mark.parametrize(
        "extra, pairs",
        [
            (["--patch-size", "1"], "n_queries 512 x 805368 keys"),
            (["--patch-size", "2", "--n-queries", "4096"], "n_queries 4096 x 201348 keys"),
        ],
        ids=["patch-size-1", "patch-size-2-queries-4096"],
    )
    def test_bench_logits_above_ceiling(self, calib, tmp_path, extra, pairs):
        # Each flag passes its own ceiling, but the dense logits would take 3 to
        # 6 GiB.  The run gets a 1.5 GB address-space limit, so a build without
        # the product ceiling fails its allocation instead of filling the host.
        out = tmp_path / "r.yaml"
        run = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, hard))\n"
            "from fishrope.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["bench", "--calib", calib, "--out", str(out)] + extra
        result = subprocess.run(
            [sys.executable, "-c", run, *argv], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 2, result.stderr
        err = result.stderr
        assert err.startswith("error: ") and pairs in err
        assert f"above the limit of {MAX_BENCH_LOGITS} logits" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["6", "0"])
    def test_lift_feature_dim(self, calib, tmp_path, capsys, dim):
        out = tmp_path / "r.yaml"
        argv = ["lift", "--calib", calib, "--out", str(out), "--dim", dim]
        self._exits_2_with_one_line(argv, out, capsys, "feature_dim")

    @pytest.mark.parametrize(
        "extent, message",
        [
            (["-5", "5"], "extent must be positive and finite, got (-5.0, 5.0)"),
            (["0", "5"], "extent must be positive and finite, got (0.0, 5.0)"),
            (["-1e5", "5"], "extent must be positive and finite, got (-100000.0, 5.0)"),
            (["0.1", "5"], "extent (0.1, 5.0) at resolution 0.5 rounds to (0, 10) cells"),
        ],
        ids=["negative", "zero", "negative-exponent", "rounds-to-zero"],
    )
    def test_lift_degenerate_extent(self, calib, tmp_path, capsys, extent, message):
        # each once exited with "grid dims must be positive", naming a derived field
        out = tmp_path / "r.yaml"
        argv = ["lift", "--calib", calib, "--out", str(out), "--extent"] + extent
        self._exits_2_with_one_line(argv, out, capsys, message)

    def test_lift_oversized_grid(self, calib, tmp_path, capsys):
        out = tmp_path / "r.yaml"
        argv = ["lift", "--calib", calib, "--out", str(out), "--resolution", "1e-9"]
        self._exits_2_with_one_line(argv, out, capsys, "above the limit")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["project", "--theta", "0.5", "--phi", "1e300"], "azimuth 1e+300 outside"),
            (["lift", "--checker-origin", "1e300", "0"], "checker square index -1e+299"),
            (["lift", "--checker", "1e-320"], "checker square index inf"),
            (["bench", "--encodings", "fishrope,fishrope"], "repeated encodings"),
            (
                ["lift", "--checker", "1e6", "--checker-origin", "-1000", "-1000"],
                "gives every visible BEV cell label 0",
            ),
            (
                ["lift", "--checker", "1e6", "--checker-origin", "-100000", "-100000"],
                "gives every image patch key label 0",
            ),
        ],
        ids=[
            "project-phi", "lift-checker-origin", "lift-checker", "bench-repeated",
            "lift-one-square-cells", "lift-one-square-keys",
        ],
    )
    def test_no_silent_result(self, calib, tmp_path, capsys, argv, message):
        # each once exited 0 with a meaningless pixel or score; numpy may not warn either
        out = tmp_path / "r.yaml"
        argv = _with_calib_and_out(argv, calib, out)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self._exits_2_with_one_line(argv, out, capsys, message)

    @pytest.mark.parametrize("command", ["bench", "lift", "selfcheck"])
    def test_negative_seed(self, calib, tmp_path, capsys, command):
        # bench and selfcheck once ended in numpy's traceback, lift in exit 0
        out = tmp_path / "r.yaml"
        argv = _with_calib_and_out([command, "--seed", "-1"], calib, out)
        self._exits_2_with_one_line(argv, out, capsys, "seed must be >= 0, got -1")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "--patch-size", "abc"], "invalid int value: 'abc'"),
            ([], "the following arguments are required: command"),
            (["project", "--theta", "0", "--phi", "0"],
             "the following arguments are required: --calib"),
            (["lift", "--calib", "absent.yaml"], "the following arguments are required: --out"),
            (["angles"], "the following arguments are required: --calib, --out"),
        ],
        ids=["bad-int", "no-argv", "no-calib", "no-out", "neither"],
    )
    def test_parse_error(self, tmp_path, capsys, argv, message):
        # argparse used to print a usage block and raise SystemExit
        self._exits_2_with_one_line(argv, tmp_path / "r.yaml", capsys, message)

    @pytest.mark.parametrize(
        "token", ["-1", "-0.5", "-.5", "-1e-3", "-1E+300", "-inf", "-Infinity", "-nan", "-1_000"]
    )
    def test_every_negative_float_token_is_a_value(self, token):
        float(token)
        parser = _build_parser()
        assert parser._negative_number_matcher.match(token)
        args = parser.parse_args(["project", "--calib", "c.yaml", "--theta", "0", "--phi", token])
        assert args.phi == float(token) or math.isnan(args.phi)

    def test_scalar_calibration_coeffs(self, calib, tmp_path, capsys):
        bad = _edited_calibration(calib, tmp_path, ("coeffs",), 5)
        out = tmp_path / "angles.csv"
        argv = ["angles", "--calib", bad, "--out", str(out)]
        self._exits_2_with_one_line(argv, out, capsys, "must be a list")

    @pytest.mark.parametrize(
        "path, value, commands, message",
        [
            (("extrinsics", "rotation", 4), math.nan, ["lift"], "must be finite"),
            (("extrinsics", "translation", 2), math.inf, ["lift"], "must be finite"),
            (("extrinsics", "rotation"), "abc", ["lift"], "'rotation' must be a list of 9"),
            (("extrinsics", "rotation"), {"a": 1}, ["lift"], "'rotation' must be a list of 9"),
            (("extrinsics",), 5, ["lift"], "'extrinsics' must be a mapping, got 5"),
            (("image_size", 0), 1024.7, ["angles", "lift"], "image size must be whole numbers"),
            (("image_size", 0), 1e12, ["angles", "bench", "lift"], f"limit of {MAX_BEV_CELLS}"),
            (("image_size", 1), 1e300, ["angles", "bench", "lift"], f"limit of {MAX_BEV_CELLS}"),
            (("coeffs", 1), 10**400, ["angles"], "'coeffs' must be a list of one or more"),
            (("theta_max",), 10**400, ["angles"], "'theta_max' must be a number"),
            (("extrinsics", "translation", 0), 10**400, ["lift"], "'translation' must be a list"),
        ],
        ids=[
            "rotation-nan", "translation-inf", "rotation-str", "rotation-mapping",
            "extrinsics-scalar", "fractional-size", "huge-size", "huger-size",
            "coeffs-huge-int", "theta-max-huge-int", "translation-huge-int",
        ],
    )
    def test_bad_calibration_entry(self, calib, tmp_path, capsys, path, value, commands,
                                   message):
        # each once ended in a traceback, in a numpy warning and exit 1, or, for
        # the fractional size, in exit 0 on a silently truncated image; the huge
        # sizes are refused before any patch array is built, and an int too
        # large for a float64 (10**400) before it reaches float()
        bad = _edited_calibration(calib, tmp_path, path, value)
        out = tmp_path / "r.out"
        for command in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                argv = [command, "--calib", bad, "--out", str(out)]
                self._exits_2_with_one_line(argv, out, capsys, message)

    @pytest.mark.parametrize("coeffs, theta_max", [([1e308, 1e308], 3.0), ([1.0, 1e308], 1.5)])
    def test_overflowing_coeffs(self, calib, tmp_path, capsys, coeffs, theta_max):
        # refused when the camera is built, before unproject could print NaN
        bad = _edited_calibration(calib, tmp_path, ("coeffs",), coeffs)
        bad = _edited_calibration(bad, tmp_path, ("theta_max",), theta_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["unproject", "--calib", bad, "--u", "11", "--v", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_angles_without_a_valid_patch(self, calib, tmp_path, capsys):
        # a run-time failure, as bench and lift report it, found before any
        # map is written
        bad = _edited_calibration(calib, tmp_path, ("theta_max",), 1.0e-300)
        out = tmp_path / "angles.csv"
        assert main(["angles", "--calib", bad, "--out", str(out), "--patch-size", "64"]) == 1
        err = capsys.readouterr().err
        assert err == "failure: no patch centers fall inside the image circle\n"
        assert not out.exists()


def _ints(low, high):
    """Edge-case integers, or one from [low, high] to bound the work per call."""
    return st.one_of(st.sampled_from([0, -1, -(2**63), 10**300]), st.integers(low, high))


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300]),
    st.floats(-2000.0, 2000.0),
)


def _at_least(low):
    """Edge-case floats, or one from [low, 1e4] to bound the work per call."""
    return st.one_of(
        st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-320]),
        st.floats(low, 1e4),
    )


def _decimals(low, high):
    return st.floats(low, high).map("{:.3f}".format)


def _pair(values):
    return st.tuples(values, values).map(list)


# A two-value flag cannot use `--flag=value`, so its values follow it as
# separate tokens, negative exponent forms among them.
_EDGE_PAIR = _pair(
    st.one_of(
        st.sampled_from(["nan", "inf", "1e300", "-1e+300", "-inf", "-1e-3"]),
        _decimals(-50.0, 50.0),
    )
)
_MULTIPLES_OF_4 = st.integers(1, 8).map(lambda n: 4 * n)


def _bench(patch, queries, dims, encodings, seeds):
    return st.builds(
        lambda p, n, d, e, s: ["bench", f"--patch-size={p}", f"--n-queries={n}", f"--dim={d}",
                               "--encodings=" + ",".join(e), "--seed", str(s)],
        patch, queries, dims, encodings, seeds,
    )


def _lift(patch, dims, resolution, checker, origin, seeds):
    return st.builds(
        lambda p, d, r, c, o, e, s: ["lift", f"--patch-size={p}", f"--dim={d}",
                                     f"--resolution={r!r}", f"--checker={c!r}",
                                     "--checker-origin", *o, "--extent", *e, "--seed", str(s)],
        patch, dims, resolution, checker, origin, _pair(_decimals(0.0, 40.0)), seeds,
    )


_FUZZED_ARGV = st.one_of(
    st.builds(lambda t, p: ["project", "--theta", repr(t), "--phi", repr(p)], _FLOATS, _FLOATS),
    st.builds(
        lambda u, v, n: ["unproject", "--u", repr(u), "--v", repr(v), "--iterations", str(n)],
        _FLOATS, _FLOATS, _ints(1, 1000),
    ),
    st.builds(lambda n: ["angles", "--format", "bin", f"--patch-size={n}"], _ints(16, 4096)),
    st.builds(lambda n: ["lut", "--format", "bin", f"--resolution={n}"], _ints(2, 2**16)),
)

# bench and lift each get a builder of mostly bad values and one of mostly
# good ones, so that some draws run to the end.  They have their own test so
# that their many flags do not take draws away from the four above.
_FUZZED_EXPERIMENT_ARGV = st.one_of(
    _bench(_ints(64, 4096), _ints(1, 64), _ints(1, 64),
           st.lists(st.sampled_from(ENCODINGS + ("learned", "")), max_size=5), _ints(0, 99)),
    _bench(st.integers(64, 256), st.integers(1, 64), _MULTIPLES_OF_4,
           st.lists(st.sampled_from(ENCODINGS), min_size=1, max_size=4, unique=True),
           st.integers(0, 99)),
    _lift(_ints(32, 4096), _ints(1, 64), _at_least(0.5), _at_least(1e-3), _EDGE_PAIR,
          _ints(0, 99)),
    _lift(st.integers(32, 256), _MULTIPLES_OF_4, st.floats(0.5, 4.0), st.floats(0.5, 20.0),
          _pair(_decimals(-50.0, 50.0)), st.integers(0, 99)),
)


def _keeps_the_exit_contract(calib, tmp_path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_with_calib_and_out(argv, calib, tmp_path / "artifact"))
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, (argv, err)
    # a flag the harness added wrongly would stop every example at the parser
    assert "unrecognized arguments" not in err, (argv, err)
    if code != 0:
        assert err.count("\n") == 1, (argv, err)


# calib and tmp_path are the same read-only file and output directory for
# every example, so sharing the function-scoped fixtures is safe.
def _fuzz_settings(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


@_fuzz_settings(120)
@given(argv=_FUZZED_ARGV)
def test_fuzzed_flags_keep_the_exit_contract(calib, tmp_path, argv):
    _keeps_the_exit_contract(calib, tmp_path, argv)


@_fuzz_settings(80)
@given(argv=_FUZZED_EXPERIMENT_ARGV)
def test_fuzzed_experiment_flags_keep_the_exit_contract(calib, tmp_path, argv):
    _keeps_the_exit_contract(calib, tmp_path, argv)


# Key paths into the fixture calibration: every field, at the top level or
# inside `extrinsics`, and single entries of its list fields.
_CALIBRATION_PATHS = [
    ("model",), ("coeffs",), ("principal_point",), ("theta_max",), ("image_size",),
    ("extrinsics",), ("extrinsics", "rotation"), ("extrinsics", "translation"),
    ("coeffs", 1), ("principal_point", 0), ("image_size", 0), ("image_size", 1),
    ("extrinsics", "rotation", 4), ("extrinsics", "translation", 2),
]
# No size here allocates: a huge image is refused before its patch grid is built.
_CALIBRATION_VALUES = [
    math.nan, math.inf, -1, 0, 1024.7, 1e12, 10**400, "abc", None, [], {}, 5
]


@_fuzz_settings(60)
@given(
    path=st.sampled_from(_CALIBRATION_PATHS), value=st.sampled_from(_CALIBRATION_VALUES)
)
def test_fuzzed_calibration_keeps_the_exit_contract(calib, tmp_path, path, value):
    bad = _edited_calibration(calib, tmp_path, path, value)
    for argv in (["angles", "--patch-size=64"], ["lift", "--patch-size=64", "--resolution=2"]):
        _keeps_the_exit_contract(bad, tmp_path, argv)


class TestSelfcheckCommand:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        out = tmp_path / "selfcheck.yaml"
        code = main(["selfcheck", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "PASS camera.round_trip.converged.theta[linear]" in stdout
        assert "all passed" in stdout
        assert out.exists()


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the thread count of numpy's bundled OpenBLAS after `first` runs,
# then the three variables; exits 3 where that OpenBLAS cannot be asked.
_BLAS_THREADS = """
import ctypes, glob, os, sys
{first}
import numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
try:
    count = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
except (IndexError, OSError, AttributeError):
    sys.exit(3)
print(count(), *(os.environ.get(name) for name in {names}))
"""


def test_cli_pins_blas_to_one_thread():
    # the CLI sets one BLAS thread before numpy loads, unless the caller set
    # a count; a caller who loaded numpy first keeps the library's default
    env = {name: value for name, value in os.environ.items() if name not in _THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )

    def threads(first):
        script = _BLAS_THREADS.format(first=first, names=_THREAD_VARS)
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        if run.returncode == 3:
            pytest.skip("numpy's OpenBLAS has no scipy_openblas_get_num_threads64_")
        assert run.returncode == 0, run.stderr
        return run.stdout.split()

    default = threads("pass")[0]
    assert threads("import fishrope.cli") == ["1", "1", "1", "1"]
    assert threads("import numpy, fishrope.cli")[0] == default
    env["OPENBLAS_NUM_THREADS"] = default
    assert threads("import fishrope.cli") == [default, default, "1", "1"]


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
