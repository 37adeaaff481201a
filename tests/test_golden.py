"""The committed reference reports in results/ are what the code produces.

Regenerates the default `bench`, `lift` and `selfcheck` reports through
the CLI, as `fishrope <cmd> --out results/<cmd>.yaml` writes them (with
the repo calibration for `bench` and `lift`), and compares them byte for
byte with the tracked copies, so a change that moves any reported number or
serialization detail fails here; results/ holds those five files and no
other.  The selfcheck's check names and tolerances, and the digests of
the scaled `lift` report and of the default `bench` report at every
benchmark seed, must equal the ones the benchmark checks its ops against
in perfbench/expected.json.  The angle-map and LUT CSVs at the
benchmark's sizes are pinned by digest, the LUT's equal to the
benchmark's, and so is the bench report at one and at 4096 queries.
"""

import hashlib
import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from fishrope import cli, experiments, formats

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CALIBRATION = REPO_ROOT / "calibrations" / "synthetic_fisheye.yaml"


def _load_script(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expected():
    return json.loads((REPO_ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))


def _default_argv(experiment, out_dir):
    """The command line that writes results/<experiment>.yaml, into out_dir."""
    calib = [] if experiment == "selfcheck" else ["--calib", str(CALIBRATION)]
    return [experiment, *calib, "--out", str(out_dir / f"{experiment}.yaml")]


def _assert_matches_results(out_dir, experiment):
    tracked = sorted((REPO_ROOT / "results").glob(f"{experiment}.*"))
    assert [p.name for p in tracked] == sorted(p.name for p in out_dir.iterdir())
    for path in tracked:
        assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("experiment", ["bench", "lift", "selfcheck"])
def test_default_report_matches_results(tmp_path, experiment):
    assert cli.main(_default_argv(experiment, tmp_path)) == 0
    _assert_matches_results(tmp_path, experiment)


def test_results_holds_only_the_default_reports():
    # the YAML reports of the three commands above, and the CSV tables
    # that bench and lift write beside theirs at --out.csv
    names = ["bench.yaml", "bench.yaml.csv", "lift.yaml", "lift.yaml.csv", "selfcheck.yaml"]
    assert sorted(p.name for p in (REPO_ROOT / "results").iterdir()) == names


def _openblas_picks_its_kernel_at_run_time() -> bool:
    """True where numpy links an OpenBLAS built with DYNAMIC_ARCH on x86-64."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return (
        "openblas" in blas.get("name", "")
        and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
        and platform.machine().lower() in ("x86_64", "amd64")
    )


def _cli_under_kernel(coretype, argv):
    """Run `python -m fishrope.cli argv` with OpenBLAS forced to one core type."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "fishrope.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr


_KERNEL_AT_RUN_TIME = pytest.mark.skipif(
    not _openblas_picks_its_kernel_at_run_time(),
    reason="needs numpy on an x86-64 OpenBLAS built with DYNAMIC_ARCH",
)


@_KERNEL_AT_RUN_TIME
@pytest.mark.parametrize("experiment", ["bench", "lift", "selfcheck"])
def test_default_report_bytes_hold_under_a_kernel_without_fma(tmp_path, experiment):
    # bench and lift report argmax-based scores only, whose picks clear the
    # BLAS kernel's rounding; selfcheck's products of up to
    # _products.FIXED_ORDER_OUTPUTS outputs run in numpy's fixed order, not
    # in BLAS.  Prescott is OpenBLAS's oldest x86-64 kernel and has no FMA.
    _cli_under_kernel("Prescott", _default_argv(experiment, tmp_path))
    _assert_matches_results(tmp_path, experiment)


_SELFCHECK_DIGESTS = """
import hashlib
from fishrope import experiments, formats
for seed in range(16):
    text = formats.dump_report_yaml(experiments.selfcheck(seed).as_dict())
    print(hashlib.sha256(text.encode()).hexdigest())
"""


@_KERNEL_AT_RUN_TIME
def test_selfcheck_digests_hold_under_every_kernel():
    # the benchmark's 16 selfcheck seeds under each non-default kernel: with
    # FMA and without (Haswell; Sandybridge, Prescott), small-matrix path or
    # not.  One subprocess per kernel, all running while this process
    # computes its own digests.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    runs = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", _SELFCHECK_DIGESTS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(env, OPENBLAS_CORETYPE=kernel),
        )
        for kernel in ("Haswell", "Sandybridge", "Prescott")
    }
    try:
        here = [
            hashlib.sha256(
                formats.dump_report_yaml(experiments.selfcheck(seed).as_dict()).encode()
            ).hexdigest()
            for seed in range(16)
        ]
        for kernel, run in runs.items():
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0, err
            assert out.split() == here, kernel
    finally:
        for run in runs.values():
            if run.poll() is None:
                run.kill()
            run.communicate()


@_KERNEL_AT_RUN_TIME
def test_default_and_scaled_report_bytes_hold_under_a_kernel_without_small_gemm(tmp_path):
    # Haswell has FMA but no small-matrix GEMM path, so it rounds the cut
    # logit tiles the way it rounds every other product; the default and
    # scaled report bytes must hold under it too
    for experiment in ("bench", "lift"):
        out_dir = tmp_path / experiment
        out_dir.mkdir()
        _cli_under_kernel("Haswell", _default_argv(experiment, out_dir))
        _assert_matches_results(out_dir, experiment)
    argv, expected = _scaled_lift()
    out = tmp_path / "scaled" / "lift.yaml"
    out.parent.mkdir()
    _cli_under_kernel("Haswell", argv + ["--out", str(out)])
    _assert_matches_digests(out, expected)


# sha256 of the CSV artifacts at the benchmark's sizes, and of the default
# angle map, as written when every value was formatted on its own.
ARTIFACT_CSV_SHA256 = {
    "angles-4": ("angles --patch-size 4",
                 "e5aaee7e06776eb03c9151cdf065cd4e2a36026b38d374cec7501415fd5aa241"),
    "angles-14": ("angles --patch-size 14",
                  "7898c7dff0eea07361eb9818460546f564d1f6337bc572b9db0cbfd6034bcf77"),
    "lut-65536": ("lut --resolution 65536",
                  "f4384f2e3a9969929504d790266cfd7b28784b66c7b63f502cd24b25e11e0ffa"),
}


@pytest.mark.parametrize("name", ARTIFACT_CSV_SHA256)
def test_artifact_csv_bytes_hold(tmp_path, name):
    command, digest = ARTIFACT_CSV_SHA256[name]
    out = tmp_path / f"{name}.csv"
    argv = command.split() + ["--format", "csv", "--calib", str(CALIBRATION), "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the bench report and CSV at the edge sizes of its one logit
# buffer: a one-row product, and 4096 rows cut into 14 tiles, which two
# threads write where two cores are usable.
EDGE_BENCH_SHA256 = {
    1: {"yaml_sha256": "0e24c2bc60edd99cbb3a9d1a4fadb0e98ffb43adf8d924108f6e585b03ca3035",
        "csv_sha256": "152eaa9532f3d25734ecb4bdf4272de4c9b68d05e064b68b87eb6b60d5abc5a3"},
    4096: {"yaml_sha256": "20910c013b4566dad14a57123b9ed9c72b48ec2e3454afb0e8f4dc0c60c058cc",
           "csv_sha256": "1b7022f1bf9d218bd8a75a764754239a63592d5d0e93919dde99192b37873504"},
}


@pytest.mark.parametrize("n_queries", EDGE_BENCH_SHA256)
def test_edge_size_bench_bytes_hold(tmp_path, n_queries):
    out = tmp_path / "bench.yaml"
    argv = ["bench", "--calib", str(CALIBRATION), "--out", str(out)]
    assert cli.main(argv + ["--n-queries", str(n_queries)]) == 0
    _assert_matches_digests(out, EDGE_BENCH_SHA256[n_queries])


def test_lut_csv_pin_is_the_benchmark_digest():
    assert ARTIFACT_CSV_SHA256["lut-65536"][1] == _expected()["artifacts"]["lut_csv_sha256"]


def test_selfcheck_checks_match_benchmark_expectation():
    checks = [[r.name, r.tolerance] for r in experiments.selfcheck(seed=0).results]
    assert checks == _expected()["selfcheck"]["checks"]


def _scaled_lift():
    """The benchmark's lift_scaled op at its first checker origin: argv and digests."""
    workloads = _load_script("perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    origin = workloads.CHECKER_ORIGINS[0]
    argv = ["lift", "--calib", str(REPO_ROOT / workloads.CALIBRATION), "--patch-size", "8"]
    argv += ["--resolution", "0.25", "--checker-origin", repr(origin[0]), repr(origin[1])]
    return argv, _expected()["lift_scaled"][workloads.origin_key(origin)]


def _assert_matches_digests(out, expected):
    """out and the CSV beside it have the sha256 digests recorded in expected."""
    for suffix, path in (("yaml", out), ("csv", out.with_name(out.name + ".csv"))):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == expected[f"{suffix}_sha256"], suffix


def test_scaled_lift_matches_benchmark_digests(tmp_path):
    # the benchmark's lift_scaled op at its first checker origin, where
    # logit_argmax streams 1155 logit tiles of 8 rows per encoding
    argv, expected = _scaled_lift()
    out = tmp_path / "lift.yaml"
    assert cli.main(argv + ["--out", str(out)]) == 0
    _assert_matches_digests(out, expected)


@pytest.mark.parametrize("seed", sorted(_expected()["retrieval"], key=int))
def test_bench_matches_benchmark_digests(tmp_path, seed):
    # the benchmark's retrieval op: the default bench at one recorded seed
    out = tmp_path / "bench.yaml"
    assert cli.main(["bench", "--calib", str(CALIBRATION), "--seed", seed, "--out", str(out)]) == 0
    _assert_matches_digests(out, _expected()["retrieval"][seed])
