"""The committed reference reports in results/ are what the code produces.

Regenerates the default `bench`, `lift` and `selfcheck` reports exactly
as scripts/run_experiments.py writes them and compares them byte for
byte with the tracked copies, so a change that moves any reported number or
serialization detail fails here.  The selfcheck's check names and
tolerances, and the scaled `lift` report's digests, must equal the ones
the benchmark checks its ops against in perfbench/expected.json.
"""

import importlib.util
import json
import pathlib

import pytest

from fishrope import cli, experiments, fixtures

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_script(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run_experiments():
    return _load_script("run_experiments", REPO_ROOT / "scripts" / "run_experiments.py")


def _expected():
    return json.loads((REPO_ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("experiment", ["bench", "lift", "selfcheck"])
def test_default_report_matches_results(run_experiments, tmp_path, experiment):
    if experiment == "selfcheck":
        run_experiments.write_selfcheck(tmp_path)
    else:
        getattr(run_experiments, f"write_{experiment}")(tmp_path, fixtures.wide_camera())
    tracked = sorted((REPO_ROOT / "results").glob(f"{experiment}.*"))
    assert [p.name for p in tracked] == sorted(p.name for p in tmp_path.iterdir())
    for path in tracked:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_selfcheck_checks_match_benchmark_expectation():
    checks = [[r.name, r.tolerance] for r in experiments.selfcheck(seed=0).results]
    assert checks == _expected()["selfcheck"]["checks"]


def test_scaled_lift_matches_benchmark_digests(tmp_path):
    # the benchmark's lift_scaled op at its first checker origin, where
    # logit_argmax streams about 264 logit tiles per encoding
    workloads = _load_script("perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    origin = workloads.CHECKER_ORIGINS[0]
    out = tmp_path / "lift.yaml"
    argv = ["lift", "--calib", str(REPO_ROOT / workloads.CALIBRATION), "--patch-size", "8"]
    argv += ["--resolution", "0.25", "--checker-origin", repr(origin[0]), repr(origin[1])]
    assert cli.main(argv + ["--out", str(out)]) == 0
    expected = _expected()["lift_scaled"][workloads.origin_key(origin)]
    for suffix, path in (("yaml", out), ("csv", tmp_path / "lift.yaml.csv")):
        assert workloads.sha256(path) == expected[f"{suffix}_sha256"], suffix
