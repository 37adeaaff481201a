"""The committed reference reports in results/ are what the code produces.

Regenerates the default `bench` and `lift` reports exactly as
scripts/run_experiments.py writes them and compares them byte for byte
with the tracked copies, so a change that moves any reported number or
serialization detail fails here.  The selfcheck's check names and
tolerances must equal the ones the benchmark checks its ops against.
"""

import importlib.util
import json
import pathlib

import pytest

from fishrope import experiments, fixtures

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def run_experiments():
    path = REPO_ROOT / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("experiment", ["bench", "lift"])
def test_default_report_matches_results(run_experiments, tmp_path, experiment):
    writer = getattr(run_experiments, f"write_{experiment}")
    writer(tmp_path, fixtures.wide_camera())
    for suffix in ("yaml", "csv"):
        name = f"{experiment}.{suffix}"
        assert (tmp_path / name).read_bytes() == (REPO_ROOT / "results" / name).read_bytes(), name


def test_selfcheck_checks_match_benchmark_expectation():
    expected = json.loads((REPO_ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    checks = [[r.name, r.tolerance] for r in experiments.selfcheck(seed=0).results]
    assert checks == expected["selfcheck"]["checks"]
