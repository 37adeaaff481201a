"""The package imports lazily: a module runs only when a command uses it.

Every name the benchmark's trace wraps exists in the package, and the
test oracles take nothing from it but public fishrope.rope names.
"""

import ast
import importlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fishrope

from .conftest import REPO_ROOT
from .test_golden import _load_script

# Modules that only angles, selfcheck, bench and lift use.
_EXPERIMENT_MODULES = ("experiments", "attention", "rope", "angular", "fixtures", "_products")
# Layers whose modules perfbench/spans.py reads from sys.modules; it reads
# cli's only after importing it, as every caller of cli.main does.
_TRACED_LAYERS = ("formats", "camera", "angular", "rope", "attention", "experiments")
# A README statement `module.NAME` = value, the value written plainly or as a^b.
_README_CONSTANT = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)` = (\d+(?:\.\d+)?)(?:\^(\d+))?")


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_public_name_resolves_and_is_listed():
    listed = dir(fishrope)
    for name in fishrope.__all__:
        assert getattr(fishrope, name) is not None
        assert name in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fishrope.no_such_name


def test_every_module_but_the_entry_points_loads_lazily():
    # cli is the `python -m fishrope.cli` entry point and __main__ runs it
    package = Path(fishrope.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert modules == set(fishrope._LAZY_MODULES)


def test_cli_project_runs_no_experiment_module(calibration_path):
    result = _run_fresh(
        f"""
        import sys, types
        import fishrope
        missing = [m for m in {_TRACED_LAYERS!r} if f"fishrope.{{m}}" not in sys.modules]
        assert not missing, missing
        import fishrope.cli
        assert fishrope.cli.main(
            ["project", "--calib", {str(calibration_path)!r}, "--theta", "0.5", "--phi", "0.25"]
        ) == 0
        # type() reads no attribute, so it cannot load a lazy module.
        ran = [m for m in {_EXPERIMENT_MODULES!r}
               if type(sys.modules[f"fishrope.{{m}}"]) is types.ModuleType]
        assert not ran, ran
        """
    )
    assert result.returncode == 0, result.stderr


def test_every_name_the_trace_wraps_exists():
    # perfbench/spans.py skips a name it cannot find, so a rename would
    # drop its span from a traced run without an error; only the scalar
    # rope functions, which the package no longer has, may be missing
    spans = _load_script("perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    missing = {
        (module, name)
        for module, name in spans._module_functions()
        if not hasattr(importlib.import_module(f"fishrope.{module}"), name)
    }
    assert missing <= {("rope", name) for name in spans.SCALAR_ROPE}, missing
    camera = importlib.import_module("fishrope.camera")
    for cls, method, _ in spans._METHODS:
        assert method in vars(getattr(camera, cls)), (cls, method)


def test_readme_constants_match_the_package():
    # a constant changed in the code and not in README.md fails here
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    stated = _README_CONSTANT.findall(readme)
    assert len(stated) >= 10, stated
    for module, name, value, power in stated:
        number = float(value) ** int(power) if power else float(value)
        actual = getattr(importlib.import_module(f"fishrope.{module}"), name)
        assert actual == number, (f"{module}.{name}", actual, value + (f"^{power}" if power else ""))


@pytest.mark.parametrize("helper", ["oracles", "margins"])
def test_oracles_use_public_rope_names_only(helper):
    # the test helpers restate the package; the public fishrope.rope names
    # are all they may take from it, so a private helper they share with
    # the code under test cannot hide a fault from both
    tree = ast.parse((REPO_ROOT / "tests" / f"{helper}.py").read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [
                (alias.name, alias.asname or alias.name.split(".")[0]) for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported = [
                (f"{node.module}.{alias.name}", alias.asname or alias.name) for alias in node.names
            ]
        else:
            continue
        for name, local in imported:
            if name.split(".")[0] == "fishrope":
                assert name == "fishrope.rope" or name.startswith("fishrope.rope."), name
                assert not name.split(".")[-1].startswith("_"), name
                bound.add(local)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            assert not (isinstance(root, ast.Name) and root.id in bound), ast.unparse(node)
