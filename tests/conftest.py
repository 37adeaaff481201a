import os
import pathlib
import threading

import pytest

from fishrope import fixtures

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CALIBRATION_FILE = REPO_ROOT / "calibrations" / "synthetic_fisheye.yaml"


@pytest.fixture(autouse=True)
def no_thread_or_child_outlives_the_test():
    """Every thread a test starts is joined, and every child it forks is reaped."""
    threads = threading.active_count()
    yield
    assert threading.active_count() == threads, "a thread outlived the test"
    try:
        leaked = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # this process has no child
        leaked = None
    assert leaked is None, f"a child process outlived the test: {leaked}"


@pytest.fixture
def linear_camera():
    return fixtures.linear_camera()


@pytest.fixture
def k2_camera():
    return fixtures.k2_camera()


@pytest.fixture
def wide_camera():
    return fixtures.wide_camera()


@pytest.fixture
def calibration_path():
    assert CALIBRATION_FILE.exists(), "run scripts/make_fixture_camera.py"
    return CALIBRATION_FILE
