"""The one core count, the fork gate and the thread fan-out in fishrope._parallel."""

import errno
import os
import threading
import time
import types

import numpy as np
import pytest

from fishrope import _parallel, formats, selfcheck
from fishrope.cli import main


def _cores(monkeypatch, n):
    """Make the fork gate and the tile pool, every reader of the core count, see n cores."""
    monkeypatch.setattr(_parallel, "usable_cores", lambda: n)


def _count_forks(monkeypatch) -> list:
    """Record each os.fork call made in this process; the fork still happens."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _count_starts(monkeypatch) -> list:
    """Record each Thread.start call made in this process; the thread still starts."""
    calls, start = [], threading.Thread.start

    def counted(thread):
        calls.append(1)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return calls


def _refuse(monkeypatch, what: str) -> list:
    """Make os.fork or the fork helper's TemporaryFile raise EAGAIN; record each call."""
    calls = []

    def refused(*args, **kwargs):
        calls.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    if what == "os.fork":
        monkeypatch.setattr(os, "fork", refused)
    else:
        monkeypatch.setattr(_parallel, "tempfile", types.SimpleNamespace(TemporaryFile=refused))
    return calls


class TestUsableCores:
    """The core count the tile pool and the fork gate share."""

    def test_affinity_set_when_the_platform_has_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _parallel.usable_cores() == 3

    @pytest.mark.parametrize("count, cores", [(6, 6), (None, 1)])
    def test_host_count_without_affinity(self, monkeypatch, count, cores):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _parallel.usable_cores() == cores

    def test_one_core_selfcheck_forks_nothing_and_starts_no_thread(self, monkeypatch):
        forks, starts = _count_forks(monkeypatch), _count_starts(monkeypatch)
        _cores(monkeypatch, 2)
        two = formats.dump_report_yaml(selfcheck().as_dict())
        assert len(forks) == 1 and starts  # both counters see what two cores run
        forks.clear()
        starts.clear()
        _cores(monkeypatch, 1)
        assert formats.dump_report_yaml(selfcheck().as_dict()) == two
        assert forks == [] and starts == []


class TestForkThatCannotStart:
    """A temporary file or fork refused before any child exists closes the gate."""

    @pytest.mark.parametrize("refused", ["os.fork", "TemporaryFile"])
    @pytest.mark.parametrize("command", ["selfcheck", "angles"])
    def test_cli_exits_0_with_the_one_core_bytes(self, calibration_path, tmp_path, monkeypatch,
                                                capsys, command, refused):
        # patch size 4 makes a 256 x 256 map, a CSV of 16 blocks
        argv = {
            "selfcheck": ["selfcheck"],
            "angles": ["angles", "--calib", str(calibration_path), "--patch-size", "4"],
        }[command]
        _cores(monkeypatch, 1)
        assert main([*argv, "--out", str(tmp_path / "alone")]) == 0
        _cores(monkeypatch, 2)
        calls = _refuse(monkeypatch, refused)
        assert main([*argv, "--out", str(tmp_path / "refused")]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().err == ""
        assert (tmp_path / "refused").read_bytes() == (tmp_path / "alone").read_bytes()

    @pytest.mark.parametrize("refused", ["os.fork", "TemporaryFile"])
    def test_reader_gives_the_one_core_arrays(self, calibration_path, tmp_path, monkeypatch,
                                              refused):
        path = tmp_path / "angles.csv"
        argv = ["angles", "--calib", str(calibration_path), "--patch-size", "4"]
        assert main([*argv, "--out", str(path)]) == 0
        _cores(monkeypatch, 1)
        alone = formats.read_anglemap_csv(path)
        _cores(monkeypatch, 2)
        calls = _refuse(monkeypatch, refused)
        back = formats.read_anglemap_csv(path)
        assert len(calls) == 1
        assert back.keys() == alone.keys()
        for key, value in alone.items():
            np.testing.assert_array_equal(back[key], value, strict=True)


def _refuse_every_other_start(monkeypatch) -> list:
    """Let the 1st, 3rd, ... Thread.start through and refuse the rest; record each call."""
    calls, start = [], threading.Thread.start

    def alternate(thread):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise RuntimeError("can't start new thread")
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", alternate)
    return calls


class TestFanOut:
    """Every worker runs once; a worker whose thread cannot start runs on the caller."""

    def test_refused_workers_run_on_the_calling_thread(self, monkeypatch):
        calls = _refuse_every_other_start(monkeypatch)
        on_caller = {}

        def work(w):
            on_caller[w] = threading.current_thread() is threading.main_thread()

        _parallel.fan_out(work, 5)
        assert len(calls) == 4
        assert on_caller == {0: True, 1: False, 2: True, 3: False, 4: True}

    def test_refused_workers_error_is_raised_after_every_worker_ran(self, monkeypatch):
        _refuse_every_other_start(monkeypatch)
        ran = []

        def work(w):
            ran.append(w)
            if w == 2:
                raise ValueError("worker 2 failed")

        with pytest.raises(ValueError, match="worker 2 failed"):
            _parallel.fan_out(work, 4)
        assert sorted(ran) == [0, 1, 2, 3]

    def test_every_thread_is_joined_before_an_error_is_raised(self):
        finished = []

        def work(w):
            if w == 0:
                raise ValueError("worker 0 failed")
            time.sleep(0.05)  # still running when worker 0 has raised
            finished.append(w)

        with pytest.raises(ValueError, match="worker 0 failed"):
            _parallel.fan_out(work, 2)
        assert finished == [1]
