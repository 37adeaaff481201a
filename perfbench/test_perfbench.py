"""Tests of the benchmark itself: corrupted outputs count as failed ops.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import workloads  # noqa: E402

workloads.load_package(run.ROOT)


def _workload(name: str, tmp_path: Path):
    return workloads.WORKLOADS[name](run.ROOT, tmp_path, 0, workloads.load_expected())


def _flip_one_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def test_clean_op_passes(tmp_path):
    wl = _workload("retrieval", tmp_path)
    tally = run.Tally()
    run.measure_op(wl, 0, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert tally.work == 4096


@pytest.mark.parametrize("suffix", ["", ".csv"])
def test_corrupted_report_byte_is_a_failed_op(tmp_path, suffix):
    wl = _workload("retrieval", tmp_path)
    op = wl.op

    def corrupting_op(i):
        state = op(i)
        _flip_one_byte(Path(str(state[2]) + suffix), 40)
        return state

    wl.op = corrupting_op
    tally = run.Tally()
    run.measure_op(wl, 0, tally)
    run.measure_op(wl, 1, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.failed_frac() == 1.0
    assert tally.work == 0.0


def test_corrupted_artifact_byte_fails_read_back(tmp_path, monkeypatch):
    from fishrope import formats

    wl = _workload("artifacts", tmp_path)
    write_bin = formats.write_anglemap_bin

    def corrupting_write(path, grid):
        write_bin(path, grid)
        _flip_one_byte(Path(path), 8 * 8 + 3)  # first theta value, past the header

    monkeypatch.setattr(formats, "write_anglemap_bin", corrupting_write)
    tally = run.Tally()
    run.measure_op(wl, 0, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "angles.bin" in tally.errors[0]


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "retrieval", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
