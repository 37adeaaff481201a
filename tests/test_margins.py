"""No tile shape or BLAS kernel can move a pick of the default experiments.

The (q, k) of every logit product that the default `bench` (at the
benchmark's 16 seeds), the default `lift` and the benchmark's scaled
`lift` (patch 8, 0.25 m cells, first checker origin) multiply is
recorded, and every row's pick must clear its rounding margin
(tests/margins.py): the top key leads the runner-up, and in `bench` the
target leads or trails every other key, by more than any two summation
orders of q.k can put them apart.  Only `none`, whose probe products are
small integers and so exact, may tie.  The checker origin moves the
labels alone, never the (q, k), so the scaled scene's margins at its
first origin hold at all eight benchmark origins; two origins of the
default `lift` record identical products.  The bench's ground truth, the
argmax of a K = 3 product of ray directions, clears its margin too.  The
check needs no particular BLAS, so it runs on every host.
"""

import dataclasses

import numpy as np
import pytest

from fishrope import _products, experiments, fixtures, formats

from .conftest import CALIBRATION_FILE, REPO_ROOT
from .margins import exact_products, unsafe_rows
from .test_golden import _load_script


def _recorded_products(monkeypatch) -> list:
    """Record the (q, k) of every logit call, which still runs."""
    calls, tiles = [], _products.for_each_tile

    def record(q, k, fn, out=None):
        calls.append((q, k))
        return tiles(q, k, fn, out)

    monkeypatch.setattr(_products, "for_each_tile", record)
    return calls


@pytest.mark.parametrize("seed", range(16))
def test_bench_picks_and_target_ranks_clear_their_margins(monkeypatch, seed):
    # the default bench at every benchmark seed; logit_matrix scales by
    # 1/sqrt(16) = 1/4, which keeps every order and tie
    calls = _recorded_products(monkeypatch)
    camera, _ = formats.load_calibration(CALIBRATION_FILE)
    config = experiments.RetrievalBenchConfig(camera=camera, seed=seed)
    key_coords, _, query_sets, _ = experiments._bench_inputs(config)
    truths = dict(zip(("uniform", "periphery"), (truth for _, _, truth in query_sets)))
    key_dirs = experiments.ray_directions(key_coords)
    for query_set, (coords, _, truth) in zip(truths, query_sets):
        # the ground truth is itself a pick, of the nearest key direction
        query_dirs = experiments.ray_directions(coords)
        assert unsafe_rows(query_dirs, key_dirs).size == 0, (query_set, "truth")
        assert np.array_equal(np.argmax(query_dirs @ key_dirs.T, axis=1), truth)
    experiments.retrieval_bench(config)
    sets = [(e, s) for e in config.encodings for s in truths]
    assert len(calls) == len(sets) == 8
    for (encoding, query_set), (q, k) in zip(sets, calls):
        assert exact_products(q, k) == (encoding == "none"), encoding
        assert unsafe_rows(q, k).size == 0, (encoding, query_set)
        assert unsafe_rows(q, k, truths[query_set]).size == 0, (encoding, query_set, "ranks")


@pytest.mark.parametrize("scene", ["default", "scaled"])
def test_lift_picks_clear_their_margins(monkeypatch, scene):
    calls = _recorded_products(monkeypatch)
    camera, extrinsics = formats.load_calibration(CALIBRATION_FILE)
    pattern, config = fixtures.scene_pattern(), experiments.LiftConfig()
    if scene == "scaled":  # 9240 cells x 7472 keys
        workloads = _load_script("perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
        pattern = dataclasses.replace(pattern, origin=workloads.CHECKER_ORIGINS[0])
        config = experiments.LiftConfig(patch_size=8, resolution=0.25)
    experiments.bev_roundtrip(camera, extrinsics, pattern, config)
    assert len(calls) == len(config.encodings) == 2
    for encoding, (q, k) in zip(config.encodings, calls):
        assert not exact_products(q, k)
        assert unsafe_rows(q, k).size == 0, encoding


def test_lift_products_do_not_depend_on_the_checker_origin(monkeypatch):
    calls = _recorded_products(monkeypatch)
    camera, extrinsics = formats.load_calibration(CALIBRATION_FILE)
    workloads = _load_script("perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    for origin in (workloads.CHECKER_ORIGINS[0], workloads.CHECKER_ORIGINS[-1]):
        pattern = dataclasses.replace(fixtures.scene_pattern(), origin=origin)
        experiments.bev_roundtrip(camera, extrinsics, pattern, experiments.LiftConfig())
    assert len(calls) == 4
    for (q_a, k_a), (q_b, k_b) in zip(calls[:2], calls[2:]):
        assert np.array_equal(q_a, q_b) and np.array_equal(k_a, k_b)


def test_a_near_tie_is_unsafe_and_an_exact_tie_safe():
    q = np.array([[1.0, 0.5], [1.0, 0.0]])
    k = np.array([[0.3, 0.1], [0.3, np.nextafter(0.1, 1.0)], [-1.0, 0.0]])
    assert list(unsafe_rows(q, k)) == [0, 1]  # row 1 ties keys 0 and 1 exactly
    assert list(unsafe_rows(q, k, np.array([2, 2]))) == []
    assert list(unsafe_rows(q, k, np.array([0, 2]))) == [0]
    assert unsafe_rows(np.round(4 * q), np.round(4 * k)).size == 0  # exact integer ties
