import ast
import dataclasses
import inspect
import math
import os
import pathlib
import threading

import numpy as np
import pytest

from fishrope import (
    AttentionConfig,
    CheckerPattern,
    ConfigError,
    EmptyOverlapError,
    Extrinsics,
    LiftConfig,
    ProjectionWeights,
    RetrievalBenchConfig,
    RotaryConfig,
    bev_roundtrip,
    relative_logit,
    retrieval_bench,
    selfcheck,
)
from fishrope import _products, angular, attention, experiments, formats, rope
from fishrope.camera import DEFAULT_LUT_RESOLUTION, InverseLut, KannalaBrandtCamera
from fishrope.cli import main
from fishrope.experiments import (
    check_relative_identity,
    ground_intersections,
    probe_feature,
    ray_directions,
)
from fishrope.fixtures import (
    downward_extrinsics,
    linear_camera,
    scene_extrinsics,
    scene_pattern,
    wide_camera,
)
from fishrope.formats import dump_report_yaml
from fishrope.rope import rotated_logit

from .conftest import CALIBRATION_FILE
from .oracles import (
    argmax_with_random_ties_loop,
    norm_preservation_loop,
    ranks_of_loop,
    relative_identity_loop,
    rotation_composition_loop,
    self_logit_margin_loop,
)
from .test_parallel import _cores, _count_forks, _count_starts

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SELFCHECK_YAML = REPO_ROOT / "results" / "selfcheck.yaml"


def tie_heavy_logits(rng, n_rows=300, n_cols=40):
    """Rows with no ties, some ties at the peak, and rows that tie everywhere."""
    rows = rng.standard_normal((n_rows, n_cols))
    coarse = rng.integers(0, 4, (n_rows, n_cols)).astype(float)
    rows[::3] = coarse[::3]
    rows[::17] = 0.5
    return rows


class TestProbeAndRays:
    def test_probe_is_unit_in_every_plane(self):
        probe = probe_feature(12)
        pairs = probe.reshape(-1, 2)
        np.testing.assert_allclose(np.linalg.norm(pairs, axis=1), 1.0)

    def test_probe_dim_validation(self):
        with pytest.raises(ConfigError):
            probe_feature(7)

    def test_ray_directions_unit_norm_and_axis(self):
        coords = np.array([[0.0, 0.0], [math.pi / 2, 0.0], [1.0, -2.0]])
        dirs = ray_directions(coords)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(dirs[0], [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(dirs[1], [1.0, 0.0, 0.0], atol=1e-15)

    def test_ground_intersections_straight_down(self):
        ext = downward_extrinsics(2.0)
        coords = np.array([[0.0, 0.0], [math.atan(0.5), 0.0]])
        points, hit = ground_intersections(coords, ext)
        assert hit.all()
        np.testing.assert_allclose(points[0], [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(points[1], [1.0, 0.0, 0.0], atol=1e-12)

    def test_rays_missing_ground_are_flagged(self):
        # oblique camera: a ray above the horizon never meets the plane
        ext = scene_extrinsics()
        up_coord = np.array([[1.657, -math.pi / 2]])  # near the rim, sky side
        _, hit = ground_intersections(up_coord, ext)
        assert not hit[0]


class TestRetrievalBench:
    def test_report_is_deterministic(self):
        config = RetrievalBenchConfig(camera=wide_camera(), n_queries=64, patch_size=128)
        a = dump_report_yaml(retrieval_bench(config).as_dict())
        b = dump_report_yaml(retrieval_bench(config).as_dict())
        assert a == b

    def test_seed_changes_draws(self):
        base = RetrievalBenchConfig(camera=wide_camera(), n_queries=64, patch_size=128)
        other = RetrievalBenchConfig(
            camera=wide_camera(), n_queries=64, patch_size=128, seed=1
        )
        assert dump_report_yaml(retrieval_bench(base).as_dict()) != dump_report_yaml(
            retrieval_bench(other).as_dict()
        )

    def test_encoding_none_is_chance_level(self):
        report = retrieval_bench(
            RetrievalBenchConfig(camera=wide_camera(), encodings=("none",))
        )
        score = report.score("none")
        chance = 1.0 / report.n_keys
        # binomial noise bound: ~4 sigma over 512 queries
        sigma = math.sqrt(chance * (1.0 - chance) / 512)
        assert abs(score.top1_accuracy - chance) < 4 * sigma + 1e-9

    def test_wide_fixture_frozen_scores(self):
        report = retrieval_bench(RetrievalBenchConfig(camera=wide_camera()))
        assert report.n_keys == 208
        assert not report.degenerate_camera
        fish = report.score("fishrope")
        axial = report.score("axial_rope")
        none = report.score("none")
        # frozen regression values from the seeded run
        assert fish.top1_accuracy == pytest.approx(0.97265625, abs=1e-12)
        assert axial.top1_accuracy == pytest.approx(0.923828125, abs=1e-12)
        assert fish.periphery_accuracy == pytest.approx(1.0, abs=1e-12)
        assert axial.periphery_accuracy == pytest.approx(0.93359375, abs=1e-12)
        # ordering targeted by the mechanism benchmark
        assert fish.top1_accuracy >= axial.top1_accuracy >= none.top1_accuracy
        assert fish.periphery_accuracy > axial.periphery_accuracy

    def test_linear_camera_flagged_degenerate_and_frozen(self):
        # distortion-free model: polar-vs-Cartesian differences cap the
        # probe retrieval accuracy; value frozen from the seeded run
        report = retrieval_bench(
            RetrievalBenchConfig(
                camera=linear_camera(), patch_size=25, encodings=("fishrope",)
            )
        )
        assert report.degenerate_camera
        assert report.extent_ratio == pytest.approx(1.0, abs=1e-9)
        fish = report.score("fishrope")
        assert fish.top1_accuracy == pytest.approx(0.86328125, abs=1e-12)
        assert fish.top1_accuracy >= 0.85
        assert fish.mean_rank < 1.5

    def test_bench_ranking_matches_relative_logit(self):
        # thin-wrapper consistency: bench logits reproduce the relative form
        config = RetrievalBenchConfig(
            camera=linear_camera(), patch_size=50, n_queries=16, encodings=("fishrope",)
        )
        kc, key_px, query_sets, _ = experiments._bench_inputs(config)
        qc = query_sets[0][0]
        out = np.empty((config.n_queries, len(kc)))
        logits = next(experiments._bench_logits(config, "fishrope", kc, key_px, query_sets, out))
        probe = probe_feature(config.feature_dim)
        rcfg = RotaryConfig(dim=config.feature_dim)
        tau = 1.0 / math.sqrt(config.feature_dim)
        recomputed = np.array(
            [
                [
                    tau
                    * relative_logit(
                        probe, probe, (kc[k, 0] - qc[q, 0], kc[k, 1] - qc[q, 1]), rcfg
                    )
                    for k in range(logits.shape[1])
                ]
                for q in range(logits.shape[0])
            ]
        )
        np.testing.assert_allclose(logits, recomputed, atol=1e-12)
        np.testing.assert_array_equal(
            np.argsort(-logits, axis=1), np.argsort(-recomputed, axis=1)
        )

    @pytest.mark.parametrize("seed", [0, 7, 15])
    def test_bench_products_equal_fresh_logit_matrices(self, monkeypatch, seed):
        # the bench projects each encoding's keys once and fills one reused
        # buffer; every fill equals logit_matrix over freshly built grids
        fills, tiles = [], _products.for_each_tile

        def record(q, k, fn, out=None):
            tiles(q, k, fn, out)
            fills.append((out, out.copy()))  # the next fill overwrites out

        monkeypatch.setattr(_products, "for_each_tile", record)
        camera, _ = formats.load_calibration(CALIBRATION_FILE)
        config = RetrievalBenchConfig(camera=camera, seed=seed)
        retrieval_bench(config)
        monkeypatch.undo()
        assert len(fills) == 8
        assert all(out is fills[0][0] for out, _ in fills)
        key_coords, key_px, query_sets, _ = experiments._bench_inputs(config)
        weights = ProjectionWeights.identity(config.feature_dim)
        products = [(e, s) for e in config.encodings for s in query_sets]
        for (encoding, (coords, px, _)), (_, filled) in zip(products, fills):
            def tokens(at, at_px):
                return experiments._probe_tokens(encoding, at, at_px, camera, config.feature_dim)

            att = AttentionConfig(head_dim=config.feature_dim, encoding=encoding)
            queries, keys = tokens(coords, px), tokens(key_coords, key_px)
            assert np.array_equal(filled, attention.logit_matrix(queries, keys, weights, att))

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetrievalBenchConfig(camera=wide_camera(), n_queries=0)
        with pytest.raises(ConfigError):
            RetrievalBenchConfig(camera=wide_camera(), encodings=("bogus",))
        with pytest.raises(ConfigError, match="repeated encodings"):
            RetrievalBenchConfig(camera=wide_camera(), encodings=("fishrope", "fishrope"))
        with pytest.raises(ConfigError):
            RetrievalBenchConfig(camera=wide_camera(), feature_dim=10)


def _targets_and_perm(rng, rows):
    return rng.integers(0, rows.shape[1], rows.shape[0]), rng.permutation(rows.shape[1])


class TestSelection:
    """experiments._select against the per-row loops in tests/oracles.py."""

    @staticmethod
    def _assert_matches_loops(rows, targets, perm, seed):
        fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        chosen, ranks = experiments._select(rows, targets, perm, fast_rng)
        assert np.array_equal(chosen, argmax_with_random_ties_loop(rows, loop_rng))
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
        assert np.array_equal(ranks, ranks_of_loop(rows, targets, perm))

    def test_random_tie_argmax_matches_loop_and_rng_stream(self):
        rows = tie_heavy_logits(np.random.default_rng(11))
        targets, perm = _targets_and_perm(np.random.default_rng(111), rows)
        self._assert_matches_loops(rows, targets, perm, 12)

    def test_random_tie_argmax_without_ties_draws_nothing(self):
        rows = np.random.default_rng(13).standard_normal((50, 20))
        targets, perm = _targets_and_perm(np.random.default_rng(113), rows)
        rng = np.random.default_rng(14)
        before = rng.bit_generator.state
        chosen, ranks = experiments._select(rows, targets, perm, rng)
        assert np.array_equal(chosen, np.argmax(rows, axis=1))
        assert rng.bit_generator.state == before
        assert np.array_equal(ranks, ranks_of_loop(rows, targets, perm))

    def test_ranks_match_loop(self):
        rng = np.random.default_rng(15)
        rows = tie_heavy_logits(rng)
        targets, perm = _targets_and_perm(rng, rows)
        self._assert_matches_loops(rows, targets, perm, 115)

    @pytest.mark.parametrize(
        "rows",
        [
            np.full((512, 208), 0.25),  # what `none` gives: every key ties
            # every key ties within its row, at a level of the row's own
            np.repeat(np.random.default_rng(27).standard_normal((300, 1)), 208, axis=1),
            np.array([[1.0, 3.0, 3.0, 0.0, 1.0, 0.0]]),  # every logit ties one other
            np.array([[2.0], [2.0], [-1.0]]),
        ],
        ids=["all_equal", "level_per_row", "one_row", "one_column"],
    )
    def test_edge_shapes_match_loops(self, rows):
        targets, perm = _targets_and_perm(np.random.default_rng(17), rows)
        self._assert_matches_loops(rows, targets, perm, 16)

    def test_mixed_targets_match_loops(self):
        # single-peak, tied-peak and below-peak targets in one matrix; fewer
        # than half sit below their peak, so those rows are gathered
        rng = np.random.default_rng(21)
        rows = tie_heavy_logits(rng, n_rows=60, n_cols=12)
        peak = rows.max(axis=1, keepdims=True)
        targets = np.array([rng.choice(np.flatnonzero(row == row.max())) for row in rows])
        below = np.flatnonzero(peak[:, 0] > rows.min(axis=1))[::3]
        targets[below] = np.argmin(rows[below], axis=1)
        perm = rng.permutation(rows.shape[1])
        counts = np.count_nonzero(rows == peak, axis=1)
        at = np.ones(len(rows), bool)
        at[below] = False
        assert np.any(at & (counts == 1)) and np.any(at & (counts > 1))
        assert 0 < below.size < len(rows) / 2
        self._assert_matches_loops(rows, targets, perm, 22)

    def test_every_target_below_its_peak_matches_loops(self):
        # targets at each row's minimum, where coarse rows tie at both ends
        rng = np.random.default_rng(23)
        rows = tie_heavy_logits(rng, n_rows=60, n_cols=12)
        rows = rows[rows.max(axis=1) > rows.min(axis=1)]
        targets = np.argmin(rows, axis=1)
        perm = rng.permutation(rows.shape[1])
        assert np.count_nonzero(rows == rows[np.arange(len(rows)), targets][:, None]) > len(rows)
        self._assert_matches_loops(rows, targets, perm, 24)

    def test_nan_row_draws_nothing(self):
        rows = tie_heavy_logits(np.random.default_rng(18))
        nan_row, nan_col = 6, 3  # row 6 ties at its peak before the NaN goes in
        assert np.count_nonzero(rows[nan_row] == rows[nan_row].max()) > 1
        rows[nan_row, nan_col] = np.nan
        others = np.arange(rows.shape[0]) != nan_row
        rng = np.random.default_rng(20)
        targets, perm = _targets_and_perm(rng, rows)
        targets[nan_row] = nan_col + 1
        fast_rng, loop_rng = np.random.default_rng(19), np.random.default_rng(19)
        fast, ranks = experiments._select(rows, targets, perm, fast_rng)
        # The loop oracle has no peak to index in a NaN row, so it sees the
        # other rows only; equal states show the NaN row took no draw.
        assert np.array_equal(fast[others], argmax_with_random_ties_loop(rows[others], loop_rng))
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
        assert fast[nan_row] == 0
        # The NaN never ranks ahead of a finite target, as under lexsort.
        assert np.array_equal(ranks, ranks_of_loop(rows, targets, perm))

    @pytest.mark.parametrize("n_below", [5, 30], ids=["gathered", "whole_matrix"])
    def test_fully_tied_rows_among_partial_nan_and_below_peak_rows(self, n_below):
        # every fifth row ties all its keys; the coarse rows between have
        # single and tied peaks, n_below of them with the target at the
        # minimum, and row 2 holds a NaN
        rng = np.random.default_rng(29)
        rows = rng.integers(0, 3, (48, 10)).astype(float)
        full = np.arange(0, 48, 5)
        rows[full] = rng.standard_normal((full.size, 1))
        counts = np.count_nonzero(rows == rows.max(axis=1, keepdims=True), axis=1)
        targets = np.argmax(rows, axis=1)
        below = np.flatnonzero(counts < rows.shape[1])[:n_below]
        targets[below] = np.argmin(rows[below], axis=1)
        nan_row = 2
        rows[nan_row, 4] = np.nan
        perm = rng.permutation(rows.shape[1])
        fine = np.arange(len(rows)) != nan_row
        at_peak = rows[np.arange(len(rows)), targets] == rows.max(axis=1)
        partly_tied = (counts > 1) & (counts < rows.shape[1]) & fine
        assert np.any(at_peak & partly_tied) and np.any(~at_peak & partly_tied)
        assert np.any(at_peak & (counts == 1))
        assert (2 * np.count_nonzero(~at_peak) > len(rows)) == (n_below == 30)
        fast_rng, loop_rng = np.random.default_rng(30), np.random.default_rng(30)
        chosen, ranks = experiments._select(rows, targets, perm, fast_rng)
        # The loop oracle has no peak to index in the NaN row; equal states
        # show that row took no draw.
        assert np.array_equal(chosen[fine], argmax_with_random_ties_loop(rows[fine], loop_rng))
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
        assert chosen[nan_row] == 0
        assert np.array_equal(ranks, ranks_of_loop(rows, targets, perm))
        assert np.array_equal(ranks[full], 1 + perm[targets[full]])

    def test_nan_target_keeps_other_rows_tie_break(self):
        # Row 0's NaN target equals nothing; row 1's target ties one other key.
        rows = np.array([[np.nan, 1.0, 2.0], [1.0, 1.0, 0.0]])
        targets, perm = np.array([0, 1]), np.arange(3)
        _, ranks = experiments._select(rows, targets, perm, np.random.default_rng(0))
        assert ranks[1] == ranks_of_loop(rows[1:], targets[1:], perm)[0] == 2
        assert ranks[0] == 1

    def test_nan_target_beside_one_level_tie(self):
        # Row 1's target ties one other key below the peak; row 0's NaN
        # target adds no level entry, so the one tie still takes the perm pass.
        rows = np.array([[np.nan, 1.0, 2.0], [1.0, 0.0, 0.0]])
        targets, perm = np.array([0, 1]), np.array([2, 1, 0])
        _, ranks = experiments._select(rows, targets, perm, np.random.default_rng(0))
        assert ranks[1] == ranks_of_loop(rows[1:], targets[1:], perm)[0] == 3
        assert ranks[0] == 1

    @pytest.mark.parametrize("others", ["at_peak", "below_peak"])
    def test_nan_target_in_a_tied_row(self, others):
        # Row 4's peak ties before its target turns NaN.  The other rows'
        # targets sit at or below their peaks, so the NaN row is gathered
        # with a few rows or compared with the whole matrix.
        rng = np.random.default_rng(25)
        rows = rng.integers(0, 3, (9, 7)).astype(float)
        rows[4] = [2.0, 1.0, 2.0, 0.0, 2.0, 1.0, 0.0]
        peak = rows.max(axis=1, keepdims=True)
        pick = np.argmax if others == "at_peak" else np.argmin
        targets = pick(rows, axis=1)
        targets[4] = 2
        rows[4, 2] = np.nan
        perm = rng.permutation(rows.shape[1])
        fine = np.arange(len(rows)) != 4
        n_below = np.count_nonzero(rows[fine, targets[fine]] < peak[fine, 0])
        assert (2 * (n_below + 1) > len(rows)) == (others == "below_peak")
        fast_rng, loop_rng = np.random.default_rng(26), np.random.default_rng(26)
        chosen, ranks = experiments._select(rows, targets, perm, fast_rng)
        assert np.array_equal(chosen[fine], argmax_with_random_ties_loop(rows[fine], loop_rng))
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
        assert chosen[4] == 0 and ranks[4] == 1
        assert np.array_equal(ranks[fine], ranks_of_loop(rows[fine], targets[fine], perm))


class TestBevRoundtrip:
    def test_fixture_scene_frozen_scores(self):
        report = bev_roundtrip(
            wide_camera(), scene_extrinsics(), scene_pattern(), LiftConfig()
        )
        fish = report.score("fishrope")
        axial = report.score("axial_rope")
        assert report.n_visible == 2280
        assert fish.overall_accuracy == pytest.approx(0.9328947368421052, abs=1e-12)
        assert fish.peripheral_accuracy == pytest.approx(0.9707602339181286, abs=1e-12)
        assert axial.peripheral_accuracy == pytest.approx(0.9605263157894737, abs=1e-12)
        assert fish.overall_accuracy > 0.9
        assert fish.peripheral_accuracy > axial.peripheral_accuracy

    def test_checkerboard_much_coarser_than_footprint(self):
        # checker squares far larger than patch ground spacing: accuracy > 0.9
        report = bev_roundtrip(
            wide_camera(),
            downward_extrinsics(10.0),
            CheckerPattern(square=8.0),
            LiftConfig(extent=(24.0, 24.0), resolution=0.5, patch_size=8,
                       encodings=("fishrope",)),
        )
        assert report.score("fishrope").overall_accuracy > 0.9

    def test_accuracy_monotone_in_patch_size(self):
        accs = []
        for patch in (8, 16, 32):
            report = bev_roundtrip(
                wide_camera(),
                scene_extrinsics(),
                CheckerPattern(square=6.0),
                LiftConfig(extent=(20.0, 20.0), resolution=1.0, patch_size=patch,
                           encodings=("fishrope",)),
            )
            accs.append(report.score("fishrope").overall_accuracy)
        assert accs[0] >= accs[1] >= accs[2]

    def test_no_visible_cells_raises(self):
        # camera looking straight up sees no ground
        ext = Extrinsics.look_at((0.0, 0.0, 2.0), (0.0, 0.0, 10.0), up=(0.0, 1.0, 0.0))
        with pytest.raises(EmptyOverlapError):
            bev_roundtrip(wide_camera(), ext, scene_pattern(), LiftConfig())

    def test_report_determinism(self):
        cfg = LiftConfig(extent=(16.0, 16.0), resolution=1.0, patch_size=64)
        a = bev_roundtrip(wide_camera(), scene_extrinsics(), scene_pattern(), cfg)
        b = bev_roundtrip(wide_camera(), scene_extrinsics(), scene_pattern(), cfg)
        assert dump_report_yaml(a.as_dict()) == dump_report_yaml(b.as_dict())


def test_report_config_names_every_setting():
    # a setting missing from `config` would make two different runs read alike
    bench = retrieval_bench(
        RetrievalBenchConfig(camera=wide_camera(), n_queries=8, patch_size=256)
    )
    lift = bev_roundtrip(
        wide_camera(), scene_extrinsics(), scene_pattern(),
        LiftConfig(extent=(16.0, 16.0), resolution=1.0, patch_size=64),
    )
    for config, report, constants in (
        (RetrievalBenchConfig, bench, {"base", "periphery_band", "wrap_margin"}),
        (LiftConfig, lift, {"base", "peripheral_fraction", "pattern"}),
    ):
        names = {f.name for f in dataclasses.fields(config)} - {"camera"}
        assert set(report.as_dict()["config"]) == names | constants, config


def test_settable_fields_are_pinned():
    # a ratchet on knobs: a new field fails here, so adding one is a test
    # change to accept on purpose; a fixed value belongs in a constant
    settable = {
        config.__name__: tuple(f.name for f in dataclasses.fields(config) if f.init)
        for config in (
            AttentionConfig, RotaryConfig, RetrievalBenchConfig, LiftConfig, CheckerPattern
        )
    }
    assert settable == {
        "AttentionConfig": ("head_dim", "encoding"),
        "RotaryConfig": ("dim", "theta_dims", "base"),
        "RetrievalBenchConfig": (
            "camera", "patch_size", "n_queries", "seed", "encodings", "feature_dim"
        ),
        "LiftConfig": (
            "extent", "resolution", "patch_size", "feature_dim", "encodings", "seed"
        ),
        "CheckerPattern": ("square", "origin"),
    }


class TestSelfCheck:
    def test_all_invariants_pass(self):
        report = selfcheck()
        failures = [r.name for r in report.results if not r.passed]
        assert report.all_passed, f"failing checks: {failures}"
        assert len(report.results) >= 40

    def test_corrupted_rotation_sign_fails_identity_check(self, monkeypatch):
        # mutation fixture: negating the relative rotation must be caught
        def corrupted(q, k, angles):
            return rotated_logit(q, k, -angles)

        monkeypatch.setattr(rope, "rotated_logit", corrupted)
        results = check_relative_identity(seed=0)
        assert not results[0].passed
        assert results[0].measured > results[0].tolerance

    def test_out_of_range_patch_angles_fail_angle_ranges(self, monkeypatch):
        # every valid patch gets phi = pi, outside [-pi, pi): PatchGrid refuses
        # each grid, and the check reports that instead of raising
        monkeypatch.setattr(angular, "_azimuth", lambda y, x, radius: np.pi)
        results = experiments.check_angle_ranges()
        assert [(r.name, r.passed, r.measured) for r in results] == [
            (f"angular.angle_ranges[{name}]", False, 1.0) for name in ("linear", "k2", "wide")
        ]
        assert all(r.line().startswith("FAIL ") for r in results)

    def test_refused_composition_fails_extrinsic_composition(self, monkeypatch, capsys):
        # every product 1e-7 too large: Extrinsics refuses the first
        # composition, and the check reports NaN instead of raising, so
        # selfcheck prints a FAIL line and exits 1 rather than 2
        matmul = _products.matmul
        monkeypatch.setattr(_products, "matmul", lambda a, b: matmul(a, b) * (1 + 1e-7))
        (result,) = experiments.check_extrinsic_composition()
        assert not result.passed and math.isnan(result.measured)
        assert main(["selfcheck"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL camera.extrinsic_composition: measured=nan tolerance=1.000e-09" in lines

    def test_refused_bev_angles_fail_bev_projection_consistency(self, monkeypatch):
        # every visible cell gets phi = pi, outside [-pi, pi): BevGrid refuses
        # the grid, and the check reports that instead of raising
        ray_angles = Extrinsics.ray_angles

        def on_the_seam(extrinsics, points):
            theta, phi, in_front = ray_angles(extrinsics, points)
            return theta, np.where(in_front, np.pi, phi), in_front

        monkeypatch.setattr(Extrinsics, "ray_angles", on_the_seam)
        (result,) = experiments.check_bev_projection_consistency()
        assert (result.name, result.passed, result.measured) == (
            "angular.bev_projection_consistency",
            False,
            1.0,
        )
        assert result.line().startswith("FAIL ")

    def test_products_behind_measured_values_fit_the_gate(self, monkeypatch):
        # every product behind a reported measurement has at most
        # FIXED_ORDER_OUTPUTS outputs, so it runs in numpy's fixed order and
        # the report holds under any BLAS kernel.  Exempt: the determinism
        # flag compares two reports built in one process, and the lift check
        # reports argmax picks (tests/test_margins.py).  Every product of
        # the default bench is larger, so none of them leaves BLAS
        _cores(monkeypatch, 1)
        sizes, product = [], _products._product

        def record(outputs, subscripts):
            sizes.append(outputs)
            return product(outputs, subscripts)

        monkeypatch.setattr(_products, "_product", record)
        gate = _products.FIXED_ORDER_OUTPUTS
        largest = {}
        for seed in range(16):
            for _, check in experiments._selfcheck_plan(seed):
                sizes.clear()
                name = check()[0].name
                largest[name] = max(largest.get(name, 0), *sizes, 0)
        del largest["experiments.bench_determinism"]
        del largest["experiments.lift_monotone_patch_size"]
        assert {name: n for name, n in largest.items() if n > gate} == {}
        assert largest["camera.extrinsic_composition"] > 0
        camera, _ = formats.load_calibration(CALIBRATION_FILE)
        sizes.clear()
        retrieval_bench(RetrievalBenchConfig(camera=camera))
        assert sizes and min(sizes) > gate, sorted(set(sizes))

    def test_relative_identity_counts_every_draw(self, monkeypatch):
        calls = []

        def counting(q, k, angles):
            calls.append((len(q), q.shape[1]))
            assert k.shape == q.shape and angles.shape == (len(q), q.shape[1] // 2)
            return rotated_logit(q, k, angles)

        monkeypatch.setattr(rope, "rotated_logit", counting)
        results = check_relative_identity(seed=3)
        assert results[0].passed
        assert results[0].note == "10000 random draws"
        assert sum(rows for rows, _ in calls) == 10000
        # one call per dim, holding every draw of that dim
        dims = [dim for _, dim in calls]
        assert len(dims) == len(set(dims))

    @pytest.mark.parametrize("seed", range(16))
    def test_gathered_rotary_checks_equal_their_per_block_loops(self, seed):
        # each check draws per dim as whole arrays; the oracles redraw the
        # same arrays and evaluate each block of one config's rows through
        # RotaryConfig, apply_rotary_batch and relative_logit
        for check, loop in (
            (experiments.check_norm_preservation, norm_preservation_loop),
            (experiments.check_relative_identity, relative_identity_loop),
            (experiments.check_rotation_composition, rotation_composition_loop),
        ):
            assert check(seed)[0].measured == loop(seed), check.__name__
        margin = self_logit_margin_loop(seed)
        assert experiments.check_self_logit_max(seed)[0].measured == -margin

    def test_plane_freqs_are_the_rotary_config_schedules(self):
        # the rotary checks rotate by these rows, so they must be the bits
        # and plane axes that RotaryConfig gives the package's own kernels
        bases = np.array([1.5, 2.0, 100.0, 10000.0, 12345.678])
        for dim in range(2, 65, 2):
            splits = np.arange(0, dim + 1, 2)
            theta_dims, base = (a.ravel() for a in np.meshgrid(splits, bases, indexing="ij"))
            freqs, phi = experiments._plane_freqs(dim, theta_dims, base)
            assert freqs.shape == phi.shape == (len(base), dim // 2)
            for row, (split, b) in enumerate(zip(theta_dims, base)):
                config = RotaryConfig(dim, int(split), float(b))
                assert freqs[row].tobytes() == config.plane_freqs.tobytes(), (dim, split, b)
                np.testing.assert_array_equal(phi[row], config.plane_axis == 1)

    @pytest.mark.parametrize("seed", range(16))
    def test_rotary_checks_pass_for_benchmark_seeds(self, seed):
        for check in (
            experiments.check_norm_preservation,
            experiments.check_relative_identity,
            experiments.check_rotation_composition,
            experiments.check_self_logit_max,
        ):
            (result,) = check(seed)
            assert result.passed, (check.__name__, result.measured)
            assert result.tolerance == 1e-12

    def test_below_fails_on_nan_and_on_equality(self):
        below = experiments.CheckResult.below
        assert below("c", 0.5, 1.0) == experiments.CheckResult("c", True, 0.5, 1.0)
        assert below("c", 0.5, 1.0, "why").note == "why"
        assert not below("c", 1.0, 1.0).passed
        nan = below("c", math.nan, 1.0)
        assert not nan.passed and math.isnan(nan.measured) and nan.tolerance == 1.0

    def test_flag_measures_0_or_1_against_0(self):
        flag, result = experiments.CheckResult.flag, experiments.CheckResult
        assert flag("c", True, "why") == result("c", True, 0.0, 0.0, "why")
        assert flag("c", False, "why") == result("c", False, 1.0, 0.0, "why")

    def test_traced_checks_are_every_check(self):
        # perfbench/spans.py wraps the checks it names in CHECKS; a renamed or
        # added check must not drop out of the traced run unnoticed
        tree = ast.parse((REPO_ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
        (traced,) = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["CHECKS"]
        ]
        checks = {
            name
            for name, obj in vars(experiments).items()
            if name.startswith("check_") and inspect.isfunction(obj)
        }
        assert sorted(traced) == sorted(checks)

    def test_report_serializes_with_tolerances(self):
        report = experiments.SelfCheckReport(
            results=(
                experiments.CheckResult(
                    name="demo", passed=True, measured=1e-13, tolerance=1e-12
                ),
            )
        )
        doc = report.as_dict()
        assert doc["all_passed"] is True
        assert doc["checks"][0]["tolerance"] == 1e-12
        line = report.results[0].line()
        assert line.startswith("PASS demo")


def _raise(*args, **kwargs):
    raise RuntimeError("a check that cannot run")


class TestForkedSelfCheck:
    """The camera and rotary checks run in a forked child; the report is the one-process one."""

    @pytest.mark.parametrize("seed", range(16))
    def test_forked_report_equals_one_process_report(self, monkeypatch, seed):
        forks = _count_forks(monkeypatch)
        _cores(monkeypatch, 1)
        alone = dump_report_yaml(selfcheck(seed).as_dict())
        assert forks == []
        _cores(monkeypatch, 2)
        forked = dump_report_yaml(selfcheck(seed).as_dict())
        assert len(forks) == 1
        assert forked == alone

    @pytest.mark.parametrize("seed", [0, 9])
    def test_child_checks_need_no_extrinsics_lapack_or_threads(self, monkeypatch, seed):
        _cores(monkeypatch, 1)
        report = selfcheck(seed)
        # the cores a forked child sees, so the tile pool could start threads
        _cores(monkeypatch, 2)
        monkeypatch.setattr(Extrinsics, "__post_init__", _raise)
        monkeypatch.setattr(np.linalg, "qr", _raise)
        monkeypatch.setattr(np.linalg, "det", _raise)
        starts = _count_starts(monkeypatch)
        plan = experiments._selfcheck_plan(seed)
        child = [r for in_child, check in plan if in_child for r in check()]
        assert starts == []
        child_names = (
            "camera.round_trip.",
            "camera.monotone_radial[",
            "camera.lut_monotone[",
            "camera.paraxial_linearity[",
            "angular.radial_symmetry[",
            "angular.angle_ranges[",
            "rope.",
        )
        assert child == [r for r in report.results if r.name.startswith(child_names)]
        # the patches bite on the parent's side
        for in_child, check in plan[3], plan[6]:
            assert not in_child
            with pytest.raises(RuntimeError, match="cannot run"):
                check()

    @pytest.mark.parametrize("gate", ["another thread", "no os.fork"])
    def test_closed_gate_runs_in_one_process(self, monkeypatch, gate):
        # one core is covered by the test above
        forks = _count_forks(monkeypatch)
        _cores(monkeypatch, 2)
        if gate == "no os.fork":
            monkeypatch.delattr(os, "fork")
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        if gate == "another thread":
            other.start()
        try:
            report = selfcheck()
        finally:
            release.set()
            if other.is_alive():
                other.join(timeout=30)
        assert not other.is_alive()
        assert forks == []
        assert dump_report_yaml(report.as_dict()) == SELFCHECK_YAML.read_text(encoding="utf-8")

    def test_failed_child_exits_1_with_one_line(self, monkeypatch, tmp_path, capsys):
        _cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(experiments, "check_relative_identity", _raise)
        out = tmp_path / "selfcheck.yaml"
        out.write_bytes(b"an earlier run\n")
        assert main(["selfcheck", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "failure: the process running the camera and rotary checks failed (exit code 1)\n"
        )
        assert len(forks) == 1
        assert out.read_bytes() == b"an earlier run\n"
        assert list(tmp_path.iterdir()) == [out]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_refused_lut_fails_lut_monotone(self, monkeypatch, capsys, cores):
        # InverseLut refuses a table with a flat step; the check reports FAIL
        # for each camera instead of raising, in the child as in one process
        _cores(monkeypatch, cores)
        build_lut = KannalaBrandtCamera.build_lut

        def flat_step(camera, resolution=DEFAULT_LUT_RESOLUTION):
            lut = build_lut(camera, resolution)
            if resolution != 1024:
                return lut
            entries = lut.entries.copy()
            entries[2] = entries[1]
            return InverseLut(entries, lut.r_max, lut.theta_max)

        monkeypatch.setattr(KannalaBrandtCamera, "build_lut", flat_step)
        assert main(["selfcheck"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not line.startswith("PASS ")] == [
            f"FAIL camera.lut_monotone[{name}]: measured=nan tolerance=0.000e+00 "
            "(minimum LUT entry gap; must be positive)"
            for name in ("linear", "k2", "wide")
        ] + ["selfcheck: FAILURES PRESENT"]

    def test_parent_check_that_raises_still_reaps_the_child(self, monkeypatch):
        _cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(experiments, "check_softmax_rows", _raise)
        with pytest.raises(RuntimeError, match="cannot run"):
            selfcheck()
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
