#!/usr/bin/env python3
"""Run the full experiment suite against the repo fixture calibration.

Writes bench/lift/selfcheck reports (YAML + CSV tables) into results/
and prints the per-encoding summaries.  Equivalent to the `fishrope
bench|lift|selfcheck` subcommands with default settings.
"""

from __future__ import annotations

import pathlib
import sys

from fishrope import experiments, fixtures, formats

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def write_bench(out_dir: pathlib.Path, camera) -> experiments.BenchReport:
    """Default retrieval bench -> out_dir/bench.{yaml,csv}."""
    bench = experiments.retrieval_bench(
        experiments.RetrievalBenchConfig(camera=camera)
    )
    formats.write_report_yaml(out_dir / "bench.yaml", bench.as_dict())
    header, rows = bench.csv_rows()
    formats.write_csv_table(out_dir / "bench.csv", header, rows)
    return bench


def write_lift(out_dir: pathlib.Path, camera) -> experiments.LiftReport:
    """Default BEV round-trip on the fixture scene -> out_dir/lift.{yaml,csv}."""
    lift = experiments.bev_roundtrip(
        camera,
        fixtures.scene_extrinsics(),
        fixtures.scene_pattern(),
        experiments.LiftConfig(),
    )
    formats.write_report_yaml(out_dir / "lift.yaml", lift.as_dict())
    header, rows = lift.csv_rows()
    formats.write_csv_table(out_dir / "lift.csv", header, rows)
    return lift


def write_selfcheck(out_dir: pathlib.Path) -> experiments.SelfCheckReport:
    """Every invariant check at the default seed -> out_dir/selfcheck.yaml."""
    check = experiments.selfcheck()
    formats.write_report_yaml(out_dir / "selfcheck.yaml", check.as_dict())
    return check


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    camera = fixtures.wide_camera()

    for s in write_bench(RESULTS, camera).scores:
        print(
            f"bench[{s.encoding}] top1={s.top1_accuracy:.4f} "
            f"periphery={s.periphery_accuracy:.4f} ({s.runtime_s:.2f}s)"
        )

    for s in write_lift(RESULTS, camera).scores:
        print(
            f"lift[{s.encoding}] overall={s.overall_accuracy:.4f} "
            f"peripheral={s.peripheral_accuracy:.4f} ({s.runtime_s:.2f}s)"
        )

    check = write_selfcheck(RESULTS)
    failures = [r for r in check.results if not r.passed]
    print(f"selfcheck: {len(check.results) - len(failures)}/{len(check.results)} passed")
    for r in failures:
        print("  " + r.line())
    return 0 if check.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
