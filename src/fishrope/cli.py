"""Command-line front end.

Subcommands: angles, lut, project, unproject, selfcheck, bench, lift.
Every flag follows its subcommand, and each subcommand takes only the
shared flags its handler reads:

    --calib   every subcommand but selfcheck (required)
    --out     angles, lut, bench, lift (required); selfcheck (optional)
    --format  angles, lut
    --seed    selfcheck, bench, lift

The parser holds all seven subcommands and is built once per process:
every call, help and parse errors included, parses through it.

Exit codes form a stable contract:

    0  success
    1  runtime failure (including selfcheck failures)
    2  configuration or input error, an unparsable command line included
    3  I/O error on a file named by the user (reading --calib or writing --out)
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys

# BLAS runs on one thread unless the caller set a count: beside the tile
# threads (_products.MAX_TILE_WORKERS) more BLAS threads only slow the
# scaled lift.  The BLAS library reads these when numpy first loads, which
# the camera import below does, so a caller that loaded numpy earlier keeps
# its own setting.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# angular, experiments and fixtures load lazily (see fishrope/__init__.py):
# only the commands that use them touch them, so the others never run them.
from . import angular, experiments, fixtures, formats
from .camera import DEFAULT_LUT_RESOLUTION, DEFAULT_NEWTON_ITERATIONS
from .errors import ConfigError, DomainError, EmptyOverlapError, FishropeError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a parse error; every subparser inherits it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # A token that starts like a negative float() value ("-1e-3", "-inf") is a
        # value; argparse's own pattern misses exponent form and reads it as a flag.
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ConfigError(message)


# The flags several subcommands share, declared on each one that reads them.
_SHARED_FLAGS = {
    "--calib": {"required": True, "help": "calibration file (YAML)"},
    "--out": {"required": True, "help": "output path"},
    "--format": {"choices": ("csv", "bin"), "default": "csv", "help": "artifact format"},
    "--seed": {"type": int, "default": 0, "help": "RNG seed"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser; a parse stores nothing on it, so one serves every call."""
    parser = _Parser(
        prog="fishrope",
        description="Fisheye camera geometry, angular rotary embeddings, BEV lifting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = command("angles", "emit a patch angle map", "--calib", "--out", "--format")
    p.add_argument("--patch-size", type=int, default=14)

    p = command("lut", "emit an inverse lookup table", "--calib", "--out", "--format")
    p.add_argument("--resolution", type=int, default=DEFAULT_LUT_RESOLUTION)

    p = command("project", "project (theta, phi) to pixels", "--calib")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)

    p = command("unproject", "invert pixels to (theta, phi)", "--calib")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--iterations", type=int, default=DEFAULT_NEWTON_ITERATIONS)

    p = command("selfcheck", "run every invariant check", "--seed")
    p.add_argument("--out", help="report path; without it no report is written")

    # bench and lift flags default to None: an unset flag takes the
    # RetrievalBenchConfig, LiftConfig or fixture scene value when the
    # command builds its config, so building the parser loads no experiment.
    p = command("bench", "run the retrieval benchmark", "--calib", "--out", "--seed")
    p.add_argument("--patch-size", type=int)
    p.add_argument("--n-queries", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument(
        "--encodings",
        type=_parse_encodings,
        # rope.ENCODINGS, written out so that the parser does not load rope;
        # tests/test_cli.py pins the two equal.
        help="comma-separated subset of none,sinusoidal,axial_rope,fishrope",
    )

    p = command("lift", "run the BEV round-trip", "--calib", "--out", "--seed")
    p.add_argument("--patch-size", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--extent", type=float, nargs=2)
    p.add_argument("--resolution", type=float)
    p.add_argument("--checker", type=float, help="checker square size, m")
    p.add_argument("--checker-origin", type=float, nargs=2, help="checker square corner anchor, m")
    return parser


def _given(**fields) -> dict:
    """The fields whose flags were set, two-value flags as tuples.

    An unset flag is left out, so the field keeps its default.
    """
    return {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in fields.items()
        if value is not None
    }


def _cmd_angles(args) -> int:
    camera, _ = formats.load_calibration(args.calib)
    grid = angular.patch_angles(camera, args.patch_size)
    if grid.n_valid == 0:
        raise EmptyOverlapError("no patch centers fall inside the image circle")
    if args.format == "bin":
        formats.write_anglemap_bin(args.out, grid)
    else:
        formats.write_anglemap_csv(args.out, grid)
    theta = grid.coords[..., 0][grid.valid_mask]
    frac = grid.n_valid / (grid.grid_dims[0] * grid.grid_dims[1])
    print(
        f"angle map: grid {grid.grid_dims[0]}x{grid.grid_dims[1]} "
        f"theta range [{theta.min():.6f}, {theta.max():.6f}] "
        f"valid fraction {frac:.4f} -> {args.out}"
    )
    return EXIT_OK


def _cmd_lut(args) -> int:
    camera, _ = formats.load_calibration(args.calib)
    lut = camera.build_lut(args.resolution)
    if args.format == "bin":
        formats.write_lut_bin(args.out, lut)
    else:
        formats.write_lut_csv(args.out, lut)
    print(
        f"lut: {lut.resolution} entries, r_max {lut.r_max:.6f} px, "
        f"theta_max {lut.theta_max:.6f} rad -> {args.out}"
    )
    return EXIT_OK


def _cmd_project(args) -> int:
    camera, _ = formats.load_calibration(args.calib)
    u, v = camera.project(args.theta, args.phi)
    print(f"{float(u)!r} {float(v)!r}")
    return EXIT_OK


def _cmd_unproject(args) -> int:
    camera, _ = formats.load_calibration(args.calib)
    theta, phi = camera.unproject_newton(args.u, args.v, iterations=args.iterations)
    print(f"{float(theta)!r} {float(phi)!r}")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    report = experiments.selfcheck(seed=args.seed)
    for result in report.results:
        print(result.line())
    if args.out:
        formats.write_report_yaml(args.out, report.as_dict())
    print(f"selfcheck: {'all passed' if report.all_passed else 'FAILURES PRESENT'}")
    return EXIT_OK if report.all_passed else EXIT_RUNTIME


def _parse_encodings(raw: str) -> tuple[str, ...]:
    """Comma-separated names; RetrievalBenchConfig checks them."""
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _cmd_bench(args) -> int:
    camera, _ = formats.load_calibration(args.calib)
    config = experiments.RetrievalBenchConfig(
        camera=camera,
        seed=args.seed,
        **_given(
            patch_size=args.patch_size,
            n_queries=args.n_queries,
            encodings=args.encodings,
            feature_dim=args.dim,
        ),
    )
    report = experiments.retrieval_bench(config)
    formats.write_report_yaml(args.out, report.as_dict())
    header, rows = report.csv_rows()
    formats.write_csv_table(args.out + ".csv", header, rows)
    for score in report.scores:
        print(
            f"bench[{score.encoding}] top1={score.top1_accuracy:.4f} "
            f"periphery={score.periphery_accuracy:.4f} "
            f"mean_rank={score.mean_rank:.2f} ({score.runtime_s:.2f}s)"
        )
    if report.degenerate_camera:
        print("warning: camera distortion is negligible (extent ratio <= 1.5)")
    print(f"report -> {args.out}")
    return EXIT_OK


def _cmd_lift(args) -> int:
    camera, extrinsics = formats.load_calibration(args.calib)
    if extrinsics is None:
        raise ConfigError("calibration file lacks the extrinsics block required here")
    config = experiments.LiftConfig(
        seed=args.seed,
        **_given(
            extent=args.extent,
            resolution=args.resolution,
            patch_size=args.patch_size,
            feature_dim=args.dim,
        ),
    )
    pattern = dataclasses.replace(
        fixtures.scene_pattern(), **_given(square=args.checker, origin=args.checker_origin)
    )
    report = experiments.bev_roundtrip(camera, extrinsics, pattern, config)
    formats.write_report_yaml(args.out, report.as_dict())
    header, rows = report.csv_rows()
    formats.write_csv_table(args.out + ".csv", header, rows)
    for score in report.scores:
        print(
            f"lift[{score.encoding}] overall={score.overall_accuracy:.4f} "
            f"peripheral={score.peripheral_accuracy:.4f} ({score.runtime_s:.2f}s)"
        )
    print(f"report -> {args.out} (visible cells: {report.n_visible}, keys: {report.n_keys})")
    return EXIT_OK


_COMMANDS = {
    "angles": _cmd_angles,
    "lut": _cmd_lut,
    "project": _cmd_project,
    "unproject": _cmd_unproject,
    "selfcheck": _cmd_selfcheck,
    "bench": _cmd_bench,
    "lift": _cmd_lift,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FishropeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
