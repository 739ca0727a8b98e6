"""Command-line front end: ``coxq <subcommand> --config FILE [options]``.

Subcommands mirror the experiment kinds (analytic, simulate, clt-check,
fclt-check, ldp-check, corr-check).  The config file is a JSON document
matching ExperimentConfig; --seed and --replications override its fields.
Outputs land in --out: report.json always, plus trajectories.csv and
moments.json for simulate.  Exit code 0 when every criterion passes, 1 on
a criterion failure, 2 on configuration or domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import ConfigError, CoxqError
from .harness import KINDS, ExperimentConfig, run

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxq",
        description="Infinite-server queues with resampled mixed-Poisson input: "
        "formulas, simulation, and limit-theorem checks.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument(
            "--replications", type=int, default=None, help="override per-N replications"
        )
    return parser


def _check_out(path: str) -> None:
    """ConfigError unless --out is a directory or can be made one: a path that
    is not empty, whose nearest existing ancestor is a directory.  Nothing is
    created."""
    if not path:
        raise ConfigError("--out is empty; name a directory")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--out {path!r}: {probe!r} is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        # from_json refuses a config that is not a JSON object
        config = ExperimentConfig.from_json({"kind": args.kind, **doc} if isinstance(doc, dict) else doc)
        if config.kind != args.kind:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand {args.kind!r}"
            )
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.replications is not None:
            config = replace(config, replications=args.replications)
        _check_out(args.out)
        report = run(config, out_dir=args.out)
    except (CoxqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w") as f:
        json.dump(report.to_json(), f, indent=1, sort_keys=True, allow_nan=False)
        f.write("\n")

    for row in report.results:
        if isinstance(row, dict) and row.get("rel_err_warning"):
            warn = config.tol("rel_err_warn")
            print(f"WARN N={row['N']}: tail-estimate rel_err={row['rel_err']:.3f} > {warn:.3g}")
    for c in report.criteria:
        mark = "PASS" if c.passed else "FAIL"
        print(
            f"{mark} {c.name}: observed={c.observed:.6g} target={c.target:.6g} "
            f"tol={c.tolerance:.3g}"
        )
    if not report.criteria:
        print("done (no criteria for this kind)")
    print(f"report: {report_path}  [{report.wall_clock_s:.2f}s]")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
