"""Seed screen of the benchmark's ``tail`` calls: each ldp-check's worst slope error and rel_err.

Builds the four ``ldp-check`` calls of ``perfbench/workloads.make_calls("tail",
seed)`` at each workload seed (1-20 by default), runs each through the CLI in
this process, and prints per call the worst relative slope error
|slope - rate|/|rate| over the seeds, the seed it occurs at, the exit codes
seen, and the median and largest ``rel_err`` of its rows.  A change to the
importance sampler's output bytes shows this screen; a call passes at a seed
when it exits 0 (its slope within ``slope_rel_tol``, 10%, of its rate).

    PYTHONPATH=src python bench/ldp_screen.py [--seeds 1-20] [--json FILE] [--against FILE]

--json writes every (call, seed) exit code, slope error and rel_errs; --against
reads such a file, from another checkout's run, and prints each call's largest
per-seed slope error difference from it and its rel_errs' ratios to that run's.
The exit code is 1 when any call exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

from coxq.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """perfbench/workloads.py as a module, read the way tests/test_golden.py reads it."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    return workloads


def run_cli(doc: dict, work: Path) -> tuple[int, Path]:
    """(exit code, output directory) of ``coxq <kind>`` on one config document, run
    in this process with its printing captured; work, made here, holds both files."""
    work.mkdir()
    config, out = work / "config.json", work / "out"
    config.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main([doc["kind"], "--config", str(config), "--out", str(out)]), out


def screen(doc: dict, work: Path) -> dict:
    """Exit code, |slope - rate|/|rate| and the rows' finite rel_errs of one ldp-check config document."""
    code, out = run_cli(doc, work)
    if not (out / "report.json").exists():
        return {"exit": code, "slope_error": math.nan, "rel_err": []}
    report = json.loads((out / "report.json").read_text())
    slope = next(c for c in report["criteria"] if c["name"] == "ldp_slope_matches_rate")
    return {"exit": code, "slope_error": abs(slope["observed"] - slope["target"]) / abs(slope["target"]),
            "rel_err": [r["rel_err"] for r in report["results"] if r.get("rel_err") is not None]}


def summary(record: dict, other: dict | None = None) -> list[str]:
    """Per call of a record {call: {seed: screen(...)}}: its worst slope error, at which seed,
    its exit codes, and its rows' median and largest rel_err; given another record, the
    largest per-seed slope error difference from it and the two rel_errs' ratios to its."""
    lines = [f"{'call':<20} {'worst slope error':>18} {'seed':>5}  exit codes  rel_err median       max"
             + ("  max |diff| vs --against  x median  x max" if other else "")]
    for name, runs in record.items():
        seed, worst = max(runs.items(), key=lambda kv: kv[1]["slope_error"])
        rel = rel_errs(runs)
        codes = sorted({run["exit"] for run in runs.values()})
        lines.append(f"{name:<20} {100 * worst['slope_error']:>17.4f}% {seed:>5}  {str(codes):<10}  "
                     f"{rel[0]:>14.4g} {rel[1]:>9.4g}")
        if other:  # at this record's seeds
            theirs = {s: other[name][s] for s in runs}
            diff = max(abs(run["slope_error"] - theirs[s]["slope_error"]) for s, run in runs.items())
            ratios = [mine / their if their else math.nan for mine, their in zip(rel, rel_errs(theirs))]
            lines[-1] += f"  {diff:>24.3g}  {ratios[0]:>8.3f}  {ratios[1]:.3f}"
    return lines


def rel_errs(runs: dict) -> tuple[float, float]:
    """(median, largest) rel_err over every row of every seed."""
    rows = [r for run in runs.values() for r in run["rel_err"]]
    return (statistics.median(rows), max(rows)) if rows else (math.nan, math.nan)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-20"), help="e.g. 1-20")
    parser.add_argument("--json", help="write every (call, seed) exit code, slope error and rel_errs here")
    parser.add_argument("--against", help="a --json file to compare the errors with")
    args = parser.parse_args(argv)

    workloads = load_workloads()
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for call in workloads.make_calls("tail", seed):
                work = Path(tmp) / f"{call.name}-{seed}"
                record.setdefault(call.name, {})[str(seed)] = screen(call.doc, work)
    other = json.loads(Path(args.against).read_text()) if args.against else None
    print("\n".join(summary(record, other)))
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(run["exit"] == 0 for by_seed in record.values() for run in by_seed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
