"""Seed screen of the benchmark's Monte Carlo moment calls: FAIL rates and margins.

Builds the ``clt`` and ``corr`` calls of ``perfbench/workloads.make_calls("stationary",
seed)`` and the ``fclt`` call of ``make_calls("transient", seed)`` at each workload
seed (1-100 by default), runs each through the CLI in this process, and prints per
call the number of runs that FAIL (exit 1) with a Wilson 95% interval for the FAIL
rate, each failing criterion with its seeds, and each criterion's worst share of
tolerance over the seeds, with the seed it occurs at.  A share of 1 or more fails:
it is |observed - target| over the tolerance (times |target| for the correlation,
whose tolerance is relative), and the level over p for the Anderson-Darling p-value,
which must exceed the level.  A change to the simulator's output bytes shows this
screen.  The ``clt`` call's Anderson-Darling criterion fails a few percent of seeds
on an exact simulator (ROADMAP.md gives the measured rate).

    PYTHONPATH=src python bench/stationary_screen.py [--seeds 1-100] [--json FILE] [--against FILE]

--json writes every (call, seed) exit code and criterion share; --against reads
such a file, from another checkout's run, and prints per call the seeds whose
exit code or failing criteria differ, and per criterion the largest share
difference.  The exit code is 1 when a run exits other than 0 or 1, or when
--against finds such a seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from ldp_screen import load_workloads, run_cli, seed_range

CALLS = {"stationary": ("clt", "corr"), "transient": ("fclt",)}


def share(criterion: dict) -> float:
    """How much of its tolerance the criterion uses; 1 or more fails."""
    observed, target, tol = criterion["observed"], criterion["target"], criterion["tolerance"]
    if criterion["name"] == "clt_normality_pvalue":  # p must exceed the level; it reads 0 past A^2* = 13
        return target / observed if observed else math.inf
    if criterion["name"] == "stationary_correlation":
        tol *= abs(target)
    return abs(observed - target) / tol


def screen(doc: dict, work: Path) -> dict:
    """Exit code, and per criterion whether it passed and its share, of one config document."""
    code, out = run_cli(doc, work)
    report = out / "report.json"
    criteria = json.loads(report.read_text())["criteria"] if report.exists() else []
    shares = {c["name"]: {"passed": c["passed"], "share": share(c)} for c in criteria}
    return {"exit": code, "criteria": shares}


def wilson(fails: int, runs: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial rate, 95% at the default z."""
    p, z2 = fails / runs, z * z / runs
    centre = (p + z2 / 2) / (1 + z2)
    half = z * math.sqrt(p * (1 - p) / runs + z2 / (4 * runs)) / (1 + z2)
    return max(0.0, centre - half), min(1.0, centre + half)


def outcome(run: dict) -> tuple:
    """What a seed's run decided: its exit code and the criteria it failed."""
    return run["exit"], sorted(name for name, c in run["criteria"].items() if not c["passed"])


def summary(runs: dict, other: dict | None) -> tuple[list[str], bool]:
    """Report lines of one call's runs by seed, and whether any run errs or moved from other."""
    fails = sum(run["exit"] == 1 for run in runs.values())
    lo, hi = wilson(fails, len(runs))
    codes = sorted({run["exit"] for run in runs.values()})
    lines = [f"  FAIL at {fails} of {len(runs)} seeds, 95% interval [{100 * lo:.1f}%, {100 * hi:.1f}%];"
             f" exit codes {codes}"]
    names = sorted({name for run in runs.values() for name in run["criteria"]})
    for name in names:
        seeds = [s for s, run in runs.items() if not run["criteria"].get(name, {"passed": True})["passed"]]
        seed, worst = max(((s, run["criteria"][name]["share"]) for s, run in runs.items()
                           if name in run["criteria"]), key=lambda kv: kv[1])
        line = f"  {name:<26} worst share {worst:.3f} at seed {seed:>4}"
        if seeds:
            line += f"; fails at seeds {', '.join(seeds)}"
        lines.append(line)
    bad = any(code not in (0, 1) for code in codes)
    if other is not None:
        common = [s for s in runs if s in other]
        moved = [s for s in common if outcome(runs[s]) != outcome(other[s])]
        lines.append(f"  against: {len(moved)} of {len(common)} seeds moved"
                     + (f" ({', '.join(moved)})" if moved else ""))
        for name in names:
            diffs = [abs(runs[s]["criteria"][name]["share"] - other[s]["criteria"][name]["share"])
                     for s in common if name in runs[s]["criteria"] and name in other[s]["criteria"]]
            lines.append(f"    {name:<24} max |share diff| {max(diffs, default=0.0):.3g}")
        bad = bad or bool(moved)
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-100"), help="e.g. 1-300")
    parser.add_argument("--json", help="write every (call, seed) exit code and criterion share here")
    parser.add_argument("--against", help="a --json file to compare the outcomes with")
    args = parser.parse_args(argv)

    workloads = load_workloads()
    record: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload, names in CALLS.items():
                for call in workloads.make_calls(workload, seed):
                    if call.name in names:
                        run = screen(call.doc, Path(tmp) / f"{workload}-{call.name}-{seed}")
                        record.setdefault(f"{workload}/{call.name}", {})[str(seed)] = run
    other = json.loads(Path(args.against).read_text()) if args.against else None
    bad = False
    for name, runs in record.items():
        lines, call_bad = summary(runs, None if other is None else other.get(name, {}))
        print("\n".join([name] + lines))
        bad = bad or call_bad
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
