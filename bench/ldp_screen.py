"""Seed screen of the benchmark's ``tail`` calls: each ldp-check's worst slope error.

Builds the four ``ldp-check`` calls of ``perfbench/workloads.make_calls("tail",
seed)`` at each workload seed (1-20 by default), runs each through the CLI in
this process, and prints per call the worst relative slope error
|slope - rate|/|rate| over the seeds, the seed it occurs at, and the exit
codes seen.  A change to the importance sampler's output bytes shows this
screen; a call passes at a seed when it exits 0 (its slope within
``slope_rel_tol``, 10%, of its rate).

    PYTHONPATH=src python bench/ldp_screen.py [--seeds 1-20] [--json FILE] [--against FILE]

--json writes every (call, seed) slope error; --against reads such a file,
from another checkout's run, and prints each call's largest per-seed
difference from it.  The exit code is 1 when any call exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
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


def slope_error(doc: dict, work: Path) -> tuple[int, float]:
    """(exit code, |slope - rate|/|rate|) of one ldp-check config document."""
    code, out = run_cli(doc, work)
    if not (out / "report.json").exists():
        return code, float("nan")
    criteria = json.loads((out / "report.json").read_text())["criteria"]
    slope = next(c for c in criteria if c["name"] == "ldp_slope_matches_rate")
    return code, abs(slope["observed"] - slope["target"]) / abs(slope["target"])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-20"), help="e.g. 1-20")
    parser.add_argument("--json", help="write every (call, seed) slope error here")
    parser.add_argument("--against", help="a --json file to compare the errors with")
    args = parser.parse_args(argv)

    workloads = load_workloads()
    errors, codes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for call in workloads.make_calls("tail", seed):
                code, err = slope_error(call.doc, Path(tmp) / f"{call.name}-{seed}")
                errors.setdefault(call.name, {})[str(seed)] = err
                codes.setdefault(call.name, set()).add(code)
    other = json.loads(Path(args.against).read_text()) if args.against else None
    print(f"{'call':<20} {'worst slope error':>18} {'seed':>5}  exit codes"
          + ("  max |diff| vs --against" if other else ""))
    for name, by_seed in errors.items():
        seed, worst = max(by_seed.items(), key=lambda kv: kv[1])
        line = f"{name:<20} {100 * worst:>17.4f}% {seed:>5}  {sorted(codes[name])}"
        if other:
            line += f"  {max(abs(e - other[name][s]) for s, e in by_seed.items()):.3g}"
        print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(errors, indent=1) + "\n")
    return 0 if all(c == {0} for c in codes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
