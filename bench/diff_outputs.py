"""Output bytes and numeric leaves of the shipped configs and the benchmark's calls.

Runs each config in ``configs/`` and each call of ``perfbench/workloads.make_calls``
at each workload seed (1-20 by default) through the CLI in this process, and
records per output file its SHA-256 and, for ``report.json``, ``rates.json``
and ``moments.json``, every numeric leaf.  A change that moves output bytes
shows this comparison of its checkout against the parent's.

    PYTHONPATH=src python bench/diff_outputs.py [--seeds 1-20] [--calls NAME,...]
                                                [--json FILE] [--against FILE]

A run is named ``configs/<stem>`` or ``<workload>/<call>@<seed>``; --calls keeps
the runs whose name before any "@" is listed, e.g.
``--calls transient/simulate,transient/fclt``.  --json writes the record;
--against reads one from another checkout and prints, per call and output file,
at how many seeds the bytes moved and, per numeric leaf of the files above, the
largest absolute and relative change over those seeds.  Leaves are named by
their JSON path with list indices written "*", so ``mean/*/*`` stands for
every entry of the moments' mean.  Exit codes that differ are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from ldp_screen import ROOT, load_workloads, run_cli, seed_range

LEAF_FILES = ("report.json", "rates.json", "moments.json")


def numeric_leaves(value, path: str = "") -> dict:
    """{path: number} for every int or float leaf of a JSON value (bools are not numbers)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        return {path: value} if numeric else {}
    out = {}
    for key, item in items:
        out.update(numeric_leaves(item, f"{path}/{key}" if path else str(key)))
    return out


def run_call(doc: dict, work: Path) -> dict:
    """Exit code, and per output file its SHA-256 and numeric leaves, of one config document."""
    code, out = run_cli(doc, work)
    files = {}
    for path in sorted(out.iterdir()) if out.exists() else []:
        data = path.read_bytes()
        files[path.name] = {"sha256": hashlib.sha256(data).hexdigest()}
        if path.name in LEAF_FILES:
            files[path.name]["leaves"] = numeric_leaves(json.loads(data))
    return {"exit": code, "files": files}


def all_runs(seeds: list[int]) -> dict:
    """{run name: config document}: the shipped configs, then the bench calls per seed."""
    runs = {f"configs/{p.stem}": json.loads(p.read_text()) for p in sorted(ROOT.glob("configs/*.json"))}
    workloads = load_workloads()
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for call in workloads.make_calls(workload, seed):
                runs[f"{workload}/{call.name}@{seed}"] = call.doc
    return runs


def compare(mine: dict, other: dict) -> list[str]:
    """Report lines of mine against other, per call (run name without its seed)."""
    calls: dict = {}
    for run in sorted(mine.keys() & other.keys()):
        calls.setdefault(run.partition("@")[0], []).append(run)
    lines = []
    for call, runs in calls.items():
        exits = {(other[r]["exit"], mine[r]["exit"]) for r in runs if other[r]["exit"] != mine[r]["exit"]}
        if exits:
            lines.append(f"{call}: exit codes moved {sorted(exits)}")
        names = sorted({name for r in runs for name in mine[r]["files"].keys() | other[r]["files"].keys()})
        for name in names:
            pairs = [(other[r]["files"].get(name), mine[r]["files"].get(name)) for r in runs]
            moved = sum(a is None or b is None or a["sha256"] != b["sha256"] for a, b in pairs)
            lines.append(f"{call:<24} {name:<18} bytes moved at {moved}/{len(runs)}")
            worst: dict = {}  # leaf -> (largest |change|, largest relative change)
            for a, b in pairs:
                if a is None or b is None or a["sha256"] == b["sha256"] or "leaves" not in a:
                    continue
                for leaf in a["leaves"].keys() | b["leaves"].keys():
                    key = "/".join("*" if part.isdigit() else part for part in leaf.split("/"))
                    x, y = a["leaves"].get(leaf), b["leaves"].get(leaf)
                    if x is None or y is None:
                        worst[key] = (math.inf, math.inf)
                        continue
                    change = abs(y - x)
                    rel = change / abs(x) if x else (math.inf if change else 0.0)
                    prev = worst.get(key, (0.0, 0.0))
                    worst[key] = (max(prev[0], change), max(prev[1], rel))
            for key, (change, rel) in sorted(worst.items()):
                if change:
                    lines.append(f"    {key:<40} max |change| {change:.3g}  max relative {rel:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-20"), help="e.g. 1-20")
    parser.add_argument("--calls", help="comma-separated run names without seed; default all")
    parser.add_argument("--json", help="write every run's exit code, hashes and leaves here")
    parser.add_argument("--against", help="a --json file to compare the outputs with")
    args = parser.parse_args(argv)

    runs = all_runs(args.seeds)
    if args.calls:
        keep = set(args.calls.split(","))
        runs = {name: doc for name, doc in runs.items() if name.partition("@")[0] in keep}
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, doc) in enumerate(runs.items()):
            record[name] = run_call(doc, Path(tmp) / str(i))
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    if args.against:
        print("\n".join(compare(record, json.loads(Path(args.against).read_text()))))
    else:
        for name, rec in record.items():
            print(f"{name:<32} exit {rec['exit']}  " + "  ".join(sorted(rec["files"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
