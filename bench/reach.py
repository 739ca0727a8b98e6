"""Which ``src/coxq`` functions no command reaches.

Runs every ``configs/*.json`` and every call of
``perfbench/workloads.make_calls`` at each workload seed (1-2 by default),
in this process through ``coxq.cli.main``, under a trace on every thread
(``sys.settrace`` and ``threading.settrace``: the block scheduler draws on
worker threads).  It prints each function defined in ``src/coxq`` that no
run entered, with its line count from its first decorator to its last line,
and a total.  A nested function is listed only when the function around it
was entered, so no line is counted twice.  ``coxq`` is imported under the
trace too, so a function that a module calls as it loads counts as reached.

    PYTHONPATH=src python bench/reach.py [--seeds 1-2]

Nothing is written outside a temporary directory, which holds every run's
outputs and is removed at the end.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from typing import NamedTuple


class Function(NamedTuple):
    name: str  # file:line qualified.name
    path: str
    starts: frozenset  # the def's line and its first decorator's: a code object's co_firstlineno
    lines: int
    parent: int | None  # index of the enclosing function, if any


def functions(package: Path) -> list[Function]:
    """Every function and method defined in package's modules, in source order."""
    found = []

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(Function(f"{module}:{child.lineno} {prefix}{child.name}", path,
                                      frozenset({start, child.lineno}), child.end_lineno - start + 1,
                                      parent))
                visit(child, path, f"{prefix}{child.name}.", len(found) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", parent)
            else:
                visit(child, path, prefix, parent)

    for path in sorted(package.glob("*.py")):
        module = path.name
        visit(ast.parse(path.read_text()), os.path.realpath(path), "", None)
    return found


def run_traced(seeds: str) -> tuple[set, Counter]:
    """({(file, first line)} of every code object entered, exit code counts);
    seeds as ``--seeds`` gives them."""
    entered = set()

    def trace(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = Counter()
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        # bench/ldp_screen.py imports coxq.cli as it loads, so both are imported here
        from ldp_screen import ROOT, load_workloads, run_cli, seed_range

        workloads = load_workloads()
        docs = [(p.stem, json.loads(p.read_text())) for p in sorted((ROOT / "configs").glob("*.json"))]
        docs += [(f"{call.name}-{seed}", call.doc) for seed in seed_range(seeds)
                 for workload in workloads.WORKLOADS for call in workloads.make_calls(workload, seed)]
        with tempfile.TemporaryDirectory() as tmp:
            for name, doc in docs:
                codes[run_cli(doc, Path(tmp) / name)[0]] += 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {(os.path.realpath(f), line) for f, line in entered}, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-2", help="e.g. 1-2")
    args = parser.parse_args(argv)

    package = Path(importlib.util.find_spec("coxq").origin).parent  # found, not imported
    defined = functions(package)
    entered, codes = run_traced(args.seeds)
    reached = [any((f.path, line) in entered for line in f.starts) for f in defined]
    unreached = [f for f, hit in zip(defined, reached) if not hit and (f.parent is None or reached[f.parent])]
    for f in unreached:
        print(f"{f.lines:>5}  {f.name}")
    total = sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))
    print(f"{sum(f.lines for f in unreached)} lines in {len(unreached)} functions never entered, "
          f"of {total} lines in {package.name}; {sum(codes.values())} runs, exit codes "
          + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
