"""coxq benchmark: one workload driven in-process through ``coxq.cli.main``.

    python3 perfbench/run.py --workload stationary --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates the workload's configs from ``--seed``, then
repeats passes over its CLI calls for ``--seconds`` seconds, checks every
call's outputs, and prints a summary followed by one JSON line:

* ``--trace 0``: end-to-end metrics ``setup_s``, ``wall_ref`` and
  ``peak_rss_mb``; ``attempted``/``failed`` count the CLI calls.  The raw
  median pass time ``wall_s`` is printed and recorded, but not bounded.
* ``--trace 1``: per-layer metrics from spans recorded around calls into
  the package, from traced passes interleaved with untraced ones.

A results file stamped with the machine and the run, and for traced runs the
spans, go to ``perfbench/out/``.  README.md explains the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# BLAS stays single-threaded: the workloads are RNG- and loop-bound, and one
# thread keeps run-to-run spread low on a small shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from spans import Tracer, covered, self_times, totals_by_name  # noqa: E402
from workloads import REFERENCE_KERNEL, WORKLOADS, Call, check_outputs, make_calls, write_configs  # noqa: E402

SETUP_SAMPLES = 3
MIN_PASSES = 3
CALL_TIMEOUT_S = 120
# A hypothesis test fails on a fraction of seeds even when the program is
# right (at least its level, 1%).  Its FAIL counts as a failed call but does
# not by itself make the outputs incorrect.
HYPOTHESIS_TESTS = frozenset({"clt_normality_pvalue"})


def import_cli():
    """``coxq.cli.main`` from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import coxq.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import coxq from {SRC}: {exc}")
    if Path(coxq.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: coxq imported from {coxq.cli.__file__}, not {SRC}")
    return coxq


def machine_stamp(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        l3 = int(subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or 0) or None
    except (ValueError, OSError, subprocess.SubprocessError):
        l3 = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, tmp: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to configs ready, per sample."""
    samples = []
    for k in range(SETUP_SAMPLES):
        out_dir = tmp / f"setup{k}"
        out_dir.mkdir()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload, str(seed), str(out_dir)],
            capture_output=True, text=True, timeout=CALL_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


# ---------------------------------------------------------------------------
# Passes and the correctness gate


class Gate:
    """Per-call verdicts: exit code, criteria, output checks and determinism."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}

    def check(self, call: Call, rc: int, out_dir: Path, label: str) -> dict | None:
        """Judge one finished call; returns its parsed report (None if unreadable)."""
        notes, report = [], None
        try:
            report = json.loads((out_dir / "report.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            notes.append(f"report.json unreadable: {exc}")
        failing = [c["name"] for c in report["criteria"] if not c["passed"]] if report else []
        if rc != (1 if failing else 0):
            notes.append(f"exit code {rc}")
        if failing:
            notes.append("FAIL " + ", ".join(failing))
        problems = check_outputs(call, out_dir) if report else []
        notes += problems
        digests = file_digests(out_dir)
        same = digests == self.reference.setdefault(call.name, digests)
        if not same:
            notes.append("outputs differ from the first run with the same seed")
        self.attempted += 1
        self.failed += bool(notes)
        self.incorrect += (
            report is None
            or rc != (1 if failing else 0)
            or any(name not in HYPOTHESIS_TESTS for name in failing)
            or bool(problems)
            or not same
        )
        if notes:
            self.problems.append(f"{label}: " + "; ".join(notes))
        return report


def file_digests(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


class ReferenceKernel:
    """Fixed numpy work timed around every CLI call, shaped like a workload's hot layer.

    On a 2-vCPU cloud VM with nothing else running in the container, a vCPU
    ran up to 1.5x slower for seconds at a time, independently per vCPU, and
    the machine drifted slower by half over a quarter of an hour.  The raw
    pass time then spread by 20-29% between 20-30 s windows (quartile
    distance over median).  A call's time divided by this kernel's time just
    before and after it moves with the work the call does, much less with
    that contention, when the kernel stresses the machine the way the
    workload does: 2-9% in the same data.  Each kind runs 35-115 ms:

    * ``mixed``: vector gamma draws on cache-resident arrays plus scalar
      binomial draws (``stationary``: blocked rate cells and the replication
      loop);
    * ``scalar``: scalar binomial and Poisson draws (``transient``: the
      per-replication thinning loop);
    * ``memory``: one gamma draw into a 16 MB array (``tail``: IS chunks).
    """

    def __init__(self, kind: str):
        import numpy as np

        self._rng = np.random.Generator(np.random.PCG64(0))
        self._work = {"mixed": self._mixed, "scalar": self._scalar, "memory": self._memory}[kind]
        self._small = np.full(20000, 10.0)
        self._wide = np.full(2000, 10.0)

    def _mixed(self):
        for _ in range(30):
            self._rng.gamma(self._small, 1.0)
            self._rng.gamma(self._small, 1.0)
            for _ in range(1000):
                self._rng.binomial(100, 0.5)

    def _scalar(self):
        binomial, poisson = self._rng.binomial, self._rng.poisson
        for _ in range(15000):
            binomial(100, 0.5)
            poisson(3.0)

    def _memory(self):
        self._rng.gamma(self._wide, 1.0, size=(1000, 2000))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


@dataclass
class PassResult:
    wall: float  # seconds inside the CLI calls
    ref_units: float  # sum over calls of call seconds / adjacent kernel seconds
    rcs: list
    roots: list  # cli.main span index per call (traced passes only)
    output: str  # what the calls printed


def run_pass(main, calls, paths, out_dirs, kernel, tracer=None) -> PassResult:
    """One pass over the calls, each bracketed by the reference kernel."""
    rcs, roots, call_s = [], [], []
    refs = [kernel()]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for call, path, out_dir in zip(calls, paths, out_dirs):
            argv = [call.kind, "--config", path, "--out", str(out_dir)]
            t0 = time.perf_counter()
            if tracer is None:
                rcs.append(_call(main, argv))
            else:
                idx = tracer.open("cli.main")
                try:
                    rcs.append(_call(main, argv))
                finally:
                    tracer.close(idx)
                roots.append(idx)
            call_s.append(time.perf_counter() - t0)
            refs.append(kernel())
    ref_units = sum(t / ((a + b) / 2) for t, a, b in zip(call_s, refs, refs[1:]))
    return PassResult(sum(call_s), ref_units, rcs, roots, sink.getvalue())


def _call(main, argv) -> int:
    """Exit code of one CLI call; an escaping exception counts as code -1."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def rerun_fresh(call: Call, path: str, out_dir: Path) -> int:
    """The call again with the same seed, through the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "coxq.cli", call.kind, "--config", path, "--out", str(out_dir)],
        env=env, cwd=ROOT, capture_output=True, timeout=CALL_TIMEOUT_S,
    )
    return proc.returncode


# ---------------------------------------------------------------------------
# Instrumentation: spans around the callables other modules resolve


def _result_len(key):
    return lambda args, kwargs, result: {key: len(result)}


def instrument(tracer: Tracer, coxq) -> None:
    """Wrap each public function of env, sim, analytic and ldp at its call sites."""
    layer_of = {"coxq.analytic": "analytic", "coxq.sim": "sim", "coxq.ldp": "ldp", "coxq.env": "env"}
    alias = {"ldp.rate_fast": "ldp.optimizer", "ldp.rate_slow": "ldp.optimizer",
             "ldp.rate_intermediate": "ldp.optimizer"}
    counters = {
        "ldp.optimizer": lambda a, k, r: {"iterations": int(r.diagnostics.get("iterations", 0))},
        "sim.simulate": lambda a, k, r: {"reps": int(r.counts.shape[0])},
        "sim.trajectory_to_csv": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
        "env.spawn_streams": _result_len("streams"),
        "env.sample": _result_len("draws"),
        "env.sample_block_sums": _result_len("cells"),
        "env.sample_block_sums_twisted": lambda a, k, r: {"draws": int(r.size)},
    }

    def patch(owner, attr, name):
        tracer.patch(owner, attr, name, counters.get(name))

    patch(coxq.cli, "run", "harness.run")
    patch(coxq.harness, "anderson_darling_normal", "harness.anderson_darling_normal")
    for attr, obj in list(vars(coxq.harness).items()):
        if inspect.isfunction(obj) and obj.__module__ in layer_of:
            name = f"{layer_of[obj.__module__]}.{attr}"
            patch(coxq.harness, attr, alias.get(name, name))
    # names the simulator resolves in its own module, or the harness imports late
    for attr, name in (("simulate", "sim.simulate"), ("spawn_streams", "env.spawn_streams"),
                       ("trajectory_to_csv", "sim.trajectory_to_csv")):
        patch(coxq.sim, attr, name)
    for family in (coxq.env.Deterministic, coxq.env.Exponential, coxq.env.Gamma, coxq.env.DiscreteFinite):
        for attr in ("sample", "sample_block_sums", "sample_block_sums_twisted"):
            patch(family, attr, f"env.{attr}")


def layer_metrics(tracer: Tracer, roots, traced, untraced, reports, report_bytes) -> dict:
    """Per-layer metrics per traced pass; ``roots`` pairs each call with its cli.main span."""
    spans = tracer.spans
    tot = totals_by_name(spans)
    n = len(traced)
    wall = sum(p.wall for p in traced)

    def get(name, field="total"):
        t = tot.get(name)
        return getattr(t, field) if t else 0.0

    def count(name, key):
        t = tot.get(name)
        return t.counts.get(key, 0) if t else 0

    def ratio(num, den):
        return num / den if den else 0.0

    # tail-estimate cost: the harness's own time plus twisted draws, per ldp-check call
    own = self_times(spans)
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    work = []
    for call, root in roots:
        if call.kind != "ldp-check":
            continue
        for h in children.get(root, []):
            if spans[h].name != "harness.run":
                continue
            is_s = own[h] + sum(spans[c].duration for c in children.get(h, [])
                                if spans[c].name == "env.sample_block_sums_twisted")
            rel = max((r["rel_err"] for r in reports[call.name]["results"] if "rel_err" in r), default=0.0)
            work.append(is_s * rel**2)
    rel_errs = [r["rel_err"] for rep in reports.values() for r in rep["results"]
                if isinstance(r, dict) and "rel_err" in r]
    analytic = sum(t.total for name, t in tot.items() if name.startswith("analytic."))
    root_cover = covered([(spans[i].start, spans[i].end) for _, i in roots])
    m = {
        "env.spawn_streams.us_per_stream": (1e6 * ratio(get("env.spawn_streams"), count("env.spawn_streams", "streams")), "us"),
        "env.spawn_streams.streams": (count("env.spawn_streams", "streams") / n, "count"),
        "env.sample_block_sums.us_per_cell": (1e6 * ratio(get("env.sample_block_sums"), count("env.sample_block_sums", "cells")), "us"),
        "env.sample_block_sums.cells_per_rep": (ratio(count("env.sample_block_sums", "cells"), get("env.sample_block_sums", "calls")), "count"),
        "env.sample_block_sums.share": (get("env.sample_block_sums", "self") / wall, "fraction"),
        "env.sample.share": (get("env.sample", "self") / wall, "fraction"),
        "env.sample_block_sums_twisted.ns_per_draw": (1e9 * ratio(get("env.sample_block_sums_twisted"), count("env.sample_block_sums_twisted", "draws")), "ns"),
        "env.sample_block_sums_twisted.share": (get("env.sample_block_sums_twisted", "self") / wall, "fraction"),
        "sim.simulate.self_us_per_rep": (1e6 * ratio(get("sim.simulate", "self"), count("sim.simulate", "reps")), "us"),
        "sim.simulate.self_share": (get("sim.simulate", "self") / wall, "fraction"),
        "sim.estimate_moments.ms": (1e3 * get("sim.estimate_moments") / n, "ms"),
        "sim.trajectory_to_csv.ms": (1e3 * get("sim.trajectory_to_csv") / n, "ms"),
        "sim.trajectory_to_csv.bytes": (count("sim.trajectory_to_csv", "bytes") / n, "bytes"),
        "analytic.ms": (1e3 * analytic / n, "ms"),
        "ldp.optimizer.ms": (1e3 * get("ldp.optimizer") / n, "ms"),
        "ldp.optimizer.iterations": (count("ldp.optimizer", "iterations") / n, "count"),
        "ldp.integrated_log_mgf.ms": (1e3 * get("ldp.integrated_log_mgf") / n, "ms"),
        "ldp.is.rel_err_max": (max(rel_errs, default=0.0), "ratio"),
        "ldp.is.work_norm_var": (statistics.fmean(work) if work else 0.0, "s"),
        "harness.run.self_ms": (1e3 * get("harness.run", "self") / n, "ms"),
        "harness.run.self_share": (get("harness.run", "self") / wall, "fraction"),
        "harness.anderson_darling_normal.ms": (1e3 * get("harness.anderson_darling_normal") / n, "ms"),
        "cli.main.self_ms": (1e3 * get("cli.main", "self") / n, "ms"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "unspanned.ms": (1e3 * (wall - root_cover) / n, "ms"),
        "trace.overhead_frac": (_median_ref(traced) / _median_ref(untraced) - 1.0, "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _median_ref(passes) -> float:
    return statistics.median(p.ref_units for p in passes)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    coxq = import_cli()
    cli_main = coxq.cli.main
    calls = make_calls(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{tag}-", dir=OUT))
    tracer = Tracer()
    try:
        paths = write_configs(calls, tmp)
        out_dirs = [tmp / call.name for call in calls]
        setup = measure_setup(args.workload, args.seed, tmp) if args.trace == 0 else []

        gate = Gate()
        reports: dict[str, dict] = {}
        untraced, traced, roots = [], [], []
        kernel = ReferenceKernel(REFERENCE_KERNEL[args.workload])
        start = time.perf_counter()
        while True:
            trace_this = args.trace == 1 and len(untraced) > len(traced)
            if trace_this:
                instrument(tracer, coxq)
            try:
                done = run_pass(cli_main, calls, paths, out_dirs, kernel, tracer if trace_this else None)
            finally:
                tracer.unpatch()
            if any(rc not in (0, 1) for rc in done.rcs):
                gate.problems.append(done.output)
            (traced if trace_this else untraced).append(done)
            roots += zip(calls, done.roots)
            n_pass = len(untraced) + len(traced)
            for call, rc, out_dir in zip(calls, done.rcs, out_dirs):
                report = gate.check(call, rc, out_dir, f"pass {n_pass} {call.name}")
                reports.setdefault(call.name, report or {"results": [], "criteria": []})
            enough = len(untraced) >= MIN_PASSES and (args.trace == 0 or len(traced) >= MIN_PASSES - 1)
            if enough and time.perf_counter() - start >= args.seconds and not trace_this:
                break

        rerun_dir = tmp / "rerun"
        rc = rerun_fresh(calls[0], paths[0], rerun_dir)
        gate.check(calls[0], rc, rerun_dir, f"fresh-process rerun {calls[0].name}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace == 0:
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_ref": {"value": _median_ref(untraced), "unit": "ref"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            report_bytes = sum((d / "report.json").stat().st_size for d in out_dirs)
            metrics = layer_metrics(tracer, roots, traced, untraced, reports, report_bytes)
            tracer.dump(OUT / f"{tag}-spans.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "correct": gate.incorrect == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    record = {
        "stamp": machine_stamp(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": [call.doc for call in calls],
        "setup_samples_s": setup,
        "untraced_passes": [{"wall_s": p.wall, "ref_units": p.ref_units} for p in untraced],
        "traced_passes": [{"wall_s": p.wall, "ref_units": p.ref_units} for p in traced],
        "problems": gate.problems,
        "result": result,
    }
    with open(OUT / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}: {len(calls)} calls per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    if args.trace == 0:
        print(f"  setup_s     {metrics['setup_s']['value']:10.4f} s   median of {len(setup)} fresh-process set-ups")
        print(f"  wall_s      {statistics.median(p.wall for p in untraced):10.4f} s   median of {len(untraced)} passes")
        print(f"  wall_ref    {metrics['wall_ref']['value']:10.4f} ref median of {len(untraced)} passes, "
              "in reference-kernel times")
        print(f"  peak_rss_mb {peak_rss_mb:10.1f} MB  ru_maxrss of this process")
    else:
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"  error_rate  {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.4f}   "
          f"(calls failed / attempted)")
    for p in gate.problems:
        print(f"  problem: {p}")
    print(f"  results: {(OUT / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
