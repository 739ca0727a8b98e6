"""Layer-by-layer and end-to-end timings, written to ``BENCH_layers.json``.

Every layer is timed by direct calls into ``coxq`` (nothing is patched), as
the median of ``--repeats`` repeats (at least 5), at the shapes of the
benchmark's calls (``perfbench/workloads.py`` at workload seed 1, read the
way ``bench/ldp_screen.py`` reads it):

* ``spawn_streams`` per stream, and ``cell_table`` per table;
* ``sample_block_sums`` per block of rows, at the clt, corr and fclt tables;
* the importance sampler's per-block draw (``EnvSpec.block_sampler``'s
  draw, prepared once, outside the timing), with and without weights, at
  the ldp_slow, ldp_slow_discrete and ldp_intermediate tables, each N;
  beside it the one-call ``sample_block_sums_twisted`` per block and the
  preparation per run.  The cell counts, the weights and the tilt are
  ``ldp._tilt``'s;
* ``special.log_poisson_tail`` at every tail call's (m, R): the count's tail of
  each N's R rates (one rate for a constant layer), the stage that the
  importance sampler's pipeline runs while the next N's blocks draw;
* ``estimate_moments`` on the transient ``simulate`` trajectory, per
  replication, and ``trajectory_to_csv`` of that trajectory to a file in a
  temporary directory, per CSV row (one row per replication, grid time and
  queue);
* ``rate_slow`` and ``rate_intermediate`` at the tail calls' queries;
* both Monte Carlo engines per replication, each at W = 1 (``serial``) and, on
  more than one CPU, at the W that ``sim.block_workers`` gives here
  (``threaded``), with that W:
  ``simulate`` at the clt, corr and fclt calls' shapes and the transient
  ``simulate`` call's, and ``estimate_log_tails`` at each tail call's
  largest N alone and over its whole N grid (``workers`` the most W of its
  N).  ``simulate`` includes building its cell table, timed alone beside it
  (``cell_table_us``): the block loop, where the thinning and Poisson draws
  run, is the rest.

End to end, each ``configs/*.json`` runs through ``coxq.harness.run`` with no
output directory, beside the draw work ``sim.check_work`` predicts at each of
its N (``work``) and the run's ns per unit of that work (``ns_per_work``), and
once more through the CLI in a fresh process per repeat, whose peak RSS (the
median over repeats) is ``max_rss_mb``.  Last,
the tier-1 tests run once in a fresh process (``TIER1``, from the repository
root): ``tier1.wall_s`` is that process's wall time, beside the counts its
summary line gives (``tier1.passed``, ``tier1.xfailed`` and any other).  The
file is stamped with nproc, the CPUs and the most threads the block
scheduler may use, Python, numpy and the commit (``-dirty`` for a tree with
changes not committed); compare files only from the same machine, and on a
shared one only from interleaved runs.

    PYTHONPATH=src python bench/layers.py [--repeats 7] [--out BENCH_layers.json]

With ``--against PATH`` the script compares this checkout with the one at
PATH instead, and writes ``BENCH_ab.json``.  Each of ``--pairs`` pairs runs
this script's layers and the configs through ``coxq.harness.run`` (timings
only: no peak RSS, no tier-1) once on each checkout's ``src``, each in a
fresh process, the two in alternating order from pair to pair; every pair is
run with one worker (the child pins itself to one CPU with
``os.sched_setaffinity`` before it imports ``coxq``) and with every CPU.  Per
setting and timing the file holds the per-pair ratios this/PATH, their
median, in how many pairs this checkout was lower, and PATH's quartiles; it
is stamped with both commits.

    PYTHONPATH=src python bench/layers.py --against ../parent [--pairs 10] [--repeats 7]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from ldp_screen import ROOT, load_workloads

from coxq import sim
from coxq.analytic import QueueParams, stationary_mean
from coxq.env import ScalingRegime, env_from_json, spawn_streams
from coxq.harness import ExperimentConfig, run
from coxq.ldp import RateQuery, _tilt, classify_regime, estimate_log_tails, rate_intermediate, rate_slow
from coxq.sim import WARM_DECADES, SimConfig, block_rows, cell_table, estimate_moments, simulate
from coxq.special import log_poisson_tail

SEED = 1  # the workload seed whose calls give the shapes


def median_s(fn, repeats: int, inner: int = 1) -> float:
    """Median over repeats of the seconds per call of fn, called inner times a repeat."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def commit(root) -> str | None:
    """The commit checked out at root, "-dirty" when the tree holds changes not committed."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=root,
                              capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def stamp() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "block_cpus": sim._CPUS,
            "max_workers": sim._MAX_WORKERS, "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(), "commit": commit(ROOT)}


@contextlib.contextmanager
def serial():
    """Every block on the calling thread, as on one CPU."""
    saved = sim._CPUS
    sim._CPUS = 1
    try:
        yield
    finally:
        sim._CPUS = saved


def engine(out: dict, key: str, fn, reps: int, blocks: int, block_entries: int, repeats: int) -> None:
    """fn, one engine run of reps replications in blocks of block_entries rate
    draws, in us per replication at W = 1 and, on more than one CPU, at this
    machine's W.  The two alternate, so that a change in how much of a second
    CPU the machine gives hits both alike."""
    times = {"serial": [], "threaded": []} if sim._CPUS > 1 else {"serial": []}
    for _ in range(repeats):
        for label, seconds in times.items():
            with serial() if label == "serial" else contextlib.nullcontext():
                seconds.append(median_s(fn, 1))
    for label, seconds in times.items():
        out[f"{key}.{label}_us_per_rep"] = 1e6 * statistics.median(seconds) / reps
    out[f"{key}.workers"] = sim.block_workers(blocks, block_entries)


def table_of(doc: dict, N: int, grid) -> tuple:
    """(cell table, B rows per block) of a call's config at N and read times grid."""
    h = ScalingRegime(N, doc["alpha"], doc["delta"]).delta_n
    table = cell_table(tuple(doc["queues"]["mu"]), h, tuple(grid), doc.get("block_tol", 0.01))
    return table, block_rows(table.slots.size)


def predicted_work(doc: dict) -> list[int]:
    """``sim.check_work`` at each N of a config document, on the cell table its kind
    draws: the simulate grid, the read time t, or the stationary warm-up."""
    kind, env = doc["kind"], env_from_json(doc["env"])
    if kind == "analytic":  # no Monte Carlo
        return []
    works = []
    for N in doc["N_grid"]:
        if kind in ("fclt-check", "ldp-check"):
            grid = (doc["t"],)
        elif kind == "simulate":
            grid = tuple(doc["grid"])
        else:
            grid = warm_grid(doc, N)
        one_row = kind == "ldp-check" and env.variance == 0  # a constant rate layer
        works.append(sim.check_work(table_of(doc, N, grid)[0], env, doc["replications"], N, one_row))
    return works


def warm_grid(doc: dict, N: int) -> tuple:
    """The stationary kinds' one read time: the warm-up 40/min(mu) in whole slots."""
    h = ScalingRegime(N, doc["alpha"], doc["delta"]).delta_n
    return (math.ceil(WARM_DECADES / min(doc["queues"]["mu"]) / h - 1e-9) * h,)


def is_inputs(doc: dict, N: int):
    """(query, counts, wk, etas, m, theta*) of the importance sampler's run at N:
    counts, wk and the tilt scale c are ``ldp._tilt``'s, and etas = c wk; theta*
    is 0 in the fast regime, which does not tilt."""
    query = RateQuery(env=env_from_json(doc["env"]), mu=doc["queues"]["mu"][0], delta=doc["delta"],
                      alpha=doc["alpha"], t=doc["t"], a=doc["a"])
    rate = {"slow_unbounded": rate_slow, "intermediate": rate_intermediate}.get(classify_regime(query))
    theta = rate(query).theta_star if rate else 0.0
    counts, wk, c, _ = _tilt(query, N, doc["replications"], theta, doc.get("block_tol", 0.01))
    return query, counts, wk, c * wk, math.ceil(N * doc["a"] - 1e-9), theta


def layers(repeats: int) -> dict:
    workloads = load_workloads()
    calls = {c.name: c.doc for w in workloads.WORKLOADS for c in workloads.make_calls(w, SEED)}
    out = {}

    out["spawn_streams.us_per_stream"] = 1e6 * median_s(lambda: spawn_streams(SEED, 256), repeats) / 256
    slow = calls["ldp_slow"]
    for N in slow["N_grid"]:
        out[f"cell_table.ldp_slow.N{N}.us_per_table"] = 1e6 * median_s(
            lambda: table_of(slow, N, (slow["t"],)), repeats)

    # the simulator's plain draw, per block of B rows
    for name, grid in (("clt", warm_grid), ("corr", warm_grid), ("fclt", lambda d, N: (d["t"],))):
        doc = calls[name]
        env = env_from_json(doc["env"])
        for N in doc["N_grid"]:
            table, rows = table_of(doc, N, grid(doc, N))
            rng = spawn_streams(SEED, 1)[0]
            key = f"sample_block_sums.{name}.N{N}"
            out[f"{key}.us_per_block"] = 1e6 * median_s(
                lambda: env.sample_block_sums(rng, table.slots, rows), repeats, 20)
            out[f"{key}.rows_x_cells"] = [rows, int(table.slots.size)]

    # the importance sampler's twisted draw, per block of B rows
    for name in ("ldp_slow", "ldp_slow_discrete", "ldp_intermediate"):
        doc = calls[name]
        for N in doc["N_grid"]:
            query, counts, wk, etas, *_ = is_inputs(doc, N)
            env, rows, rng = query.env, block_rows(counts.size), spawn_streams(SEED, 1)[0]
            for label, weights in (("weights", wk), ("no_weights", None)):
                key = f"twisted.{name}.N{N}.{label}"
                draw = env.block_sampler(counts, etas, weights)
                out[f"{key}.is_draw_us_per_block"] = 1e6 * median_s(
                    lambda: draw(rng, rows), repeats, 20)
                out[f"{key}.one_call_us_per_block"] = 1e6 * median_s(
                    lambda: env.sample_block_sums_twisted(etas, rng, counts, rows, weights),
                    repeats, 20)
                out[f"{key}.prepare_us_per_run"] = 1e6 * median_s(
                    lambda: env.block_sampler(counts, etas, weights), repeats, 20)
            out[f"twisted.{name}.N{N}.rows_x_cells"] = [rows, int(counts.size)]

    # the count's tail at each tail call's (m, R): R of its rates at each N, one
    # for a constant rate layer, as the importance sampler weighs them
    for name in ("ldp_fast", "ldp_slow", "ldp_slow_discrete", "ldp_intermediate"):
        doc = calls[name]
        for N in doc["N_grid"]:
            query, counts, wk, etas, m, _ = is_inputs(doc, N)
            size = 1 if query.env.variance == 0 else doc["replications"]
            draw = query.env.block_sampler(counts, etas, wk)
            rows = block_rows(counts.size)
            streams = spawn_streams(SEED, -(-size // rows))
            lam = N * np.concatenate([draw(rng, rows) for rng in streams])[:size]
            out[f"log_poisson_tail.{name}.N{N}.ms"] = 1e3 * median_s(
                lambda: log_poisson_tail(m, lam), repeats)

    # estimate_moments on the transient simulate call's trajectory
    doc = calls["simulate"]
    config = SimConfig(
        env=env_from_json(doc["env"]), queues=QueueParams(tuple(doc["queues"]["mu"])),
        scaling=ScalingRegime(doc["N_grid"][0], doc["alpha"], doc["delta"]), grid=tuple(doc["grid"]),
        initial_counts=tuple(doc["initial_counts"]), replications=doc["replications"], seed=doc["seed"],
    )
    traj = simulate(config)
    out["estimate_moments.transient.us_per_rep"] = (
        1e6 * median_s(lambda: estimate_moments(traj), repeats) / traj.replications)
    with tempfile.TemporaryDirectory() as tmp:
        out["trajectory_to_csv.transient.us_per_row"] = 1e6 * median_s(
            lambda: sim.trajectory_to_csv(traj, os.path.join(tmp, "trajectories.csv")), repeats
        ) / traj.counts.size

    for name, rate in (("ldp_slow", rate_slow), ("ldp_slow_discrete", rate_slow),
                       ("ldp_intermediate", rate_intermediate)):
        query = is_inputs(calls[name], calls[name]["N_grid"][0])[0]
        out[f"{rate.__name__}.{name}.ms"] = 1e3 * median_s(lambda: rate(query), repeats)

    # the simulator at the shapes of the calls that simulate, as the harness runs
    # them: clt and corr from empty to the stationary warm-up, fclt from the
    # rounded stationary mean to its read time, the simulate call as written
    fclt, transient = calls["fclt"], calls["simulate"]
    fclt_env = env_from_json(fclt["env"])
    shapes = [(name, N, warm_grid(calls[name], N), None)
              for name in ("clt", "corr") for N in calls[name]["N_grid"]]
    shapes += [("fclt", N, (fclt["t"],), tuple(round(N * stationary_mean(fclt_env, m)) for m in fclt["queues"]["mu"]))
               for N in fclt["N_grid"]]
    shapes.append(("simulate", transient["N_grid"][0], tuple(transient["grid"]),
                   tuple(transient["initial_counts"])))
    for name, N, grid, init in shapes:
        doc = calls[name]
        mu = tuple(doc["queues"]["mu"])
        config = SimConfig(
            env=env_from_json(doc["env"]), queues=QueueParams(mu),
            scaling=ScalingRegime(N, doc["alpha"], doc["delta"]), grid=grid,
            initial_counts=init or (0,) * len(mu), replications=doc["replications"], seed=doc["seed"],
        )
        table, rows = table_of(doc, N, grid)
        key = f"simulate.{name}.N{N}"
        out[f"{key}.cell_table_us"] = 1e6 * median_s(lambda: table_of(doc, N, grid), repeats)
        engine(out, key, lambda: simulate(config), config.replications,
               -(-config.replications // rows), rows * table.slots.size, repeats)

    # the importance sampler at each tail call's largest N alone
    for name in ("ldp_fast", "ldp_slow", "ldp_slow_discrete", "ldp_intermediate"):
        doc = calls[name]
        N, R = doc["N_grid"][-1], doc["replications"]
        query, counts, *_, theta = is_inputs(doc, N)
        rows = block_rows(counts.size)
        blocks, size = (1, 1) if query.env.variance == 0 else (-(-R // rows), rows)
        point = [(N, doc["seed"])]
        engine(out, f"estimate_log_tails.{name}.N{N}",
               lambda: estimate_log_tails(query, point, R, theta, doc.get("block_tol", 0.01)),
               R, blocks, size * counts.size, repeats)

    # the importance sampler over each tail call's whole N grid, per replication of
    # every N; workers is the most W of its N
    for name in ("ldp_fast", "ldp_slow", "ldp_slow_discrete", "ldp_intermediate"):
        doc = calls[name]
        R, tol = doc["replications"], doc.get("block_tol", 0.01)
        points = [(N, 1000 + N) for N in doc["N_grid"]]
        query, *_, theta = is_inputs(doc, points[0][0])
        shapes = []  # (blocks, rate draws per block) at each N
        for N, _ in points:
            cells = is_inputs(doc, N)[1].size
            rows = block_rows(cells)
            shapes.append((1, cells) if query.env.variance == 0 else (-(-R // rows), rows * cells))
        blocks, entries = max(shapes, key=lambda shape: sim.block_workers(*shape))
        engine(out, f"estimate_log_tails.{name}", lambda: estimate_log_tails(query, points, R, theta, tol),
               R * len(points), blocks, entries, repeats)
    return out


# a fresh interpreter runs one CLI call and prints its own peak RSS in KiB last:
# VmHWM, since Linux carries ru_maxrss over from the forking process through exec
RSS_PROBE = ("import sys; from coxq.cli import main; code = main(sys.argv[1:]); "
             "print(next(line.split()[1] for line in open('/proc/self/status') "
             "if line.startswith('VmHWM:'))); sys.exit(code)")


def fresh_max_rss_mb(config, path, repeats: int) -> float:
    """Median peak RSS in MB of ``coxq <kind> --config path`` in a fresh process."""
    peaks = []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as out:
            proc = subprocess.run([sys.executable, "-c", RSS_PROBE, config.kind, "--config", str(path),
                                   "--out", out], env=env, capture_output=True, text=True, timeout=600)
        if proc.returncode not in (0, 1):  # 1: a criterion failed, the run completed
            raise RuntimeError(f"{path.name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        peaks.append(int(proc.stdout.split()[-1]) / 1024)
    return statistics.median(peaks)


def end_to_end(repeats: int, rss: bool = True) -> dict:
    out = {}
    for path in sorted(ROOT.glob("configs/*.json")):
        doc = json.loads(path.read_text())
        config = ExperimentConfig.from_json(doc)
        seconds = out[f"harness.run.{path.stem}.s"] = median_s(lambda: run(config), repeats)
        work = predicted_work(doc)
        if work:
            out[f"harness.run.{path.stem}.work"] = work
            out[f"harness.run.{path.stem}.ns_per_work"] = 1e9 * seconds / sum(work)
        if rss:
            out[f"harness.run.{path.stem}.max_rss_mb"] = fresh_max_rss_mb(config, path, repeats)
    return out


# the tier-1 test command, run from the repository root with src on PYTHONPATH
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def tier1() -> dict:
    """Wall time of one fresh-process run of the tier-1 tests, and its outcome counts."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=1800)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1]  # such as "647 passed, 2 xfailed in 32.18s"
    counts = {"passed": 0, "xfailed": 0, **{w: int(n) for n, w in re.findall(r"(\d+) (\w+)", summary)}}
    return {"tier1.wall_s": wall, **{f"tier1.{w}": n for w, n in counts.items()}}


def timings(repeats: int) -> dict:
    """Every timing of ``layers`` and of the configs through ``harness.run``, in seconds or us."""
    rows = {**layers(repeats), **end_to_end(repeats, rss=False)}
    return {key: value for key, value in rows.items() if isinstance(value, float)}


# a fresh interpreter that pins itself to its first argv[1] CPUs (0: all of them)
# before it imports coxq, so the block scheduler reads that many, then prints
# timings() of this script against the src on its PYTHONPATH as JSON
AB_CHILD = ("import json, os, sys; cpus = int(sys.argv[1]); "
            "cpus and os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus]); "
            "sys.path.insert(0, sys.argv[2]); import layers; "
            "print(json.dumps(layers.timings(int(sys.argv[3]))))")
AB_SETTINGS = {"one_worker": 1, "all_cpus": 0}


def ab_child(root, cpus: int, repeats: int) -> dict:
    """timings() of the checkout at root, in a fresh process on cpus CPUs (0: all)."""
    proc = subprocess.run([sys.executable, "-c", AB_CHILD, str(cpus), str(ROOT / "bench"), str(repeats)],
                          env=dict(os.environ, PYTHONPATH=str(Path(root) / "src")),
                          capture_output=True, text=True, timeout=3600)
    if proc.returncode:
        raise RuntimeError(f"{root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def ab_summary(mine: list[dict], theirs: list[dict]) -> dict:
    """Per timing that both sides have, over the pairs (mine[i], theirs[i]): the
    ratios mine/theirs, their median, in how many pairs mine was lower, and the
    quartiles of theirs."""
    out = {}
    for key in sorted(mine[0].keys() & theirs[0].keys()):
        ratios = [a[key] / b[key] for a, b in zip(mine, theirs)]
        out[key] = {"ratios": ratios, "median_ratio": statistics.median(ratios),
                    "lower": sum(ratio < 1 for ratio in ratios),
                    "against_quartiles": statistics.quantiles([b[key] for b in theirs], n=4)}
    return out


def ab(other, pairs: int, repeats: int) -> dict:
    """BENCH_ab.json's document: this checkout against the one at other."""
    runs = {name: ([], []) for name in AB_SETTINGS}  # (this checkout's, other's)
    for i in range(pairs):
        order = (1, 0) if i % 2 == 0 else (0, 1)  # the other checkout first in even pairs
        for name, cpus in AB_SETTINGS.items():
            for side in order:
                runs[name][side].append(ab_child((ROOT, other)[side], cpus, repeats))
    return {"machine": stamp(), "against": {"path": str(other), "commit": commit(other)},
            "pairs": pairs, "repeats": repeats, "workload_seed": SEED,
            **{name: ab_summary(mine, theirs) for name, (mine, theirs) in runs.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="at least 5")
    parser.add_argument("--out", default=None, help="default BENCH_layers.json, or BENCH_ab.json with --against")
    parser.add_argument("--against", help="another checkout's root, to compare this one with")
    parser.add_argument("--pairs", type=int, default=10, help="with --against: at least 3")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    if args.against:
        if args.pairs < 3:
            parser.error("--pairs must be at least 3")
        doc = ab(Path(args.against).resolve(), args.pairs, args.repeats)
        with open(args.out or ROOT / "BENCH_ab.json", "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        for name in AB_SETTINGS:
            for key, row in doc[name].items():
                print(f"{name:<11} {key:<64} x{row['median_ratio']:.3f}  lower {row['lower']}/{args.pairs}  "
                      f"against q {' '.join(f'{q:.4g}' for q in row['against_quartiles'])}")
        return 0
    doc = {"machine": stamp(), "repeats": args.repeats, "workload_seed": SEED,
           "layers": layers(args.repeats), "end_to_end": {**end_to_end(args.repeats), **tier1()}}
    with open(args.out or ROOT / "BENCH_layers.json", "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for section in ("layers", "end_to_end"):
        for key, value in doc[section].items():
            print(f"{key:<64} {value if isinstance(value, list) else f'{value:.4g}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
