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
  preparation per run.  A checkout without ``block_sampler`` draws every
  block through the one call, so there the two per-block lines read the same
  and the preparation about 0;
* ``_log_poisson_tail`` at 40,000 rates, the ldp_slow run's at N = 1600;
* ``estimate_moments`` on the transient ``simulate`` trajectory, per
  replication;
* ``rate_slow`` and ``rate_intermediate`` at the tail calls' queries.

End to end, each ``configs/*.json`` runs through ``coxq.harness.run`` with no
output directory.  The file is stamped with nproc, Python, numpy and the
commit (``-dirty`` for a tree with changes not committed); compare files only
from the same machine, and on a shared one only from interleaved runs.

    PYTHONPATH=src python bench/layers.py [--repeats 7] [--out BENCH_layers.json]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
from ldp_screen import ROOT, load_workloads

from coxq.analytic import QueueParams
from coxq.env import ScalingRegime, env_from_json, spawn_streams
from coxq.harness import ExperimentConfig, run
from coxq.ldp import RateQuery, _log_poisson_tail, classify_regime, rate_intermediate, rate_slow
from coxq.sim import _WARM_DECADES, SimConfig, block_rows, cell_table, estimate_moments, simulate

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


def stamp() -> dict:
    try:
        # the commit, "-dirty" when the tree holds changes not committed
        commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(), "commit": commit}


def table_of(doc: dict, N: int, grid) -> tuple:
    """(cell table, B rows per block) of a call's config at N and read times grid."""
    h = ScalingRegime(N, doc["alpha"], doc["delta"]).delta_n
    table = cell_table(tuple(doc["queues"]["mu"]), h, tuple(grid), doc.get("block_tol", 0.01))
    return table, block_rows(table.slots.size)


def warm_grid(doc: dict, N: int) -> tuple:
    """The stationary kinds' one read time: the warm-up 40/min(mu) in whole slots."""
    h = ScalingRegime(N, doc["alpha"], doc["delta"]).delta_n
    return (math.ceil(_WARM_DECADES / min(doc["queues"]["mu"]) / h - 1e-9) * h,)


def is_inputs(doc: dict, N: int):
    """(query, counts, wk, etas, m) of the importance sampler's run at N, as
    ldp._log_weights forms them."""
    env, mu = env_from_json(doc["env"]), doc["queues"]["mu"][0]
    query = RateQuery(env=env, mu=mu, delta=doc["delta"], alpha=doc["alpha"], t=doc["t"], a=doc["a"])
    regime = classify_regime(query)
    table, _ = table_of(doc, N, (doc["t"],))
    counts = table.slots
    wk = table.weights[0][:, 0] / counts
    h = ScalingRegime(N, doc["alpha"], doc["delta"]).delta_n
    if regime == "slow_unbounded":
        c = rate_slow(query).theta_star / (-math.expm1(-mu * h) / mu)
    elif regime == "intermediate":
        c = N * math.expm1(rate_intermediate(query).theta_star / doc["delta"])
    else:
        c = 0.0
    return query, counts, wk, c * wk, math.ceil(N * doc["a"] - 1e-9)


def is_draw(env, counts, etas, weights):
    """The importance sampler's per-block draw: block_sampler's, prepared here,
    or the one-call draw on a checkout without it."""
    if hasattr(env, "block_sampler"):
        return env.block_sampler(counts, etas, weights)
    return lambda rng, size: env.sample_block_sums_twisted(etas, rng, counts, size, weights)


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
            query, counts, wk, etas, _ = is_inputs(doc, N)
            env, rows, rng = query.env, block_rows(counts.size), spawn_streams(SEED, 1)[0]
            for label, weights in (("weights", wk), ("no_weights", None)):
                key = f"twisted.{name}.N{N}.{label}"
                draw = is_draw(env, counts, etas, weights)
                out[f"{key}.is_draw_us_per_block"] = 1e6 * median_s(
                    lambda: draw(rng, rows), repeats, 20)
                out[f"{key}.one_call_us_per_block"] = 1e6 * median_s(
                    lambda: env.sample_block_sums_twisted(etas, rng, counts, rows, weights),
                    repeats, 20)
                out[f"{key}.prepare_us_per_run"] = 1e6 * median_s(
                    lambda: is_draw(env, counts, etas, weights), repeats, 20)
            out[f"twisted.{name}.N{N}.rows_x_cells"] = [rows, int(counts.size)]

    # the count's tail at 40,000 of the ldp_slow run's rates at its largest N
    N = slow["N_grid"][-1]
    query, counts, wk, etas, m = is_inputs(slow, N)
    draw = is_draw(query.env, counts, etas, wk)
    rows = block_rows(counts.size)
    streams = spawn_streams(SEED, -(-40_000 // rows))
    lam = N * np.concatenate([draw(rng, rows) for rng in streams])[:40_000]
    out["_log_poisson_tail.ldp_slow.40000_rates.ms"] = 1e3 * median_s(
        lambda: _log_poisson_tail(m, lam), repeats)

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

    for name, rate in (("ldp_slow", rate_slow), ("ldp_slow_discrete", rate_slow),
                       ("ldp_intermediate", rate_intermediate)):
        query = is_inputs(calls[name], calls[name]["N_grid"][0])[0]
        out[f"{rate.__name__}.{name}.ms"] = 1e3 * median_s(lambda: rate(query), repeats)
    return out


def end_to_end(repeats: int) -> dict:
    out = {}
    for path in sorted(ROOT.glob("configs/*.json")):
        config = ExperimentConfig.from_json(json.loads(path.read_text()))
        out[f"harness.run.{path.stem}.s"] = median_s(lambda: run(config), repeats)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="at least 5")
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    doc = {"machine": stamp(), "repeats": args.repeats, "workload_seed": SEED,
           "layers": layers(args.repeats), "end_to_end": end_to_end(args.repeats)}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for section in ("layers", "end_to_end"):
        for key, value in doc[section].items():
            print(f"{key:<64} {value if isinstance(value, list) else f'{value:.4g}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
