"""The benchmark's three workloads, generated from a workload seed.

Each workload is a list of CLI calls, one experiment config each.  The
shapes mirror the shipped configs named in README.md, but are written out
here so that an edit to ``configs/`` cannot change the benchmark.  The seed
picks every config's Monte Carlo seed (and, for ``simulate``, the initial
counts); the same seed always gives the same configs.

Replication counts are fixed here.  Each is large enough that a criterion
other than the Anderson-Darling normality test fails on a correct program
far less often than once in a thousand seeds (README.md has the screening
numbers), and small enough that one pass takes a few seconds.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("stationary", "transient", "tail")
# the ReferenceKernel kind (run.py) that loads the machine like each workload's hot layer
REFERENCE_KERNEL = {"stationary": "mixed", "transient": "scalar", "tail": "memory"}

EXPONENTIAL = {"family": "exponential", "rate": 1.0}
TWO_ATOMS = {"family": "discrete", "values": [0.5, 2.0], "probs": [0.5, 0.5]}

# transient `simulate` call: d = 3 queues in exact per-slot mode
SIM_N = 200
SIM_MU = (1.0, 2.0, 0.5)
SIM_HORIZON = 4.0
SIM_GRID = [round(0.1 * k, 10) for k in range(1, 41)]


@dataclass(frozen=True)
class Call:
    name: str
    doc: dict

    @property
    def kind(self) -> str:
        return self.doc["kind"]


def _ldp(env, alpha, t, a, n_grid, reps, seed):
    return {
        "kind": "ldp-check",
        "env": env,
        "queues": {"mu": [1.0]},
        "delta": 1.0,
        "alpha": alpha,
        "t": t,
        "a": a,
        "N_grid": n_grid,
        "replications": reps,
        "seed": seed,
    }


def make_calls(workload: str, seed: int) -> list[Call]:
    """The workload's CLI calls; the first one is also rerun in a fresh process."""
    rng = random.Random(seed)

    def s() -> int:
        return rng.getrandbits(32)

    if workload == "stationary":
        return [
            Call("clt", {
                "kind": "clt-check", "env": EXPONENTIAL, "queues": {"mu": [1.0]},
                "delta": 2.0, "alpha": 1.0, "N_grid": [500, 2000],
                "replications": 4000, "seed": s(),
            }),
            Call("corr", {
                "kind": "corr-check", "env": EXPONENTIAL, "queues": {"mu": [1.0, 2.0]},
                "delta": 1.0, "alpha": 2.0, "N_grid": [2000],
                "replications": 4000, "seed": s(),
            }),
        ]
    if workload == "transient":
        fclt = Call("fclt", {
            "kind": "fclt-check", "env": EXPONENTIAL, "queues": {"mu": [1.0, 2.0]},
            "delta": 1.0, "alpha": 2.0, "t": 1.0, "N_grid": [2000],
            "replications": 16000, "seed": s(),
        })
        mean_rate = 1.0 / EXPONENTIAL["rate"]
        init = [int(SIM_N * mean_rate / mu * rng.uniform(0.5, 1.5)) for mu in SIM_MU]
        return [fclt, Call("simulate", {
            "kind": "simulate", "env": EXPONENTIAL, "queues": {"mu": list(SIM_MU)},
            "delta": 1.0, "alpha": 0.5, "N_grid": [SIM_N],
            "replications": 1500, "seed": s(),
            "horizon": SIM_HORIZON, "grid": SIM_GRID, "initial_counts": init,
        })]
    if workload == "tail":
        return [
            Call("ldp_fast", _ldp({"family": "deterministic", "value": 1.0}, 2.0, 40.0, 2.0,
                                  [50, 100, 200, 400], 20000, s())),
            Call("ldp_slow", _ldp(EXPONENTIAL, 0.5, 5.0, 1.5, [200, 400, 800, 1600], 40000, s())),
            Call("ldp_slow_discrete", _ldp(TWO_ATOMS, 0.5, 5.0, 1.5,
                                           [200, 400, 800, 1600], 40000, s())),
            Call("ldp_intermediate", _ldp(EXPONENTIAL, 1.0, 5.0, 1.5, [50, 100, 200], 8000, s())),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_configs(calls: list[Call], directory) -> list[str]:
    paths = []
    for call in calls:
        path = os.path.join(directory, f"{call.name}.json")
        with open(path, "w") as f:
            json.dump(call.doc, f, indent=1)
        paths.append(path)
    return paths


def check_outputs(call: Call, out_dir) -> list[str]:
    """Checks of one call's output files beyond its report's own criteria."""
    if call.kind == "ldp-check" and not os.path.exists(os.path.join(out_dir, "rates.json")):
        return ["rates.json missing"]
    if call.kind == "simulate":
        try:
            return _check_simulate(call.doc, out_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"simulate outputs unreadable: {exc!r}"]
    return []


def _check_simulate(doc: dict, out_dir) -> list[str]:
    """Sample means against the exact transient mean, and the CSV's row count.

    Exact per-slot mode makes every mean exact:
    E Q_i(t) = c_i e^(-mu_i t) + N E[L] (1 - e^(-mu_i t)) / mu_i.
    A bound of 6 standard errors over 120 means almost never fails by chance.
    """
    problems = []
    with open(os.path.join(out_dir, "moments.json")) as f:
        mom = json.load(f)
    n, mean_rate = doc["N_grid"][0], 1.0 / doc["env"]["rate"]
    for g, t in enumerate(mom["times"]):
        for i, mu in enumerate(doc["queues"]["mu"]):
            p = math.exp(-mu * t)
            exact = doc["initial_counts"][i] * p + n * mean_rate * (1.0 - p) / mu
            z = (mom["mean"][g][i] - exact) / max(mom["se_mean"][g][i], 1e-12)
            if abs(z) > 6.0:
                problems.append(f"mean at t={t} queue {i}: z={z:.2f}")
    with open(os.path.join(out_dir, "trajectories.csv")) as f:
        rows = sum(1 for _ in f) - 1
    expected = doc["replications"] * len(doc["grid"]) * len(doc["queues"]["mu"])
    if rows != expected:
        problems.append(f"trajectories.csv has {rows} rows, expected {expected}")
    return problems
