"""Naive event-construction simulator, for debugging and cross-validation.

Materializes every arrival: per slot a Poisson batch with uniform epochs,
one independent Exp(mu_i) service per queue for each arrival.  O(events)
time and memory, so only suitable at small scale; the production engine in
``coxq.sim`` realizes the same law without per-arrival work.  The optional
event log carries epochs and per-queue departure times, from which tests
verify the birth-death structure of each queue's path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import spawn_streams
from .errors import ResourceError
from .sim import SimConfig, Trajectory

__all__ = ["EventLog", "simulate_events"]

_MAX_EXPECTED_EVENTS = 5e6


@dataclass
class EventLog:
    """Arrival epochs and departure times (epoch + service) per queue, one replication."""

    epochs: np.ndarray  # (n_events,)
    departures: np.ndarray  # (n_events, d)
    initial_departures: list[np.ndarray]  # per queue, departure times of initial jobs


def simulate_events(config: SimConfig, keep_logs: bool = False):
    """Simulate by explicit event construction; returns (Trajectory, logs | None)."""
    t_end = config.grid[-1]
    expected = config.scaling.N * config.env.mean * t_end * config.replications
    if expected > _MAX_EXPECTED_EVENTS:
        raise ResourceError(
            f"reference simulator asked for {expected:.2e} expected events; "
            "use coxq.sim.simulate for runs of this size"
        )
    h = config.scaling.delta_n
    N = config.scaling.N
    d = config.queues.d
    mu = np.asarray(config.queues.mu)
    n_slots = math.ceil(t_end / h) if t_end > 0 else 0
    grid = np.asarray(config.grid)
    counts = np.zeros((config.replications, grid.size, d), dtype=np.int64)
    logs = [] if keep_logs else None

    for r, rng in enumerate(spawn_streams(config.seed, config.replications)):
        rates = config.env.sample(rng, n_slots)
        widths = np.minimum((np.arange(n_slots) + 1) * h, t_end) - np.arange(n_slots) * h
        batch = rng.poisson(N * rates * widths)
        epochs = np.concatenate(
            [j * h + rng.uniform(0.0, widths[j], size=batch[j]) for j in range(n_slots)]
        ) if n_slots else np.empty(0)
        services = rng.exponential(1.0, size=(epochs.size, d)) / mu
        departures = epochs[:, None] + services
        init_dep = [
            rng.exponential(1.0 / mu[i], size=config.initial_counts[i])
            for i in range(d)
        ]
        for g, t in enumerate(grid):
            alive = (epochs <= t)[:, None] & (departures > t)
            counts[r, g, :] = alive.sum(axis=0)
            for i in range(d):
                counts[r, g, i] += int((init_dep[i] > t).sum())
        if keep_logs:
            logs.append(EventLog(epochs=epochs, departures=departures, initial_departures=init_dep))

    return Trajectory(times=grid, counts=counts), logs
