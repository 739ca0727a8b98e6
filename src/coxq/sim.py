"""Monte Carlo simulation of d coupled infinite-server queues.

One shared arrival stream drives all queues: the rate is resampled every
scaled slot (length delta N^-alpha), every arrival enters all d queues, and
queue i serves with an independent Exp(mu_i) clock.  Counts are read on a
sorted grid of absolute times t >= 0; the run ends at the last grid time.

The engine realizes the exact joint law without materializing individual
arrivals.  Conditionally on the rate path, the jobs from one inter-grid
interval that are still alive at the interval's right endpoint split into
independent Poisson counts per alive-pattern (one category per non-empty
subset of queues), with intensities given by closed-form integrals of the
rate times the survival pattern.  Between grid times every category thins
by sequential per-queue binomials (memorylessness makes the joint evolution
depend on the category only).  Initial jobs are queue-specific populations
thinned the same way.

Rates are drawn per cell of ``cell_table``, a time-ordered list of cells of
whole slots shared by every replication (and by ``ldp.estimate_log_tail``).
When the scaled slot length h is below block_tol/sum(mu), the slots between
two grid times form blocks of L = max(1, int(block_tol/(sum(mu) h))) slots,
restarting at every grid time; otherwise (and always at block_tol = 0) every
cell is one slot and is drawn exactly.  A slot that straddles a grid time is
a single-slot cell shared by the intervals on both sides, so the cells tile
every interval and means are exact.  A block's rate mass keeps its exact
distribution (gamma sums, multinomial counts); only the pairing of rates to
survival weights inside a block is averaged, which keeps the relative
distortion of second moments of order block_tol^2 (about 1e-5 at the
default block_tol = 0.01).

Replication r consumes only the r-th stream spawned from the seed, so
results are bit-identical across runs and across any replication-level
execution schedule; outputs are merged in replication order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import QueueParams
from .env import EnvSpec, ScalingRegime, spawn_streams
from .errors import InsufficientData, RangeError, ResourceError

__all__ = [
    "CellTable",
    "cell_table",
    "SimConfig",
    "Trajectory",
    "MomentReport",
    "simulate",
    "sample_stationary",
    "estimate_moments",
    "normalized_endpoint",
    "trajectory_to_csv",
]

# Warm-up of 40/mu mean residual lifetimes leaves a relative bias <= e^-40,
# far below Monte Carlo noise at any feasible replication count.
_WARM_DECADES = 40.0
_MAX_EXACT_SLOTS = 5_000_000
# Expected arrival events per run (N E[L] grid[-1] R) above which simulate refuses.
_EVENT_BUDGET = 1e9


@dataclass(frozen=True)
class SimConfig:
    env: EnvSpec
    queues: QueueParams
    scaling: ScalingRegime
    grid: tuple[float, ...]
    initial_counts: tuple[int, ...]
    replications: int
    seed: int
    block_tol: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(t) for t in self.grid))
        object.__setattr__(self, "initial_counts", tuple(int(c) for c in self.initial_counts))
        if len(self.grid) == 0:
            raise ValueError("grid must be non-empty")
        if any(t0 > t1 for t0, t1 in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be sorted")
        if self.grid[0] < 0:
            raise ValueError("grid times must be non-negative")
        if len(self.initial_counts) != self.queues.d:
            raise ValueError("initial_counts must have one entry per queue")
        if any(c < 0 for c in self.initial_counts):
            raise ValueError("initial_counts must be non-negative")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.block_tol < 0:
            raise ValueError("block_tol must be non-negative")


@dataclass
class Trajectory:
    """Queue counts per replication on the grid."""

    times: np.ndarray  # (G,)
    counts: np.ndarray  # (R, G, d) non-negative integers

    @property
    def replications(self) -> int:
        return self.counts.shape[0]

    @property
    def d(self) -> int:
        return self.counts.shape[2]


@dataclass
class MomentReport:
    """Sample moments across replications, with standard errors."""

    times: np.ndarray  # (G,)
    mean: np.ndarray  # (G, d)
    variance: np.ndarray  # (G, d), ddof=1
    covariance: np.ndarray  # (G, d, d), ddof=1
    se_mean: np.ndarray  # (G, d), sample sd / sqrt(R)
    se_variance: np.ndarray  # (G, d), moment-based SE of the variance estimate
    replications: int

    def to_json(self) -> dict:
        return {
            "schema": "coxq-moments/1",
            "replications": self.replications,
            "times": self.times.tolist(),
            "mean": self.mean.tolist(),
            "variance": self.variance.tolist(),
            "covariance": self.covariance.tolist(),
            "se_mean": self.se_mean.tolist(),
            "se_variance": self.se_variance.tolist(),
        }


# ---------------------------------------------------------------------------
# Cell table: the deterministic skeleton shared by every replication.


@dataclass(frozen=True)
class CellTable:
    """Whole-slot cells in time order, and the cells that tile each grid interval.

    ``slots[c]`` is the number of whole slots in cell c.  ``cells[g]`` is the
    contiguous range of cells tiling [t_(g-1), t_g) (with t_(-1) = 0), and
    ``weights[g]`` holds their survival-pattern weights at t_g, one column per
    non-empty alive pattern (bitmask - 1).  A cell that straddles a grid time
    belongs to the ranges on both sides, each with the weight of its own piece.
    ``blocked`` says whether cells were sized by block_tol (sampled as block
    sums) or are single slots (sampled slot by slot).
    """

    slots: np.ndarray
    cells: tuple[slice, ...]
    weights: tuple[np.ndarray, ...]
    blocked: bool


def _category_weights(edges_a, edges_b, t_end: float, mu: tuple[float, ...]) -> np.ndarray:
    """Per-cell weights for every non-empty alive pattern at t_end.

    Pattern S gets integral of prod_{i in S} p_i(s) prod_{i not in S} (1 - p_i(s))
    with p_i(s) = exp(-mu_i (t_end - s)); expanded by inclusion-exclusion over
    supersets into closed-form exponential integrals.
    """
    d = len(mu)
    a = np.asarray(edges_a, dtype=float)
    b = np.asarray(edges_b, dtype=float)
    n_cells = a.size
    sub = np.empty((n_cells, 2**d))
    for t_mask in range(2**d):
        mu_t = sum(mu[i] for i in range(d) if t_mask >> i & 1)
        if mu_t == 0.0:
            sub[:, t_mask] = b - a
        else:
            sub[:, t_mask] = (np.exp(-mu_t * (t_end - b)) - np.exp(-mu_t * (t_end - a))) / mu_t
    w = np.zeros((n_cells, 2**d - 1))
    for s_mask in range(1, 2**d):
        acc = np.zeros(n_cells)
        for t_mask in range(2**d):
            if t_mask & s_mask == s_mask:
                sign = -1.0 if (bin(t_mask ^ s_mask).count("1") % 2) else 1.0
                acc += sign * sub[:, t_mask]
        w[:, s_mask - 1] = np.maximum(acc, 0.0)
    return w


def cell_table(mu: tuple[float, ...], h: float, grid, block_tol: float) -> CellTable:
    """Cells of whole slots of length h covering [0, grid[-1]), cut at every grid time.

    With h < block_tol/sum(mu) the slots between grid times are grouped into
    blocks of L = max(1, int(block_tol/(sum(mu) h))) slots, restarting at every
    grid time; otherwise every cell is one slot.  A slot that straddles a grid
    time is a single-slot cell shared by both intervals, so the pieces tile
    each interval exactly.  Grid times within 1e-12 max(h, 1) of a slot
    boundary count as on the boundary.
    """
    mu_tot = sum(mu)
    blocked = block_tol > 0 and h < block_tol / mu_tot
    L = max(1, int(block_tol / (mu_tot * h))) if blocked else 1
    if not blocked and math.ceil(grid[-1] / h) > _MAX_EXACT_SLOTS:
        raise ResourceError(
            f"{math.ceil(grid[-1] / h)} per-replication slots in exact mode; "
            "increase block_tol or reduce the horizon"
        )
    tiny = 1e-12 * max(h, 1.0)
    starts: list[int] = []  # first slot of each cell
    end = 0  # slot after the last cell
    cells, weights = [], []
    prev = 0.0
    for t_end in grid:
        first = len(starts)
        if t_end > prev + tiny:
            if end * h - prev > tiny:  # prev cuts the last cell, a single slot
                first -= 1
            j1 = math.ceil((t_end - tiny) / h)  # slots up to j1 - 1 reach into the interval
            while (j1 - 1) * h >= t_end - tiny:
                j1 -= 1
            while j1 * h < t_end - tiny:
                j1 += 1
            whole = j1 if j1 * h - t_end <= tiny else j1 - 1
            starts.extend(range(end, whole, L))
            if max(end, whole) < j1:  # t_end straddles slot j1 - 1
                starts.append(j1 - 1)
            end = max(end, j1)
        bounds = np.array(starts[first:] + [end], dtype=float) * h
        a = np.maximum(bounds[:-1], prev)
        b = np.minimum(bounds[1:], t_end)
        cells.append(slice(first, len(starts)))
        weights.append(_category_weights(a, b, t_end, mu))
        prev = t_end
    slots = np.diff(np.array(starts + [end], dtype=np.int64))
    return CellTable(slots=slots, cells=tuple(cells), weights=tuple(weights), blocked=blocked)


def simulate(config: SimConfig) -> Trajectory:
    """Simulate the coupled queues; exact in law given the documented blocking."""
    expected = config.scaling.N * config.env.mean * config.grid[-1] * config.replications
    if expected > _EVENT_BUDGET:
        raise ResourceError(
            f"expected {expected:.3e} arrival events exceeds the budget "
            f"{_EVENT_BUDGET:.3e}; shrink N, the last grid time or the replications"
        )
    mu = config.queues.mu
    table = cell_table(mu, config.scaling.delta_n, config.grid, config.block_tol)

    d = config.queues.d
    N = config.scaling.N
    n_cats = 2**d - 1
    G = len(config.grid)
    # survival probabilities over each inter-grid gap, per queue
    dts = [t - s for s, t in zip((0.0,) + config.grid, config.grid)]
    p_step = np.array([[math.exp(-m * dt) for m in mu] for dt in dts])
    masks_by_queue = [[mask for mask in range(1, 2**d) if mask >> i & 1] for i in range(d)]

    counts = np.zeros((config.replications, G, d), dtype=np.int64)
    streams = spawn_streams(config.seed, config.replications)

    for r, rng in enumerate(streams):
        # 1. realized environment: the average slot rate of every cell
        if table.blocked:
            ravg = config.env.sample_block_sums(rng, table.slots) / table.slots
        else:
            ravg = config.env.sample(rng, table.slots.size) if table.slots.size else np.empty(0)

        state = np.zeros(n_cats + 1, dtype=np.int64)  # index = category bitmask
        init = np.array(config.initial_counts, dtype=np.int64)
        for g, (cells, cat_w) in enumerate(zip(table.cells, table.weights)):
            # thin initial populations and alive categories over the gap
            if dts[g] > 0:
                for i in range(d):
                    if init[i]:
                        init[i] = rng.binomial(init[i], p_step[g, i])
                    p = p_step[g, i]
                    for mask in masks_by_queue[i]:
                        c = state[mask]
                        if c:
                            surv = rng.binomial(c, p)
                            state[mask] = surv
                            state[mask & ~(1 << i)] += c - surv
                state[0] = 0
            # new arrivals alive at t_g, by category
            if cat_w.shape[0]:
                nu = N * (ravg[cells] @ cat_w)
                for cat in range(n_cats):
                    state[cat + 1] += rng.poisson(nu[cat])
            for i in range(d):
                total = init[i]
                for mask in masks_by_queue[i]:
                    total += state[mask]
                counts[r, g, i] = total

    return Trajectory(times=np.asarray(config.grid), counts=counts)


def sample_stationary(config: SimConfig) -> Trajectory:
    """Stationary queue-length samples via whole-slot warm-up from empty.

    The warm horizon covers 40/min(mu) rounded up to a whole number of slots:
    the truncation bias is below e^-40, and reading on a slot boundary matches
    the phase at which the stationary formulas hold.  The config's grid and
    initial counts are replaced by that one read time and an empty start.
    For d = 1 the engine collapses to a single mixed-Poisson draw of the
    truncated stationary parameter; for d >= 2 it is the warm-up method.
    """
    h = config.scaling.delta_n
    warm = math.ceil(_WARM_DECADES / min(config.queues.mu) / h - 1e-9) * h
    return simulate(replace(config, grid=(warm,), initial_counts=(0,) * config.queues.d))


def estimate_moments(traj: Trajectory) -> MomentReport:
    """Unbiased sample moments per grid time with standard errors."""
    R = traj.replications
    if R < 2:
        raise InsufficientData("at least 2 replications are required")
    x = traj.counts.astype(float)
    mean = x.mean(axis=0)
    dev = x - mean
    variance = (dev**2).sum(axis=0) / (R - 1)
    covariance = np.einsum("rgi,rgk->gik", dev, dev) / (R - 1)
    se_mean = np.sqrt(variance / R)
    m4 = (dev**4).mean(axis=0)
    var_of_var = (m4 - (R - 3) / (R - 1) * variance**2) / R
    se_variance = np.sqrt(np.maximum(var_of_var, 0.0))
    return MomentReport(
        times=traj.times,
        mean=mean,
        variance=variance,
        covariance=covariance,
        se_mean=se_mean,
        se_variance=se_variance,
        replications=R,
    )


def normalized_endpoint(
    traj: Trajectory, scaling: ScalingRegime, center, t: float
) -> np.ndarray:
    """N^(beta/2) (counts/N - center) per replication at grid time t.

    Equals N^(-gamma/2) (counts - N center) since beta + gamma = 2.
    """
    matches = np.flatnonzero(np.isclose(traj.times, t, rtol=0.0, atol=1e-12))
    if matches.size == 0:
        raise RangeError(f"t={t} is not a grid time of this trajectory")
    g = int(matches[0])
    center = np.broadcast_to(np.asarray(center, dtype=float), (traj.d,))
    N = scaling.N
    return N ** (scaling.beta / 2.0) * (traj.counts[:, g, :] / N - center)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write counts as CSV rows replication,time,queue,count (queue is 0-based)."""
    with open(path, "w") as f:
        f.write("replication,time,queue,count\n")
        times = [repr(float(t)) for t in traj.times]
        for r in range(traj.replications):
            for g, t in enumerate(times):
                for i in range(traj.d):
                    f.write(f"{r},{t},{i},{traj.counts[r, g, i]}\n")
