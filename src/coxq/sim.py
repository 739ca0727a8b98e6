"""Monte Carlo simulation of d coupled infinite-server queues.

One shared arrival stream drives all queues: the rate is resampled every
scaled slot (length delta N^-alpha), every arrival enters all d queues, and
queue i serves with an independent Exp(mu_i) clock.  Counts are read on a
sorted grid of absolute times t >= 0; the run ends at the last grid time.

The engine realizes the exact joint law without materializing individual
arrivals.  Its state is the d queue counts.  Conditionally on the rate path,
the jobs from one inter-grid interval that are still alive at the interval's
right endpoint split into independent Poisson counts per alive-pattern (one
category per non-empty subset of queues), with intensities given by
closed-form integrals of the rate times the survival pattern; each pattern
adds its count to the queues it contains.  Once a grid time has passed, a job
alive in queue i survives the next gap there with probability e^(-mu_i dt),
independently of every other job and every other queue (the service clocks
are memoryless and independent), so each queue's count thins by its own
binomial, queue by queue.  The counts on the grid are thus a Markov chain
with the exact finite-dimensional laws; initial jobs are thinned the same
way.

Rates are drawn per cell of ``cell_table``, a time-ordered list of cells of
whole slots shared by every replication (and by ``ldp.estimate_log_tails``),
as one ``env.sample_block_sums`` draw of every cell's slot-rate sum.
When the scaled slot length h is below block_tol/sum(mu), the whole slots of
each inter-grid interval form cells that widen with their age a, measured
back from the interval's right end t_g: W(a) = W0 e^(2 mu_min a/3), floored
to whole slots and at least one slot, with W0 = block_tol/sqrt(max_ik c_ik(T))
for an interval of length T; ``cell_table`` derives c_ik(T), and for d = 1 it
is mu^2 rho(T) with rho(T) = 3 (1 - e^(-2 mu T/3))/(1 - e^(-2 mu T)).
Otherwise (and always at block_tol = 0) every cell is one slot, whose block
sum is the exact per-slot draw.  A slot that straddles a grid time is a
single-slot cell shared by the intervals on both sides, so the cells tile
every interval and means are exact.  A cell's rate mass keeps its exact
distribution (gamma sums, multinomial counts); only the pairing of rates to
survival weights inside a cell is averaged.  A cell of width W lowers its
part of covariance entry (i, k) by at most mu_i mu_k W^2/12 relative, and the
widths above keep the sum of these losses over each interval within
block_tol^2/12 sqrt(C_ii C_kk) for the worst entry (about 8e-6 relative at the
default block_tol = 0.01).  So every rate-layer covariance of the engine lies
within block_tol^2/12 sqrt(C_ii C_kk) of the exact per-slot value, which
deterministic tests check on the table itself.

One RNG contract, ``replication_blocks``, serves both Monte Carlo engines,
``simulate`` and the importance sampler ``ldp.estimate_log_tails``: R
replications run in blocks of B = block_rows(cells) rows, B a fixed function
of the cell table alone (never of R), and block b draws every layer for its
B rows (rates, counts, thinning) from the b-th stream spawned from the seed.
Every block is drawn in full and the output is cut to R rows, so replication
r depends only on (seed, r): results are bit-identical across runs and
across any block-level execution schedule, and a run with fewer replications
is a prefix of a longer one at any R.  Before any stream is spawned, both
engines check R (at most 2^24) and each N's predicted draw work: ``check_work``.

Both engines run their blocks through ``run_blocks``, concurrently on up to
W = min(CPUs, blocks, _BLOCK_DRAW // (B x cells), 8) threads, the caller
included, so the rate draws in flight stay within one block's 2 MB budget.
numpy's generators release the interpreter lock while they fill, and each
block writes only its own rows, so the output bytes are those of the serial
loop that one CPU runs.  ``run_blocks`` is fork-join, and its ``alongside()``
runs on the calling thread while the workers draw: ``ldp.estimate_log_tails``
uses it to prepare and weigh its other N.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .analytic import QueueParams
from .env import EnvSpec, ScalingRegime, spawn_streams
from .errors import InsufficientData, RangeError, ResourceError

__all__ = [
    "CellTable",
    "cell_table",
    "block_rows",
    "check_work",
    "replication_blocks",
    "block_workers",
    "run_blocks",
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
WARM_DECADES = 40.0
_MAX_EXACT_SLOTS = 5_000_000
# Most coupled queues a config may list: a cell table's alive-pattern weights
# (_category_weights) fill a (cells, 2^d) array per pass and pass over it d times.
# Measured on 2 vCPUs at R = 2, configs/simulate.json's 6 grid times run in
# 0.06 s at d = 10, 0.23 s at d = 12 and 0.40 s at d = 13 (medians of 3).
MAX_QUEUES = 12
# Alive-pattern weights (float64, 128 MiB) per cell table, summed over grid times of
# cells x 2^d, above which cell_table refuses: 84x the largest tier-1 table's 2e5,
# and at d = 1 every table that the exact-slot budget admits.
_WEIGHT_BUDGET = 2**24
# cell_table computes the weights of consecutive grid times in one pass of at most
# this many (2 MB), so a many-time grid pays the per-pattern numpy calls once per pass.
_WEIGHT_PASS = 2**18
# Predicted draw work per N (check_work) above which both engines refuse, in units of
# the slowest cell draw measured (2 vCPUs, one BLAS thread), an 8-atom law's binomial
# chain at 38 ns: 2.5e8 units ran 9.4 s there, 1.8 s as exponential draws and 0.6 s as
# one-slot two-atom draws.  The most any shipped config or bench call predicts is 2.4e7
# (ldp_slow_discrete at N = 1600).  A block's Python pass per grid time is priced at
# _PASS_COST units (22 us: the least of 15 one-thread runs at d = 1 and 3, medians 23 and
# 26 us); the largest 10^4-time one-row runs it admits (R = 39, 30) ran 10.2 and 7.0 s.
_WORK_BUDGET = 250_000_000
_PASS_COST = 580
# Output counts per run (R G d, int64: 128 MiB) above which simulate refuses;
# also the most replications that check_work admits.  The CSV export
# streams them (see _CSV_CHUNK), so it adds no multiple of the count array.
_OUTPUT_BUDGET = 2**24
# trajectory_to_csv formats whole replications of at most this many counts at a
# time (at least one replication), so its Python objects never scale with R.
_CSV_CHUNK = 2**13
# Largest count or slot index float64 holds exactly, far from int64 overflow: the
# bound on initial counts, on the slots a cell table spans and on tail count levels.
_MAX_EXACT_INT = 2**53
# A block of replications draws its rate layer as one (rows, cells) float64
# array of at most _BLOCK_DRAW entries (2 MB), and has at most _MAX_BLOCK_ROWS rows.
_BLOCK_DRAW = 2**18
_MAX_BLOCK_ROWS = 256
# CPUs this process may run on, read once at import; run_blocks uses at most this
# many threads, and at most _MAX_WORKERS.  Only 1 and 2 threads were timed (on 2
# vCPUs); whether more pay is unmeasured.  The cap bounds the threads' stacks and
# allocator arenas: configs/ldp_slow.json on 8 threads runs within a 3 GiB
# address-space limit (tests/test_config_schema.py).
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_MAX_WORKERS = 8


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
        if any(c > _MAX_EXACT_INT for c in self.initial_counts):
            raise ValueError(
                f"initial_counts must be at most 2^53 = {_MAX_EXACT_INT}, "
                f"got {max(self.initial_counts)}"
            )
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if not 0 <= self.block_tol <= 1:
            raise ValueError("block_tol must lie in [0, 1]")


@dataclass
class Trajectory:
    """Queue counts per replication on the grid, or a read normalized for ``estimate_moments``."""

    times: np.ndarray  # (G,)
    counts: np.ndarray  # (R, G, d) non-negative integers, or a normalized read

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
    Every cell is drawn as one block sum of its slots; a one-slot cell is the
    exact per-slot draw.
    """

    slots: np.ndarray
    cells: tuple[slice, ...]
    weights: tuple[np.ndarray, ...]


def _category_weights(edges_a, edges_b, t_end, mu: tuple[float, ...]) -> np.ndarray:
    """Per-cell weights for every non-empty alive pattern at t_end, one read
    time for every cell or one per cell.

    Pattern S gets integral of prod_{i in S} p_i(s) prod_{i not in S} (1 - p_i(s))
    with p_i(s) = exp(-mu_i (t_end - s)).  ``sub`` first holds the closed-form
    integrals for alive in at least T; the Moebius transform over supersets, one
    in-place pass sub[T] -= sub[T | {i}] per queue i, leaves alive in exactly T.
    Every step is elementwise per cell, so a cell's weights do not depend on
    the other cells of the call.
    """
    d = len(mu)
    a = np.asarray(edges_a, dtype=float)
    b = np.asarray(edges_b, dtype=float)
    age_a, age_b = t_end - a, t_end - b
    n_cells = a.size
    sub = np.empty((n_cells, 2**d))
    rates = [0.0]  # rates[T] = sum of mu_i over the queues i in T, in increasing i
    for m in mu:
        rates += [r + m for r in rates]
    # mu_t (t_end - s) may overflow to inf (mu near 1e308): exp gives the right
    # weight, 0
    with np.errstate(over="ignore"):
        for t_mask, mu_t in enumerate(rates):
            if mu_t == 0.0:
                sub[:, t_mask] = b - a
            else:
                sub[:, t_mask] = (np.exp(-mu_t * age_b) - np.exp(-mu_t * age_a)) / mu_t
    for i in range(d):
        # axis 2 of this view is bit i of the pattern: [without i, with i]
        pair = sub.reshape(n_cells, 2 ** (d - 1 - i), 2, 2**i)
        pair[:, :, 0] -= pair[:, :, 1]
    return np.maximum(sub[:, 1:], 0.0)


def cell_table(mu: tuple[float, ...], h: float, grid, block_tol: float) -> CellTable:
    """Cells of whole slots of length h covering [0, grid[-1]), cut at every grid time.

    With h < block_tol/sum(mu) the whole slots of each interval [t_(g-1), t_g)
    of length T are grouped into cells cut from the young end back: a cell
    whose right edge has age a (from t_g) spans W(a) = W0 e^(2 mu_min a/3),
    floored to whole slots and at least one, with W0 = block_tol/sqrt(c(T)),
    c(T) = max over i, k of

        c_ik(T) = 2 (mu_i mu_k)^(3/2) (1 - e^(-s T))
                  / (s sqrt((1 - e^(-2 mu_i T)) (1 - e^(-2 mu_k T)))),
        s = mu_i + mu_k - 4 mu_min/3 > 0.

    For d = 1, c(T) = mu^2 rho(T) with rho(T) = 3 (1 - e^(-2 mu T/3))/(1 -
    e^(-2 mu T)).  Otherwise every cell is one slot.  A slot that straddles a
    grid time is a single-slot cell shared by both intervals, so the pieces
    tile each interval exactly.  Grid times within 1e-12 max(h, 1) of a slot
    boundary count as on the boundary.  The cells are cut grid time by grid
    time; their alive-pattern weights are then computed in one pass over the
    grid (passes of at most _WEIGHT_PASS weights), each piece read at its own
    grid time, which gives the floats of one call per grid time.

    The widths bound the rate-layer covariance of the table, per unit
    N^2 Var[L], within block_tol^2/12 sqrt(C_ii C_kk) of the per-slot table's
    at every grid time:

    - One cell.  A job that arrives at age a is alive in queue i at t_g with
      probability e^(-mu_i a), so the interval adds C_ik = integral of
      e^(-(mu_i + mu_k) a) to entry (i, k).  Averaging the rates over a cell
      of width W lowers its part nu_ik of that integral by the factor
      1 - S(x_i) S(x_k)/S(x_i + x_k), S(x) = sinh(x)/x, x_i = mu_i W/2.  This
      never exceeds its linearisation x_i x_k/3 = mu_i mu_k W^2/12 (for
      x_i = x_k it reads tanh(x)/x >= 1 - x^2/3), and an average of n = W/h
      whole slots gives mu_i mu_k (W^2 - h^2)/12 to first order.
    - One interval.  W(a) grows with age, so a cell's width, taken at its
      young edge, undercuts W(a) everywhere in the cell, and
      sum_c nu_ik,c mu_i mu_k W_c^2/12 <= mu_i mu_k/12 integral_0^T W(a)^2
      e^(-(mu_i + mu_k) a) da = W0^2 mu_i mu_k (1 - e^(-s T))/(12 s).  Over
      sqrt(C_ii C_kk), with C_ii = (1 - e^(-2 mu_i T))/(2 mu_i), that is
      W0^2 c_ik(T)/12 <= block_tol^2/12 for every entry.
    - Across reads.  At a read time t_G, interval g's loss D_g and its C_g
      both enter entry (i, k) scaled by f_ig f_kg, f_ig = e^(-mu_i (t_G - t_g)).
      By the per-interval bound and Cauchy-Schwarz, sum_g f_ig f_kg D_g,ik <=
      block_tol^2/12 sqrt(sum_g f_ig^2 C_g,ii) sqrt(sum_g f_kg^2 C_g,kk) <=
      block_tol^2/12 sqrt(C_ii(t_G) C_kk(t_G)).

    The slot lattice moves these integrals by relative terms of order
    (mu h)^2, which the young-edge undercut (relative order mu_min W) leaves
    room for; deterministic tests check the bound on the tables themselves.
    The exponent 2 mu_min/3 minimises the cell count, integral of da/W(a),
    at a fixed budget for the slowest entry's weight e^(-2 mu_min a).
    More than 2^53 slots up to grid[-1], which float64 cannot index, or more
    than _WEIGHT_BUDGET alive-pattern weights raise ResourceError.
    """
    span = grid[-1] / h
    if not span <= _MAX_EXACT_INT:  # also refuses inf
        raise ResourceError(
            f"{span:.3e} slots of length {h:.3e} up to time {grid[-1]:g} exceed 2^53, "
            "the most that float64 can index; shorten the time or shrink N^alpha/delta"
        )
    blocked = block_tol > 0 and h < block_tol / sum(mu)
    if not blocked and math.ceil(span) > _MAX_EXACT_SLOTS:
        # the read time is a kind's own field or the stationary warm-up 40/min(mu),
        # so only the fields that switch blocking off are advised
        why = (
            "block_tol is 0" if block_tol <= 0
            else f"the slot length {h:.3g} is at least block_tol/sum(mu) = {block_tol / sum(mu):.3g}"
        )
        raise ResourceError(
            f"{math.ceil(span)} per-replication slots up to time {grid[-1]:g} exceed the "
            f"exact-mode budget {_MAX_EXACT_SLOTS}: blocking is off because {why}; "
            "raise block_tol or lower mu"
        )
    tiny = 1e-12 * max(h, 1.0)
    starts: list[int] = []  # first slot of each cell
    end = 0  # slot after the last cell
    cells = []  # per grid time, its cells
    passes = [[]]  # per grid time, its cells' pieces (a, b, t_end), in weight passes
    entries = pass_entries = 0  # alive-pattern weights so far, and in the last pass
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
            if blocked:
                starts.extend(_aged_cell_starts(mu, h, end, whole, prev, t_end, block_tol))
            else:
                starts.extend(range(end, whole))
            if max(end, whole) < j1:  # t_end straddles slot j1 - 1
                starts.append(j1 - 1)
            end = max(end, j1)
        n = (len(starts) - first) * 2 ** len(mu)
        entries += n
        if entries > _WEIGHT_BUDGET:
            raise ResourceError(
                f"{entries:.3e} or more alive-pattern weights (cells x 2^d) exceed the budget "
                f"{_WEIGHT_BUDGET:.3e}; list fewer queues in mu or raise block_tol"
            )
        if passes[-1] and pass_entries + n > _WEIGHT_PASS:
            passes.append([])
            pass_entries = 0
        pass_entries += n
        bounds = np.array(starts[first:] + [end], dtype=float) * h
        cells.append(slice(first, len(starts)))
        passes[-1].append((np.maximum(bounds[:-1], prev), np.minimum(bounds[1:], t_end), t_end))
        prev = t_end
    slots = np.diff(np.array(starts + [end], dtype=np.int64))
    weights = [w for pieces in passes for w in _weight_pass(pieces, mu)]
    return CellTable(slots=slots, cells=tuple(cells), weights=tuple(weights))


def _weight_pass(pieces: list, mu: tuple[float, ...]) -> list[np.ndarray]:
    """``_category_weights`` of consecutive grid times' pieces (a, b, t_end) in
    one call, each grid time's weights a slice of the result."""
    if len(pieces) == 1:  # one read time, a scalar: no per-cell copy of it
        return [_category_weights(*pieces[0], mu)]
    a, b, t_end = zip(*pieces)
    sizes = [x.size for x in a]
    w = _category_weights(np.concatenate(a), np.concatenate(b), np.repeat(t_end, sizes), mu)
    return np.split(w, np.cumsum(sizes)[:-1])


def _aged_cell_starts(mu, h, lo: int, hi: int, t_start: float, t_end: float, block_tol: float):
    """First slots of the aged cells (see ``cell_table``) tiling the whole slots [lo, hi)."""
    k = 2.0 * min(mu) / 3.0
    T = t_end - t_start

    def c_ik(mi, mk):  # entry (i, k)'s loss per unit W0^2/12, relative to sqrt(C_ii C_kk)
        s = mi + mk - 2.0 * k
        root = math.sqrt(math.expm1(-2.0 * mi * T) * math.expm1(-2.0 * mk * T))
        return -2.0 * (mi * mk) ** 1.5 * math.expm1(-s * T) / (s * root)

    w0 = block_tol / (math.sqrt(max(c_ik(mi, mk) for mi in mu for mk in mu)) * h)  # in slots
    starts = []
    right = hi
    while right > lo:
        # e^x overflows a float beyond x = 709; from x = 700 on, one cell takes the rest
        grow = math.exp(min(k * max(t_end - right * h, 0.0), 700.0))
        right -= max(1, int(min(w0 * grow, right - lo)))
        starts.append(right)
    return starts[::-1]


def block_rows(n_cells: int) -> int:
    """Replications per block for a table of n_cells cells; never depends on R."""
    return max(1, min(_MAX_BLOCK_ROWS, _BLOCK_DRAW // max(n_cells, 1)))


def check_work(table: CellTable, env: EnvSpec, replications: int, N: int, one_row=False) -> int:
    """One N's predicted draw work, blocks x (B x (cells x env.draw_cost + pattern
    weights) + G x _PASS_COST) with B = block_rows(cells) rows in each of ceil(R/B)
    blocks, or one row in one block (one_row, the importance sampler's constant
    layer).  ResourceError past _WORK_BUDGET or past _OUTPUT_BUDGET replications."""
    if replications > _OUTPUT_BUDGET:
        raise ResourceError(
            f"{replications} replications exceed the budget {_OUTPUT_BUDGET:.3e}; "
            "shrink the replications"
        )
    cells = table.slots.size
    B = 1 if one_row else block_rows(cells)
    blocks = 1 if one_row else -(-replications // B)
    draws = cells * env.draw_cost + sum(w.size for w in table.weights)
    work = blocks * (B * draws + len(table.cells) * _PASS_COST)
    if work > _WORK_BUDGET:
        raise ResourceError(
            f"predicted draw work {work:.3e} at N = {N} ({blocks} blocks of {B} rows x {cells} "
            f"cells; grid times: {len(table.cells)}) exceeds the budget {_WORK_BUDGET:.3e}; shrink "
            "the replications, N_grid, t or grid, raise block_tol or list fewer values"
        )
    return work


def replication_blocks(seed: int, replications: int, n_cells: int) -> tuple[int, list]:
    """(B, streams): B = block_rows(n_cells) rows per block, ceil(R/B) streams from seed."""
    rows = block_rows(n_cells)
    return rows, spawn_streams(seed, -(-replications // rows))


def block_workers(blocks: int, block_entries: int) -> int:
    """Threads for ``blocks`` blocks of ``block_entries`` rate draws each: at most
    one per CPU and one per block, at most _BLOCK_DRAW entries in flight, at most
    _MAX_WORKERS, and at least one."""
    return max(1, min(_CPUS, blocks, _BLOCK_DRAW // max(block_entries, 1), _MAX_WORKERS))


def run_blocks(fn, streams: list, block_entries: int, alongside=None) -> list:
    """[fn(b, streams[b]) for every block b], in block order, on block_workers threads.

    Fork-join: the W - 1 worker threads start, ``alongside()`` (if given) runs
    on the calling thread while they draw, then the calling thread takes blocks
    too, and every thread is joined before the call returns or raises.  With one
    worker no thread starts and the blocks run in order after alongside.  Block b
    reads only its own stream, so the results do not depend on which thread ran
    which block.  fn may only draw and call numpy: numpy's generators release
    the interpreter lock while they fill, which is where the threads overlap.
    Once alongside or a block raises, no thread takes another block.  The error
    raised is the one the serial ``alongside(); [fn(b, s) for b, s in
    enumerate(streams)]`` raises first: alongside's, else the lowest block's
    (blocks are taken in order, so every lower block has run).
    """
    workers = block_workers(len(streams), block_entries)
    results = [None] * len(streams)
    errors = {}  # block -> what it raised
    lock = threading.Lock()
    todo = enumerate(streams)
    threads = []

    def work():
        while True:
            with lock:
                item = None if errors else next(todo, None)
            if item is None:
                return
            try:
                results[item[0]] = fn(*item)
            except BaseException as exc:  # raised below, once every thread is joined
                with lock:
                    errors[item[0]] = exc

    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work, name="coxq-block")
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: the started ones and this one do the rest
                break
            threads.append(thread)
        if alongside is not None:
            alongside()
        work()
    except BaseException:  # alongside raised, or an interrupt: no thread takes another block
        with lock:
            todo = iter(())
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def simulate(config: SimConfig) -> Trajectory:
    """Simulate the coupled queues; exact in law given the documented blocking."""
    N, d = config.scaling.N, config.queues.d
    expected = N * config.env.mean * config.grid[-1]  # so every count stays exact, far from int64
    if not expected <= _MAX_EXACT_INT:
        raise ResourceError(
            f"expected arrivals per replication N E[L] grid[-1] = {expected:.3e} exceed 2^53, "
            "the most that float64 holds exactly; shrink N_grid or the last grid time"
        )
    entries = config.replications * len(config.grid) * d
    if entries > _OUTPUT_BUDGET:
        raise ResourceError(
            f"{entries:.3e} output counts (replications x grid times x queues) exceed "
            f"the budget {_OUTPUT_BUDGET:.3e}; shrink the replications or the grid"
        )
    mu = config.queues.mu
    table = cell_table(mu, config.scaling.delta_n, config.grid, config.block_tol)
    check_work(table, config.env, config.replications, N)

    # survival probabilities over each inter-grid gap, per queue
    dts = [t - s for s, t in zip((0.0,) + config.grid, config.grid)]
    p_step = np.array([[math.exp(-m * dt) for m in mu] for dt in dts])
    # alive pattern (bitmask - 1) -> the queues it counts in
    member = np.array([[mask >> i & 1 for i in range(d)] for mask in range(1, 2**d)])

    initial = np.asarray(config.initial_counts, dtype=np.int64)
    rows, streams = replication_blocks(config.seed, config.replications, table.slots.size)
    counts = np.empty((len(streams) * rows, len(config.grid), d), dtype=np.int64)
    draw = config.env.block_sampler(table.slots)  # prepared once: each block only draws

    def block(b, rng):  # fills replications b*rows .. (b+1)*rows - 1 of counts
        # realized environment: the average slot rate of every cell, one row per replication
        ravg = draw(rng, rows)
        ravg /= table.slots
        q = np.tile(initial, (rows, 1))
        out = counts[b * rows : (b + 1) * rows]
        for g, (cells, cat_w) in enumerate(zip(table.cells, table.weights)):
            # every job alive in queue i survives the gap there independently: one
            # draw, which walks queue 0's rows first, then queue 1's, and so on
            if dts[g] > 0:
                q.T[:] = rng.binomial(q.T, p_step[g][:, None])
            # new arrivals alive at t_g, drawn by pattern and counted per queue
            if cat_w.shape[0]:
                q += rng.poisson(N * (ravg[:, cells] @ cat_w)) @ member
            out[:, g] = q

    run_blocks(block, streams, rows * table.slots.size)
    return Trajectory(times=np.asarray(config.grid), counts=counts[: config.replications])


def sample_stationary(config: SimConfig) -> Trajectory:
    """Stationary queue-length samples via whole-slot warm-up from empty.

    The warm horizon covers 40/min(mu) rounded up to a whole number of slots:
    the truncation bias is below e^-40, and reading on a slot boundary matches
    the phase at which the stationary formulas hold.  The config's grid and
    initial counts are replaced by that one read time and an empty start,
    and ``simulate`` runs as for any other grid, for every d.
    """
    h = config.scaling.delta_n
    warm = math.ceil(WARM_DECADES / min(config.queues.mu) / h - 1e-9) * h
    return simulate(replace(config, grid=(warm,), initial_counts=(0,) * config.queues.d))


def estimate_moments(traj: Trajectory) -> MomentReport:
    """Unbiased sample moments per grid time with standard errors, the one second-moment
    reduction; numpy's pairwise sums make a d = 1 variance ``x.var(ddof=1)`` bit for bit."""
    R = traj.replications
    if R < 2:
        raise InsufficientData("at least 2 replications are required")
    G, d = traj.counts.shape[1:]
    mean, sq, m4 = np.empty((G, d)), np.empty((G, d)), np.empty((G, d))
    cross = np.empty((G, d, d))
    for g in range(G):  # one grid time at a time, so no (R, G, d) float copy is held
        x = traj.counts[:, g].astype(float)
        mean[g] = x.mean(axis=0)
        dev = x - mean[g]
        d2 = dev * dev
        sq[g] = d2.sum(axis=0)
        cross[g] = np.einsum("ri,rk->ik", dev, dev)
        m4[g] = (d2 * d2).mean(axis=0)
    variance = sq / (R - 1)
    covariance = cross / (R - 1)
    se_mean = np.sqrt(variance / R)
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
    """Write counts as CSV rows replication,time,queue,count (queue is 0-based).

    The file is written in binary mode, so every line ends in LF, never CRLF,
    on every platform.  The counts become Python ints a chunk at a time: whole
    replications holding at most _CSV_CHUNK counts, or one replication when a
    single one holds more, and each chunk's lines go out in one write.  So what
    the export holds at once is one chunk's ints and lines plus one
    replication's row template, O(_CSV_CHUNK + G d) and never a copy that grows
    with R.  The bytes do not depend on the chunk.
    """
    # one replication's rows in (grid time, queue) order; "\0" stands for its number
    template = "".join(f"\0,{float(t)!r},{i},%d\n" for t in traj.times for i in range(traj.d)).encode()
    per_rep = traj.counts.shape[1] * traj.d
    step = max(1, _CSV_CHUNK // per_rep)
    with open(path, "wb") as f:
        f.write(b"replication,time,queue,count\n")
        for r0 in range(0, traj.replications, step):
            rows = traj.counts[r0 : r0 + step].reshape(-1, per_rep).tolist()
            f.write(b"".join((template % tuple(row)).replace(b"\0", b"%d" % r)
                             for r, row in enumerate(rows, r0)))
