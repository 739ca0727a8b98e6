"""Random-environment arrival rates.

The arrival intensity is a piecewise-constant process: every slot of length
``delta`` an i.i.d. copy of a non-negative random variable with finite first
two moments is drawn and held.  Four closed-form families are supported;
each provides its moments, the log moment generating function
log M(theta) = log E exp(theta L) and two derivatives, one block-sum draw of
the plain and the exponentially twisted law, and its essential supremum.
Downstream modules need exact transforms, which is why the families are
closed rather than user-pluggable; the interface contract for an extension
is: mean, variance, log_mgf (elementwise over a numpy array of thetas as
well as on a float: the rate layer's quadrature evaluates it on every node
at once), log_mgf_derivatives (likewise, and in a given gap theta_max - theta
where the domain is bounded), sample (the independent per-slot law),
_sampler (the prepared block-sum draw), essential_sup, theta_max, draw_cost.
twisted_log_norm, sum_c counts[c] log M(etas[c]), is one array call of
log_mgf for every family.

The block-sum draw returns a (size, cells) float64 array S whose cell c sums
counts[c] i.i.d. copies, tilted by etas[c] (density reweighted by
exp(eta x) / M(eta)) or, with no tilts, of the plain law.
``block_sampler(counts, etas, weights)`` prepares it: every array operation
on its arguments runs there once, and the ``draw(rng, size)`` it returns
only draws and reduces, so the importance sampler prepares once per run.
``sample_block_sums`` (the simulator's plain law, a one-slot cell being the
exact per-slot draw) and ``sample_block_sums_twisted`` prepare and draw in
one call.  The importance sampler's tilt is c times the weights, so its
likelihood ratio needs only the row sums S @ weights: given weights, the
draw returns those (size,) sums, from the same variates as S.  Each family
draws from the cheapest sampler with the exact law, into the result and
temporaries that are small next to it:

* Deterministic: no draw; the constant block sums, repeated per row (and
  then reduced, given weights).
* Exponential and Gamma: the law is Gamma(shape n_c, scale
  1/(rate - eta_c)) (Exponential) or Gamma(k n_c, s/(1 - s eta_c)) (Gamma);
  when every shape is 1 it is one standard exponential draw per cell, scaled
  in place, otherwise one gamma draw per cell.  Given weights the scale
  folds into them: the standard draw Z gives Z @ (scale * weights).
* DiscreteFinite: with one slot per cell, one uniform per cell whose count of
  normalised cumulative probabilities at or below it is the atom index (the
  algorithm of numpy's ``Generator.choice``); with more, the occupation
  counts of the multinomial drawn as a chain of binomial draws, one per
  atom, vectorised over all cells in blocks of rows.  Given weights, one-slot
  cells of ascending values reduce the uniforms u through the cuts:
  v_0 sum(w) + sum_j (v_(j+1) - v_j) ((u >= cut_j) @ w), every term
  non-negative, with no atom index formed; other cells form S and reduce it.
  Its log-MGF, and so its tilt, forms a (points, atoms) table, refused with
  ResourceError past ``_TABLE_BUDGET`` entries before it is allocated.

Scaling: the system-size parameter N inflates the rate (L -> N L) and the
sampling frequency (1/delta -> N^alpha / delta), so the scaled slot length is
delta * N^(-alpha).  The factor N is applied by consumers; samplers return
the un-inflated slot rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, ResourceError
from .special import log_sum_exp

__all__ = [
    "EnvSpec",
    "Deterministic",
    "Gamma",
    "Exponential",
    "DiscreteFinite",
    "ScalingRegime",
    "env_from_json",
    "spawn_streams",
]

# Evaluation within this fraction of theta_max of an open MGF-domain boundary
# raises instead of returning an overflow-contaminated value; relative, so a
# family's domain guard scales with its rate.
_BOUNDARY_PAD = 1e-12

# A discrete draw fills its rows in blocks of about this many cells, so its
# index and count temporaries stay small next to the float64 result.
_BLOCK_CELLS = 1 << 16

# A discrete law has at most this many atoms: its draws and tilt tables cost
# time and memory in proportion to them: an ldp-check at N = 200 and 400, R = 2000
# ran 1024 atoms in 1.0 s at 39 MB peak, 4096 in 3.4 s at 47 MB, 10^4 in 5.6 s at 67 MB.
_MAX_ATOMS = 1024

# Points x atoms of a discrete law's (points, atoms) log-MGF table above which it
# refuses (float64, 128 MiB): the importance sampler's tilt takes one point per
# cell.  Measured at 1024 atoms on one-slot cells, preparing a tilted draw
# (twisted_log_norm and block_sampler) took 0.25 s at 130 MB peak for 4096 cells,
# 1.0 s at 430 MB for 16,384 (this budget) and 3.4 s at 1.6 GB for 65,536.  The
# rate layer's quadrature evaluates at most 322 points a call at 1024 atoms.
_TABLE_BUDGET = 2**24


def spawn_streams(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from ``seed`` by counter-based spawning.

    Stream ``i`` depends only on (seed, i), so the units of work that draw
    from it (a block of replications in ``sim.simulate`` and in
    ``ldp.estimate_log_tails``, one replication in the test oracle
    ``tests/reference.py``) may run in any order or concurrently and still
    reproduce bit-identically; ``sim.run_blocks`` draws the blocks on its
    worker threads and the calling thread, and joins them before it returns.
    A generator is not safe to share between threads, so each stream is drawn
    by one thread, and the streams themselves are spawned on the calling thread.
    """
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]


def _gamma_sampler(shapes, scales, weights):
    """draw(rng, size): (size, cells) Gamma(shapes[c], scales[c]) draws, exponential ones
    when every shape is 1: standard draws scaled in place, ``rng.gamma(shapes, scales,
    size)`` bit for bit without its temporaries.  Given weights, the (size,) row sums of
    those draws times weights: the scale folds into the weights, and no scaled array forms."""
    exponential, cells = bool(np.all(shapes == 1.0)), len(shapes)
    if weights is not None:
        weights = scales * weights

    def draw(rng, size):
        if exponential:
            out = rng.standard_exponential((size, cells))
        else:
            out = rng.standard_gamma(shapes, size=(size, cells))
        if weights is not None:
            return out @ weights
        out *= scales
        return out

    return draw


def _row_blocks(size: int, cells: int):
    """Slices of size rows of cells cells each, in blocks of about _BLOCK_CELLS cells."""
    rows = max(1, _BLOCK_CELLS // max(cells, 1))
    return (slice(r0, min(r0 + rows, size)) for r0 in range(0, size, rows))


class EnvSpec:
    """Base class for the rate distribution."""

    family: str
    draw_cost = 1  # a cell draw's cost in sim.check_work's unit; a discrete law's is its atoms

    # -- moments -----------------------------------------------------------
    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def variance(self) -> float:
        raise NotImplementedError

    @property
    def theta_max(self) -> float:
        """Supremum of the open MGF finiteness domain (+inf if entire line)."""
        raise NotImplementedError

    def _check_moments(self) -> None:
        """ValueError naming the parameters when the mean or the variance is
        not a finite float; every constructor ends with this check."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = math.isfinite(self.mean) and math.isfinite(self.variance)
        except (OverflowError, ZeroDivisionError):  # a Python float power or quotient
            finite = False
        if not finite:
            raise ValueError(f"{self.describe()}: the mean or the variance overflows float arithmetic")

    def _check_theta(self, theta) -> None:
        worst = np.max(theta)  # a float or an array of thetas
        if worst >= self.theta_max * (1.0 - _BOUNDARY_PAD):
            raise DomainError(
                f"theta={worst} at or beyond the MGF domain boundary {self.theta_max} "
                f"for family '{self.family}'"
            )

    # -- transforms --------------------------------------------------------
    def log_mgf(self, theta):
        """log M(theta), elementwise when theta is an array."""
        raise NotImplementedError

    def log_mgf_derivatives(self, theta, gap=None):
        """(log M', log M'') at theta, elementwise: the theta-tilted law's mean and variance.

        ``gap``, where given, is theta_max - theta held to a precision that theta itself loses
        near a finite boundary; a bounded family's derivatives are then taken in it alone."""
        raise NotImplementedError

    def essential_sup(self) -> float:
        raise NotImplementedError

    # -- sampling ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int):
        raise NotImplementedError

    def sample_block_sums(self, rng: np.random.Generator, counts: np.ndarray, size: int) -> np.ndarray:
        """(size, len(counts)) sums of counts[b] i.i.d. draws of the plain law."""
        return self.block_sampler(counts)(rng, size)

    def sample_block_sums_twisted(self, etas, rng, counts, size: int, weights=None) -> np.ndarray:
        """(size, len(counts)) sums of counts[b] i.i.d. draws tilted by etas[b];
        given weights, the (size,) row sums S @ weights of that draw S, from
        the same variates."""
        return self.block_sampler(counts, etas, weights)(rng, size)

    def block_sampler(self, counts: np.ndarray, etas=None, weights=None):
        """draw(rng, size): the block-sum draw, tilted by etas (None: the plain law) and
        reduced to S @ weights given weights.  The domain check and every array operation
        on the arguments run here, once; draw reads nothing the caller may change later."""
        if etas is not None:
            etas = np.asarray(etas, dtype=float)
            if etas.size and etas.max() >= self.theta_max * (1.0 - _BOUNDARY_PAD):
                raise DomainError("tilt at or beyond the MGF domain boundary")
        if weights is not None:
            weights = np.array(weights, dtype=float)
        return self._sampler(np.asarray(counts), etas, weights)

    def _sampler(self, counts: np.ndarray, etas, weights):  # block_sampler's, on checked arrays
        raise NotImplementedError

    def twisted_log_norm(self, etas: np.ndarray, counts: np.ndarray) -> float:
        """sum_b counts[b] log M(etas[b]), the log normalizer of those twisted sums."""
        return float(np.sum(counts * self.log_mgf(etas)))

    def to_json(self) -> dict:
        """{"family": ..., **parameters}, the parameters being the dataclass fields."""
        params = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return {"family": self.family, **params}

    def describe(self) -> str:
        """'<family> rates with k = v, ...': the parameters, for error messages."""
        params = ", ".join(f"{k} = {v!r}" for k, v in self.to_json().items() if k != "family")
        return f"{self.family} rates with {params}"


@dataclass(frozen=True)
class Deterministic(EnvSpec):
    """Point mass: the classical constant-rate Poisson input."""

    value: float
    family: str = field(default="deterministic", init=False)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rate must be non-negative")
        self._check_moments()

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def theta_max(self) -> float:
        return math.inf

    def log_mgf(self, theta):
        return theta * self.value

    def log_mgf_derivatives(self, theta, gap=None):
        return np.full(np.shape(theta), self.value), np.zeros(np.shape(theta))

    def essential_sup(self) -> float:
        return self.value

    def sample(self, rng, size):
        return np.full(size, self.value)

    def _sampler(self, counts, etas, weights):
        sums = self.value * counts.astype(float)

        def draw(rng, size):
            out = np.broadcast_to(sums, (size, len(sums))).copy()
            return out if weights is None else out @ weights

        return draw


@dataclass(frozen=True)
class Exponential(EnvSpec):
    """Exponential(rate): mean 1/rate, M(theta) = rate/(rate - theta) for theta < rate."""

    rate: float
    family: str = field(default="exponential", init=False)

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        self._check_moments()

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        return 1.0 / self.rate**2

    @property
    def theta_max(self) -> float:
        return self.rate

    def log_mgf(self, theta):
        self._check_theta(theta)
        return -np.log1p(-theta / self.rate)

    def log_mgf_derivatives(self, theta, gap=None):
        self._check_theta(theta)
        first = 1.0 / (self.rate - theta if gap is None else gap)
        return first, first**2

    def essential_sup(self) -> float:
        return math.inf

    def sample(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate, size=size)

    def _sampler(self, counts, etas, weights):
        rate = self.rate if etas is None else self.rate - etas
        return _gamma_sampler(counts.astype(float), 1.0 / rate, weights)


@dataclass(frozen=True)
class Gamma(EnvSpec):
    """Gamma(shape, scale): M(theta) = (1 - scale*theta)^(-shape) for theta < 1/scale."""

    shape: float
    scale: float
    family: str = field(default="gamma", init=False)

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")
        self._check_moments()

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2

    @property
    def theta_max(self) -> float:
        return 1.0 / self.scale

    def log_mgf(self, theta):
        self._check_theta(theta)
        return -self.shape * np.log1p(-self.scale * theta)

    def log_mgf_derivatives(self, theta, gap=None):
        self._check_theta(theta)
        gap = self.theta_max - theta if gap is None else gap
        return self.shape / gap, self.shape / gap**2

    def essential_sup(self) -> float:
        return math.inf

    def sample(self, rng, size):
        return rng.gamma(shape=self.shape, scale=self.scale, size=size)

    def _sampler(self, counts, etas, weights):
        scale = self.scale if etas is None else self.scale / (1.0 - self.scale * etas)
        return _gamma_sampler(self.shape * counts.astype(float), scale, weights)


class DiscreteFinite(EnvSpec):
    """Finitely many atoms; probabilities must sum to one within 1e-12."""

    family = "discrete"

    def __init__(self, values, probs):
        values = np.array(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise ValueError("values and probs must be equal-length non-empty 1-d sequences")
        if values.size > _MAX_ATOMS:
            raise ValueError(f"values lists {values.size} atoms; a law may have at most {_MAX_ATOMS}")
        if np.any(values < 0):
            raise ValueError("values must be non-negative")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be non-negative and sum to 1 within 1e-12")
        self.values = values
        self.probs = probs / probs.sum()
        self.draw_cost = values.size  # one comparison or binomial draw per atom
        self._check_moments()

    def __repr__(self):
        return f"DiscreteFinite(values={self.values.tolist()}, probs={self.probs.tolist()})"

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteFinite)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.probs, other.probs)
        )

    @property
    def mean(self) -> float:
        return float(self.values @ self.probs)

    @property
    def variance(self) -> float:
        return float((self.values - self.mean) ** 2 @ self.probs)

    @property
    def theta_max(self) -> float:
        return math.inf

    def log_mgf(self, theta):
        return log_sum_exp(self._log_weights(theta))

    def log_mgf_derivatives(self, theta, gap=None):
        w = self._tilted_probs(theta)
        return (first := w @ self.values), ((self.values - first[..., None]) ** 2 * w).sum(axis=-1)

    def _log_weights(self, eta) -> np.ndarray:
        """eta v_j + log p_j per atom; an array of etas gives one row each.
        ResourceError, naming values, past _TABLE_BUDGET entries."""
        entries = np.size(eta) * self.values.size
        if entries > _TABLE_BUDGET:
            raise ResourceError(
                f"{np.size(eta)} points x {self.values.size} atoms ({entries:.3e} log-MGF terms) "
                f"exceed a discrete law's budget {_TABLE_BUDGET:.3e}; list fewer values (the "
                "importance sampler tilts each cell: raise block_tol or shrink N^alpha for fewer)"
            )
        with np.errstate(divide="ignore"):
            return np.multiply.outer(eta, self.values) + np.log(self.probs)

    def _tilted_probs(self, eta) -> np.ndarray:
        logw = self._log_weights(eta)
        logw -= logw.max(axis=-1, keepdims=True)
        w = np.exp(logw)
        return w / w.sum(axis=-1, keepdims=True)

    def essential_sup(self) -> float:
        return float(self.values[self.probs > 0].max())

    def sample(self, rng, size):
        idx = rng.choice(self.values.size, size=size, p=self.probs)
        return self.values[idx]

    def _sampler(self, counts, etas, weights):
        cells, values = len(counts), self.values
        w = self.probs if etas is None else self._tilted_probs(etas)  # (atoms,) or (cells, atoms)
        if np.all(counts == 1):
            # one-slot cells: as in Generator.choice, the atom index is the number
            # of normalised cumulative probabilities at or below one uniform: the
            # cuts, one row per atom but the last
            cdf = np.cumsum(w, axis=-1)
            cdf /= cdf[..., -1:]
            cuts, steps = np.moveaxis(cdf[..., :-1], -1, 0), np.diff(values)
            if weights is not None and np.all(steps >= 0):
                # so a value is v_0 + sum_j (v_(j+1) - v_j) [u >= cut_j], and a
                # row's weighted sum v_0 sum(w) + sum_j (v_(j+1) - v_j) ((u >= cut_j) @ w):
                # every term is non-negative for ascending values
                base = values[0] * weights.sum()

                def draw(rng, size):
                    out = np.full(size, base)
                    for rows in _row_blocks(size, cells):
                        u = rng.random((rows.stop - rows.start, cells))
                        for c, step in zip(cuts, steps):
                            out[rows] += step * ((u >= c) @ weights)
                    return out

                return draw

            def fill(rng, block):
                rng.random(out=block)
                idx = np.zeros(block.shape, np.intp)
                for c in cuts:
                    idx += block >= c
                np.take(values, idx, out=block, mode="clip")

        else:
            # the multinomial occupation counts as a chain of binomial draws, one per
            # atom, each with atom j's probability given the draw is none of atoms
            # 0..j-1: no (..., atoms) array is formed
            rest = np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
            cond = np.minimum(np.divide(w, rest, out=np.zeros_like(w), where=rest > 0), 1.0)
            counts = counts.astype(np.int64)

            def fill(rng, block):
                left = np.broadcast_to(counts, block.shape)
                block[:] = 0.0
                for j, value in enumerate(values[:-1]):
                    n_j = rng.binomial(left, cond[..., j])
                    block += value * n_j
                    left = left - n_j
                block += values[-1] * left

        def draw(rng, size):
            out = np.empty((size, cells))
            for rows in _row_blocks(size, cells):
                fill(rng, out[rows])
            return out if weights is None else out @ weights

        return draw

    def to_json(self):
        return {"family": "discrete", "values": self.values.tolist(), "probs": self.probs.tolist()}


_FAMILIES = {cls.family: cls for cls in (Deterministic, Exponential, Gamma, DiscreteFinite)}


def env_from_json(obj: dict) -> EnvSpec:
    """Inverse of ``EnvSpec.to_json``: ValueError for an unknown family, and
    TypeError naming a missing or unknown parameter."""
    params = dict(obj)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown env family: {family!r}")
    return _FAMILIES[family](**params)


@dataclass(frozen=True)
class ScalingRegime:
    """(N, alpha, delta): system size, sampling-frequency exponent, base slot length.

    Derived: slot length delta_n = delta * N^(-alpha); variance exponent
    gamma = max(1, 2 - alpha); CLT exponent beta = min(1, alpha) = 2 - gamma.
    """

    N: int
    alpha: float
    delta: float

    def __post_init__(self):
        if self.N < 1 or int(self.N) != self.N:
            raise ValueError("N must be a positive integer")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not self.delta_n > 0:  # the cell tables and the exact moments divide by it
            raise ValueError(
                f"the slot length delta N^(-alpha) underflows to 0 at N = {self.N}, "
                f"alpha = {self.alpha}, delta = {self.delta}"
            )

    @property
    def delta_n(self) -> float:
        return self.delta * self.N ** (-self.alpha)

    @property
    def gamma(self) -> float:
        return max(1.0, 2.0 - self.alpha)

    @property
    def beta(self) -> float:
        return min(1.0, self.alpha)
