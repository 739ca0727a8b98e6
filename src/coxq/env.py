"""Random-environment arrival rates.

The arrival intensity is a piecewise-constant process: every slot of length
``delta`` an i.i.d. copy of a non-negative random variable with finite first
two moments is drawn and held.  Four closed-form families are supported;
each provides its moments, the log moment generating function
log M(theta) = log E exp(theta L) and its derivative, one block-sum draw of
the plain and the exponentially twisted law, and its essential supremum.
Downstream modules need exact transforms, which is why the families are
closed rather than user-pluggable; the interface contract for an extension
is: mean, variance, log_mgf (elementwise over a numpy array of thetas as
well as on a float: the rate layer's quadrature evaluates it on every node
at once), log_mgf_prime, sample (the independent per-slot law),
_block_sums (the one block-sum draw), essential_sup, theta_max.
twisted_log_norm, sum_c counts[c] log M(etas[c]), is one array call of
log_mgf for every family.

The block-sum draw returns a (size, cells) float64 array whose cell c sums
counts[c] i.i.d. copies, tilted by etas[c] (density reweighted by
exp(eta x) / M(eta)) or, with no tilts, of the plain law.  The simulator
draws the plain law through ``sample_block_sums(rng, counts, size)``, where
a one-slot cell is the exact per-slot draw; the importance sampler draws the
tilted law through ``sample_block_sums_twisted(etas, rng, counts, size)``.
Each family draws from the cheapest sampler with the exact law, into the
result and temporaries that are small next to it:

* Deterministic: no draw; the constant block sums, repeated per row.
* Exponential and Gamma: the law is Gamma(shape n_c, scale
  1/(rate - eta_c)) (Exponential) or Gamma(k n_c, s/(1 - s eta_c)) (Gamma);
  when every shape is 1 it is one standard exponential draw per cell, scaled
  in place, otherwise one gamma draw per cell.
* DiscreteFinite: with one slot per cell, one uniform per cell whose count of
  normalised cumulative probabilities at or below it is the atom index (the
  algorithm of numpy's ``Generator.choice``); with more, the occupation
  counts of the multinomial drawn as a chain of binomial draws, one per
  atom, vectorised over all cells in blocks of rows.

Scaling: the system-size parameter N inflates the rate (L -> N L) and the
sampling frequency (1/delta -> N^alpha / delta), so the scaled slot length is
delta * N^(-alpha).  The factor N is applied by consumers; samplers return
the un-inflated slot rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

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

# Evaluation this close to an open MGF-domain boundary raises instead of
# returning an overflow-contaminated value.
_BOUNDARY_PAD = 1e-12

# A discrete draw fills its rows in blocks of about this many cells, so its
# index and count temporaries stay small next to the float64 result.
_BLOCK_CELLS = 1 << 16


def spawn_streams(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from ``seed`` by counter-based spawning.

    Stream ``i`` depends only on (seed, i), so the units of work that draw
    from it (a block of replications in ``sim.simulate``, one replication in
    ``reference.simulate_events``) may run in any order or concurrently and
    still reproduce bit-identically.
    """
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]


def _gamma_draws(rng, shapes, scales, size) -> np.ndarray:
    """(size, cells) Gamma(shapes[c], scales[c]) draws; exponential draws when every shape is 1.

    numpy's gamma is the scale times the standard gamma, so scaling in place
    gives ``rng.gamma(shapes, scales, size)`` bit for bit without its temporaries.
    """
    if np.all(shapes == 1.0):
        out = rng.standard_exponential((size, len(shapes)))
    else:
        out = rng.standard_gamma(shapes, size=(size, len(shapes)))
    out *= scales
    return out


def _row_blocks(out: np.ndarray):
    """Slices of the rows of a 2-D array in blocks of about _BLOCK_CELLS cells."""
    rows = max(1, _BLOCK_CELLS // max(out.shape[1], 1))
    return (slice(r0, r0 + rows) for r0 in range(0, len(out), rows))


class EnvSpec:
    """Base class for the rate distribution."""

    family: str

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

    def _check_theta(self, theta) -> None:
        worst = np.max(theta)  # a float or an array of thetas
        if worst >= self.theta_max - _BOUNDARY_PAD:
            raise DomainError(
                f"theta={worst} at or beyond the MGF domain boundary {self.theta_max} "
                f"for family '{self.family}'"
            )

    # -- transforms --------------------------------------------------------
    def log_mgf(self, theta):
        """log M(theta), elementwise when theta is an array."""
        raise NotImplementedError

    def log_mgf_prime(self, theta: float) -> float:
        """d/dtheta log M(theta), the mean under the theta-tilted law."""
        raise NotImplementedError

    def essential_sup(self) -> float:
        raise NotImplementedError

    # -- sampling ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int):
        raise NotImplementedError

    def sample_block_sums(
        self, rng: np.random.Generator, counts: np.ndarray, size: int
    ) -> np.ndarray:
        """(size, len(counts)) sums of counts[b] i.i.d. draws of the plain law."""
        return self._block_sums(rng, np.asarray(counts), size, None)

    def sample_block_sums_twisted(
        self, etas: np.ndarray, rng: np.random.Generator, counts: np.ndarray, size: int
    ) -> np.ndarray:
        """(size, len(counts)) sums of counts[b] i.i.d. draws tilted by etas[b]."""
        etas = np.asarray(etas, dtype=float)
        if etas.size and etas.max() >= self.theta_max - _BOUNDARY_PAD:
            raise DomainError("tilt at or beyond the MGF domain boundary")
        return self._block_sums(rng, np.asarray(counts), size, etas)

    def _block_sums(self, rng, counts: np.ndarray, size: int, etas) -> np.ndarray:
        """The one block-sum draw: tilted by etas, or the plain law when etas is None."""
        raise NotImplementedError

    def twisted_log_norm(self, etas: np.ndarray, counts: np.ndarray) -> float:
        """sum_b counts[b] log M(etas[b]), the log normalizer of those twisted sums."""
        return float(np.sum(counts * self.log_mgf(etas)))

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Deterministic(EnvSpec):
    """Point mass: the classical constant-rate Poisson input."""

    value: float
    family: str = field(default="deterministic", init=False)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rate must be non-negative")

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

    def log_mgf_prime(self, theta: float) -> float:
        return self.value

    def essential_sup(self) -> float:
        return self.value

    def sample(self, rng, size):
        return np.full(size, self.value)

    def _block_sums(self, rng, counts, size, etas):
        return np.broadcast_to(self.value * counts.astype(float), (size, len(counts))).copy()

    def to_json(self):
        return {"family": "deterministic", "value": self.value}


@dataclass(frozen=True)
class Exponential(EnvSpec):
    """Exponential(rate): mean 1/rate, M(theta) = rate/(rate - theta) for theta < rate."""

    rate: float
    family: str = field(default="exponential", init=False)

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

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

    def log_mgf_prime(self, theta: float) -> float:
        self._check_theta(theta)
        return 1.0 / (self.rate - theta)

    def essential_sup(self) -> float:
        return math.inf

    def sample(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate, size=size)

    def _block_sums(self, rng, counts, size, etas):
        rate = self.rate if etas is None else self.rate - etas
        return _gamma_draws(rng, counts.astype(float), 1.0 / rate, size)

    def to_json(self):
        return {"family": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class Gamma(EnvSpec):
    """Gamma(shape, scale): M(theta) = (1 - scale*theta)^(-shape) for theta < 1/scale."""

    shape: float
    scale: float
    family: str = field(default="gamma", init=False)

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")

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

    def log_mgf_prime(self, theta: float) -> float:
        self._check_theta(theta)
        return self.shape * self.scale / (1.0 - self.scale * theta)

    def essential_sup(self) -> float:
        return math.inf

    def sample(self, rng, size):
        return rng.gamma(shape=self.shape, scale=self.scale, size=size)

    def _block_sums(self, rng, counts, size, etas):
        scale = self.scale if etas is None else self.scale / (1.0 - self.scale * etas)
        return _gamma_draws(rng, self.shape * counts.astype(float), scale, size)

    def to_json(self):
        return {"family": "gamma", "shape": self.shape, "scale": self.scale}


class DiscreteFinite(EnvSpec):
    """Finitely many atoms; probabilities must sum to one within 1e-12."""

    family = "discrete"

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise ValueError("values and probs must be equal-length non-empty 1-d sequences")
        if np.any(values < 0):
            raise ValueError("values must be non-negative")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be non-negative and sum to 1 within 1e-12")
        self.values = values
        self.probs = probs / probs.sum()

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
        # Log-space summation as scipy.special.logsumexp does it, bit for bit,
        # without its per-call overhead (the rate layer's bisection calls this
        # about 55 times): the largest terms are factored out, so large
        # theta*values cannot overflow, and the rest enter through log1p.
        logw = self._log_weights(theta)
        top = logw.max(axis=-1)
        is_top = logw == top[..., None]
        rest = np.where(is_top, 0.0, np.exp(logw - top[..., None])).sum(axis=-1)
        count = is_top.sum(axis=-1)
        return np.log1p(rest / count) + np.log(count) + top

    def log_mgf_prime(self, theta: float) -> float:
        w = self._tilted_probs(theta)
        return float(self.values @ w)

    def _log_weights(self, eta) -> np.ndarray:
        """eta v_j + log p_j per atom; an array of etas gives one row each."""
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

    def _block_sums(self, rng, counts, size, etas):
        w = self.probs if etas is None else self._tilted_probs(etas)  # (atoms,) or (cells, atoms)
        out = np.empty((size, len(counts)))
        if np.all(counts == 1):
            # one-slot cells: as in Generator.choice, the atom index is the number
            # of normalised cumulative probabilities at or below one uniform
            cdf = np.cumsum(w, axis=-1)
            cdf /= cdf[..., -1:]
            cuts = np.moveaxis(cdf[..., :-1], -1, 0)
            for rows in _row_blocks(out):
                block = out[rows]
                rng.random(out=block)
                idx = np.zeros(block.shape, np.intp)
                for c in cuts:
                    idx += block >= c
                np.take(self.values, idx, out=block, mode="clip")
            return out
        # the multinomial occupation counts as a chain of binomial draws, one per
        # atom, with atom j's probability given the draw is none of atoms 0..j-1:
        # no (..., atoms) array is formed
        rest = np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
        cond = np.minimum(np.divide(w, rest, out=np.zeros_like(w), where=rest > 0), 1.0)
        counts = np.broadcast_to(counts.astype(np.int64), out.shape)
        for rows in _row_blocks(out):
            block, left = out[rows], counts[rows]
            block[:] = 0.0
            for j, value in enumerate(self.values[:-1]):
                n_j = rng.binomial(left, cond[..., j])
                block += value * n_j
                left = left - n_j
            block += self.values[-1] * left
        return out

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
