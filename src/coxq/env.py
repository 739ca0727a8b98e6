"""Random-environment arrival rates.

The arrival intensity is a piecewise-constant process: every slot of length
``delta`` an i.i.d. copy of a non-negative random variable with finite first
two moments is drawn and held.  Four closed-form families are supported;
each provides its moments, moment generating function M(theta) = E exp(theta L),
an exponentially twisted sampler (density reweighted by exp(eta x) / M(eta)),
and its essential supremum.  Downstream modules need exact transforms, which
is why the families are closed rather than user-pluggable; the interface
contract for an extension is: mean, variance, mgf, log_mgf, log_mgf_prime,
sample, sample_block_sums, sample_block_sums_twisted, essential_sup, theta_max.

Scaling: the system-size parameter N inflates the rate (L -> N L) and the
sampling frequency (1/delta -> N^alpha / delta), so the scaled slot length is
delta * N^(-alpha).  The factor N is applied by consumers; samplers return
the un-inflated slot rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

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


def spawn_streams(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from ``seed`` by counter-based spawning.

    Stream ``i`` depends only on (seed, i), so replications may run in any
    order or concurrently and still reproduce bit-identically.
    """
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]


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

    def _check_theta(self, theta: float) -> None:
        if theta >= self.theta_max - _BOUNDARY_PAD:
            raise DomainError(
                f"theta={theta} at or beyond the MGF domain boundary {self.theta_max} "
                f"for family '{self.family}'"
            )

    # -- transforms --------------------------------------------------------
    def mgf(self, theta: float) -> float:
        raise NotImplementedError

    def log_mgf(self, theta: float) -> float:
        raise NotImplementedError

    def log_mgf_prime(self, theta: float) -> float:
        """d/dtheta log M(theta), the mean under the theta-tilted law."""
        raise NotImplementedError

    def essential_sup(self) -> float:
        raise NotImplementedError

    # -- sampling ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int):
        raise NotImplementedError

    def sample_block_sums(self, rng: np.random.Generator, counts: np.ndarray):
        """Draw sums of ``counts[b]`` i.i.d. copies, one sum per block, exactly."""
        raise NotImplementedError

    def sample_block_sums_twisted(
        self, etas: np.ndarray, rng: np.random.Generator, counts: np.ndarray, size: int
    ) -> np.ndarray:
        """(size, len(counts)) sums of counts[b] i.i.d. draws tilted by etas[b]."""
        raise NotImplementedError

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

    def mgf(self, theta: float) -> float:
        return math.exp(theta * self.value)

    def log_mgf(self, theta: float) -> float:
        return theta * self.value

    def log_mgf_prime(self, theta: float) -> float:
        return self.value

    def essential_sup(self) -> float:
        return self.value

    def sample(self, rng, size):
        return np.full(size, self.value)

    def sample_block_sums(self, rng, counts):
        return self.value * np.asarray(counts, dtype=float)

    def sample_block_sums_twisted(self, etas, rng, counts, size):
        return np.broadcast_to(
            self.value * np.asarray(counts, dtype=float), (size, len(counts))
        ).copy()

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

    def mgf(self, theta: float) -> float:
        self._check_theta(theta)
        return self.rate / (self.rate - theta)

    def log_mgf(self, theta: float) -> float:
        self._check_theta(theta)
        return -math.log1p(-theta / self.rate)

    def log_mgf_prime(self, theta: float) -> float:
        self._check_theta(theta)
        return 1.0 / (self.rate - theta)

    def essential_sup(self) -> float:
        return math.inf

    def sample(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate, size=size)

    def sample_block_sums(self, rng, counts):
        counts = np.asarray(counts)
        return rng.gamma(shape=counts.astype(float), scale=1.0 / self.rate)

    def sample_block_sums_twisted(self, etas, rng, counts, size):
        etas = np.asarray(etas, dtype=float)
        if etas.size and etas.max() >= self.theta_max - _BOUNDARY_PAD:
            raise DomainError("tilt at or beyond the MGF domain boundary")
        counts = np.asarray(counts, dtype=float)
        return rng.gamma(shape=counts, scale=1.0 / (self.rate - etas), size=(size, len(etas)))

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

    def mgf(self, theta: float) -> float:
        self._check_theta(theta)
        return (1.0 - self.scale * theta) ** (-self.shape)

    def log_mgf(self, theta: float) -> float:
        self._check_theta(theta)
        return -self.shape * math.log1p(-self.scale * theta)

    def log_mgf_prime(self, theta: float) -> float:
        self._check_theta(theta)
        return self.shape * self.scale / (1.0 - self.scale * theta)

    def essential_sup(self) -> float:
        return math.inf

    def sample(self, rng, size):
        return rng.gamma(shape=self.shape, scale=self.scale, size=size)

    def sample_block_sums(self, rng, counts):
        counts = np.asarray(counts)
        return rng.gamma(shape=self.shape * counts.astype(float), scale=self.scale)

    def sample_block_sums_twisted(self, etas, rng, counts, size):
        etas = np.asarray(etas, dtype=float)
        if etas.size and etas.max() >= self.theta_max - _BOUNDARY_PAD:
            raise DomainError("tilt at or beyond the MGF domain boundary")
        counts = np.asarray(counts, dtype=float)
        scales = self.scale / (1.0 - self.scale * etas)
        return rng.gamma(shape=self.shape * counts, scale=scales, size=(size, len(etas)))

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

    def mgf(self, theta: float) -> float:
        return math.exp(self.log_mgf(theta))

    def log_mgf(self, theta: float) -> float:
        # Log-space summation: large theta*values must not overflow.
        with np.errstate(divide="ignore"):
            return float(logsumexp(theta * self.values + np.log(self.probs)))

    def log_mgf_prime(self, theta: float) -> float:
        w = self._tilted_probs(theta)
        return float(self.values @ w)

    def _tilted_probs(self, eta: float) -> np.ndarray:
        with np.errstate(divide="ignore"):
            logw = eta * self.values + np.log(self.probs)
        logw -= logw.max()
        w = np.exp(logw)
        return w / w.sum()

    def essential_sup(self) -> float:
        return float(self.values[self.probs > 0].max())

    def sample(self, rng, size):
        idx = rng.choice(self.values.size, size=size, p=self.probs)
        return self.values[idx]

    def sample_block_sums(self, rng, counts):
        counts = np.asarray(counts)
        occ = rng.multinomial(counts, self.probs)
        return occ @ self.values

    def sample_block_sums_twisted(self, etas, rng, counts, size):
        out = np.empty((size, len(counts)))
        for b, (eta, n) in enumerate(zip(etas, counts)):
            occ = rng.multinomial(int(n), self._tilted_probs(eta), size=size)
            out[:, b] = occ @ self.values
        return out

    def to_json(self):
        return {"family": "discrete", "values": self.values.tolist(), "probs": self.probs.tolist()}


_FAMILIES = {
    "deterministic": lambda d: Deterministic(value=d["value"]),
    "exponential": lambda d: Exponential(rate=d["rate"]),
    "gamma": lambda d: Gamma(shape=d["shape"], scale=d["scale"]),
    "discrete": lambda d: DiscreteFinite(values=d["values"], probs=d["probs"]),
}


def env_from_json(obj: dict) -> EnvSpec:
    """Inverse of ``EnvSpec.to_json``; raises ValueError for unknown families."""
    try:
        make = _FAMILIES[obj["family"]]
    except KeyError as exc:
        raise ValueError(f"unknown env family: {obj.get('family')!r}") from exc
    return make(obj)


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

    @property
    def delta_n(self) -> float:
        return self.delta * self.N ** (-self.alpha)

    @property
    def gamma(self) -> float:
        return max(1.0, 2.0 - self.alpha)

    @property
    def beta(self) -> float:
        return min(1.0, self.alpha)
