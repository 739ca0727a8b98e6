"""Special functions in numpy: log-sum-exp, the standard normal log cdf and
log sf, an adaptive Gauss-Legendre rule and the log Poisson tail.

No command loads scipy; these stand in for the scipy functions it would call.
The module imports only math, numpy and ``errors``, so every other module can
import it without an import cycle.

* ``log_sum_exp``: scipy.special.logsumexp's summation, bit for bit.
* ``normal_log_cdf_sf``: log Phi(z) and log Phi(-z), from one ``math.erfc``
  per point.
* ``quad``: 10-point Gauss-Legendre panels, each bisected until its halves
  agree with it, every open panel's nodes evaluated in one array call of the
  integrand (``log_mgf``, or the rate search's integrands as one vector).
* ``log_poisson_tail``: log P(Poisson(lam) >= m), exact and in log space: the
  continued fractions of the incomplete gamma function, evaluated backward in
  numpy (within 2.2e-13 relative of 40-digit values, and refused with
  ResourceError where a fraction would need more than 10^5 steps, near m past
  about 3.7e11).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, ResourceError

# A panel closes when its halves' sum agrees with its own estimate to
# _QUAD_RTOL relative, or to _QUAD_ATOL absolute: the floor for integrands
# whose rounding is absolute, such as a discrete log M(u)/u at small u,
# where no relative agreement is reachable.
_QUAD_RTOL = 1e-13
_QUAD_ATOL = 1e-15
# Panels a quadrature may evaluate before it raises ConvergenceError.
_QUAD_PANELS = 4096
# Continued-fraction steps a probe of the count's Poisson tail may take before
# it refuses: the depth peaks at lam = m and grows there about as m^0.31 (7,013
# steps at m = 1e8, 65,167 at 1e11), so the bound admits m up to about 3.7e11.
_CF_STEPS = 10**5
# log m! - (m log m - m) = log(2 pi m)/2 + sum_k B_2k/(2k (2k - 1) m^(2k - 1)),
# k <= 6: the first term left out is below 2e-18 from m = 16 on.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
# log1p(d) - d = u (2 u^2 sum_k u^(2k)/(2k + 3) - d), u = d/(2 + d): for
# |d| <= 1/2, u^2 <= 1/9 and 17 terms reach 1e-17.
_LOG1PMX = tuple(1.0 / (2 * k + 3) for k in range(17))


def log_sum_exp(a) -> np.ndarray:
    """log sum_j exp(a[..., j]) over the last axis, for a whose rows each hold
    a finite entry.

    The summation scipy.special.logsumexp does, bit for bit, without its
    per-call overhead (the rate search evaluates a discrete log-MGF once per
    quadrature round): the largest terms are factored out, so large entries
    cannot overflow, and the rest enter through log1p."""
    a = np.asarray(a)
    top = a.max(axis=-1)
    is_top = a == top[..., None]
    rest = np.where(is_top, 0.0, np.exp(a - top[..., None])).sum(axis=-1)
    count = is_top.sum(axis=-1)
    return np.log1p(rest / count) + np.log(count) + top


def normal_log_cdf_sf(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Phi(z) and log Phi(-z) (the standard normal log cdf and log sf) of a
    1-D float array, from one ``math.erfc`` per point.

    With t = |z| and e = erfc(t/sqrt(2)) = 2 Phi(-t), the tail side is
    log(e/2) and the central side log1p(-e/2), each without cancellation.
    erfc underflows past t of about 37.5; for t > 37 the tail side is the
    asymptotic series -t^2/2 - log t - log(2 pi)/2 + log(1 - 1/t^2 + 3/t^4
    - 15/t^6 + 105/t^8 - 945/t^10), whose first omitted term is below 2e-15
    there, so no point gives -inf.  The tail side is within a few ulp of the
    exact value.  The central side, about -e/2 at large t, carries e's
    relative error: about t^2 ulp, from the one rounding of the erfc argument
    (d log erfc(x)/dx is about -2x), which any erfc-based form shares."""
    t = np.abs(z)
    e = np.fromiter(map(math.erfc, (t * math.sqrt(0.5)).tolist()), float, t.size) / 2
    with np.errstate(divide="ignore"):
        tail = np.log(e)
    central = np.log1p(-e)
    far = t > 37.0
    if far.any():
        r = 1.0 / t[far] ** 2
        series = -r * (1 - 3 * r * (1 - 5 * r * (1 - 7 * r * (1 - 9 * r))))
        tail[far] = -0.5 * t[far] ** 2 - np.log(t[far]) - 0.5 * math.log(2 * math.pi) + np.log1p(series)
    below = z < 0
    return np.where(below, tail, central), np.where(below, central, tail)


# The 10-point Gauss-Legendre nodes and weights on [-1, 1]: the values of
# numpy.polynomial.legendre.leggauss(10) bit for bit, written out so that no
# command loads numpy.polynomial.
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
])


def quad(f, lo: float, hi: float) -> float | np.ndarray:
    """int_lo^hi f by adaptive 10-point Gauss-Legendre.

    f maps an array of n points to n values, or to a (k, n) array: a vector
    integrand, whose integral is then a (k,) array.  Each round bisects every
    open panel and evaluates all the halves in one call of f; a panel closes
    when its halves' sum agrees with its own estimate (``_QUAD_RTOL``,
    ``_QUAD_ATOL``) in every component, and the estimate sums the closed
    panels' halves."""

    def rule(a, b):  # the Gauss-Legendre estimate on each panel [a_i, b_i]
        half = 0.5 * (b - a)
        x = (a + half)[:, None] + half[:, None] * _GL_NODES
        values = f(x.ravel())
        return half * (values.reshape(values.shape[:-1] + x.shape) @ _GL_WEIGHTS)

    a, b = np.array([lo], dtype=float), np.array([hi], dtype=float)
    whole = rule(a, b)
    parts, panels = [], 1
    while a.size:
        panels += 2 * a.size
        if panels > _QUAD_PANELS:
            raise ConvergenceError(f"quadrature unresolved after {_QUAD_PANELS} panels")
        m = 0.5 * (a + b)
        halves = rule(np.concatenate([a, m]), np.concatenate([m, b]))
        left, right = halves[..., : a.size], halves[..., a.size :]
        pair = left + right
        gap = np.abs(whole - pair)
        done = (gap <= np.maximum(_QUAD_RTOL * np.abs(pair), _QUAD_ATOL)).reshape(-1, a.size).all(axis=0)
        parts.append(pair[..., done])
        more = ~done
        a, b = np.concatenate([a[more], m[more]]), np.concatenate([m[more], b[more]])
        whole = np.concatenate([left[..., more], right[..., more]], axis=-1)
    parts = np.concatenate(parts, axis=-1)
    return math.fsum(parts) if parts.ndim == 1 else np.array([math.fsum(row) for row in parts])


def log_poisson_tail(m: int, lam: np.ndarray) -> np.ndarray:
    """log P(Poisson(lam) >= m), elementwise; finite wherever lam > 0.

    The tail is the regularized gamma P(m, lam), and l = log(m pmf(m, lam))
    (``_log_m_pmf``) is its prefactor: below lam = m it is l - log F, F the
    continued fraction of gamma(m, lam) in its contracted (Jacobi) form
    m - lam + 1 lam/(m + 1 - lam + 2 lam/(m + 2 - lam + ...)); at or above m it
    is log1p(-e^l / G), e^l / G = P(X <= m - 1) and G Legendre's fraction of
    Gamma(m, lam), lam + 1 - m + 1 (m - 1)/(lam + 3 - m + 2 (m - 2)/(...)).
    Both fractions have positive terms, so their backward recurrence is stable
    (``_tail_fraction``), and the log is never taken of an underflowed tail.
    Against 40-digit mpmath, over m from 1 to 10^6 and lam/m in [1e-6, 40],
    the error is at most 3.2e-15 relative below m and 2.2e-13 at or above it,
    where the rounding of l (up to 745 in size before e^l underflows) sets it;
    near lam = m it stays within 1e-14 up to m = 1e10 (against the fractions
    at 50 digits).  A fraction that needs more than ``_CF_STEPS`` steps, near
    lam = m past m of about 3.7e11, raises ResourceError."""
    if m <= 0:  # a count is never below 0
        return np.zeros_like(lam)
    order = np.argsort(lam)
    s = lam[order]
    ell = _log_m_pmf(m, s)
    k = int(np.searchsorted(s, m))
    tail = np.empty_like(s)
    below = np.ascontiguousarray(s[:k][::-1])  # nearest m first; a strided view is slower
    tail[:k][::-1] = ell[:k][::-1] - np.log(_tail_fraction(m, below, upper=False))
    tail[k:] = np.log1p(-np.exp(ell[k:]) / _tail_fraction(m, s[k:], upper=True))
    out = np.empty_like(lam)
    out[order] = tail
    return out


def _log_m_pmf(m: int, s: np.ndarray) -> np.ndarray:
    """log(m pmf(m, s)) = m log s - s - log (m-1)! for s sorted ascending, m >= 1.

    With d = s/m - 1 it is m (log1p(d) - d) - E(m) + log m, E(m) = log m! -
    (m log m - m), so no large terms cancel: below s = m/2, where d loses s,
    m log(s/m) - (s - m) stands for m (log1p(d) - d); for |d| <= 1/2 the
    ``_LOG1PMX`` series stands for log1p(d) - d, which cancels there."""
    lo, hi = np.searchsorted(s, (0.5 * m, 1.5 * m), side="right")
    out = np.empty_like(s)
    far, near, high = s[:lo], s[lo:hi], s[hi:]
    with np.errstate(divide="ignore"):  # a zero rate has log pmf -inf
        out[:lo] = m * np.log(far / m) - (far - m)
    d = (near - m) / m  # near - m is exact
    u = d / (2.0 + d)
    u2 = u * u
    series = np.full_like(u2, _LOG1PMX[-1])
    for c in _LOG1PMX[-2::-1]:
        series *= u2
        series += c
    out[lo:hi] = m * (u * (2.0 * u2 * series - d))
    d = (high - m) / m
    with np.errstate(over="ignore"):  # log pmf -inf at a rate near float max
        out[hi:] = m * (np.log1p(d) - d)
    if m < 16:
        rest = math.lgamma(m + 1) - (m * math.log(m) - m)
    else:
        series = 0.0
        for c in _STIRLING[::-1]:
            series = c + series / (m * m)
        rest = 0.5 * math.log(2.0 * math.pi * m) + series / m
    return out + (math.log(m) - rest)


def _fraction_steps(m: int, x: float, upper: bool) -> int | None:
    """Steps until the modified Lentz evaluation of ``_tail_fraction``'s
    fraction at x changes by less than rounding, or None past ``_CF_STEPS``.
    Every term is positive (the upper fraction ends at step m), so no
    denominator is 0."""
    shift = x + 1.0 - m if upper else m - x
    c, d = shift, 0.0
    for n in range(1, _CF_STEPS + 1):
        a, b = (n * (m - n), shift + 2 * n) if upper else (n * x, shift + n)
        d = 1.0 / (b + a * d)
        c = b + a / c
        if abs(c * d - 1.0) < 2.0**-53:
            return n
    return None


def _tail_fraction(m: int, x: np.ndarray, upper: bool) -> np.ndarray:
    """F (x < m) or G (x >= m) of ``log_poisson_tail`` at each x, x ordered
    nearest m (slowest to converge) first.

    The x fall into runs by their distance from m: [0, e_1), [e_1, e_2), ...,
    e_j = sqrt(m) 2^(j - 4), the last run open.  A Lentz probe at each run's
    near edge gives its depth (the depth falls with the distance); one
    backward recurrence serves every run, each joining it at that depth plus
    2 (and no less than a farther run's), so a level costs a few array
    operations over the runs deep enough to need it, and each value depends
    only on its own x and m."""
    shift = x + (1.0 - m) if upper else m - x
    edges = [0.0]
    while edges[-1] < m:
        edges.append(math.sqrt(m) * 2.0 ** (len(edges) - 4))
    bounds = np.searchsorted(shift, np.add(edges, 1.0 if upper else 0.0)).tolist() + [x.size]
    first = next((j for j in range(len(edges)) if bounds[j] < bounds[j + 1]), len(edges))
    starts = []
    for e in edges[first:]:
        near = m + e if upper else max(m - e, 0.0) if e else math.nextafter(m, 0.0)
        steps = _fraction_steps(m, near, upper)
        if steps is None:
            raise ResourceError(
                f"log P(Poisson(lam) >= {m}) needs more than {_CF_STEPS} "
                f"continued-fraction steps at lam = {near:.10g}"
            )
        starts.append(steps + 2)
    starts = np.maximum.accumulate(starts[::-1])[::-1].tolist()  # non-increasing
    f = np.empty_like(x)
    run = 0
    for n in range(starts[0] if starts else 0, 0, -1):
        while run < len(starts) and starts[run] == n:  # the runs that join at level n
            lo, hi = bounds[first + run], bounds[first + run + 1]
            np.add(shift[lo:hi], 2 * n if upper else n, out=f[lo:hi])
            run += 1
            xs, ss, fs = x[:hi], shift[:hi], f[:hi]
        if upper:  # f <- x + 1 - m + 2 (n - 1) + n (m - n)/f
            np.divide(n * (m - n), fs, out=fs)
        else:  # f <- m - x + n - 1 + n x/f
            np.divide(xs, fs, out=fs)
            fs *= n
        fs += ss
        fs += 2 * (n - 1) if upper else n - 1
    return f
