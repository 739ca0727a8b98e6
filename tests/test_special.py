"""The package's special functions against scipy and mpmath: log-sum-exp,
the standard normal log cdf and log sf, the Gauss-Legendre rule and the log
Poisson tail, with the module's place at the bottom of the import graph."""

import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp
from scipy.stats import poisson

from coxq import special
from coxq.errors import ConvergenceError, ResourceError
from coxq.special import (
    _GL_NODES,
    _GL_WEIGHTS,
    log_poisson_tail,
    log_sum_exp,
    normal_log_cdf_sf,
    quad,
)


def test_special_imports_only_math_numpy_and_errors():
    # every module of the package may import it, with no import cycle
    imported = set()
    for node in ast.walk(ast.parse(Path(special.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + node.module)
    assert imported <= {"__future__", "math", "numpy", ".errors"}, imported


def test_log_sum_exp_is_bitwise_scipy_logsumexp_on_long_vectors():
    # the shape estimate_log_tails reduces: one finite log weight per replication
    rng = np.random.default_rng(1)
    for trial in range(300):
        n = int(rng.integers(1, 50_001))
        a = rng.normal(-30.0, 10 ** rng.uniform(-3, 2), n)
        if trial % 3 == 0:
            a = np.round(a, 1)  # ties, the largest entry among them
        for v in (a, 2.0 * a):
            assert np.array_equal(log_sum_exp(v), logsumexp(v)), (trial, n)


def test_log_ndtr_is_norm_logcdf_and_logsf():
    # normal_log_cdf_sf against scipy.stats.norm, 1e-14 relative.  Past
    # |z| = 8 the central side is about -Phi(-|z|), whose relative error in
    # any erfc-based form is about z^2 ulp (one rounding of the erfc
    # argument), and scipy's erfc adds its own (the two differ by 5.7e-14 at
    # |z| = 37), so there the bound is z^2 eps/2.  The absolute floor, the smallest normal float,
    # only matters where a value is subnormal.
    z = np.concatenate([np.linspace(-40.0, 40.0, 8001), [0.0, -0.0, 1e-300, -1e-300]])
    log_cdf, log_sf = normal_log_cdf_sf(z)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    for got, want, central in (
        (log_cdf, stats.norm.logcdf(z), z > 0),
        (log_sf, stats.norm.logsf(z), z < 0),
    ):
        assert np.all(np.isfinite(got))
        rtol = np.where(central, np.maximum(1e-14, z**2 * eps / 2), 1e-14)
        assert np.all(np.abs(got - want) <= rtol * np.abs(want) + tiny)

# -- the quadrature rule ----------------------------------------------------------


def test_gauss_legendre_rule_is_leggauss_10_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


def test_quad_vector_integrand_closes_a_panel_only_when_every_component_agrees():
    # a smooth row beside one with a log singularity at 0: the vector rule refines
    # both rows wherever either needs it, so each row is as exact as its own scalar rule
    rows = (lambda x: np.exp(x), lambda x: np.log(x))
    got = quad(lambda x: np.stack([f(x) for f in rows]), 0.0, 2.0)
    assert got.shape == (2,)
    np.testing.assert_allclose(got, [math.expm1(2.0), 2.0 * math.log(2.0) - 2.0], rtol=1e-13)
    for f, value in zip(rows, got):
        assert value == pytest.approx(quad(f, 0.0, 2.0), rel=1e-13)
    assert type(quad(rows[0], 0.0, 2.0)) is float  # a scalar integrand's integral is a float


def test_quad_refuses_an_integrand_it_cannot_resolve():
    # a NaN agrees with nothing, so no panel ever closes
    with pytest.raises(ConvergenceError, match="^quadrature unresolved after 4096 panels$"):
        quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


# -- the count's Poisson tail -----------------------------------------------------


POISSON_LEVELS = [1, 7, 60, 400, 2000, 7600, 10**6]


@pytest.mark.parametrize("m", POISSON_LEVELS)
def test_log_poisson_tail_is_scipy_logsf_where_finite(m):
    # scipy's logsf is the log of a rounded sf, so where log P is near 0
    # (lam >> m) its error is absolute: the two agree to 1e-14 relative above 1
    # in size and 1e-14 absolute below (largest gap 6e-15)
    lam = np.geomspace(1e-3, 4.0 * m, 200)
    want = poisson.logsf(m - 1, lam)
    assert np.isfinite(want).any()
    got = log_poisson_tail(m, lam)
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14, atol=1e-14)
    assert np.all(np.isfinite(got))


def _mpmath_log_poisson_tail(m, lam):
    """log P(Poisson(lam) >= m) at 40 digits.  At or above m it is log1p(-Q),
    Q = P(X <= m - 1): log(1 - Q) at 40 digits would lose a Q below 1e-40."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(lam))
        if lam < m:
            return float(mpmath.log(mpmath.gammainc(m, 0, x, regularized=True)))
        return float(mpmath.log1p(-mpmath.gammainc(m, x, mpmath.inf, regularized=True)))


@pytest.mark.parametrize("m", [1, 2, 7, 15, 16, 60, 400, 2000, 7600, 30_000, 10**6])
def test_log_poisson_tail_is_mpmath_to_40_digits_within_its_bound(m):
    # lam/m over [1e-6, 40], plus random lam within 1e-6 to 0.5 of m, where the
    # fractions are deepest.  Below m the error is at most 3.2e-15 relative; at
    # or above m, log P = log1p(-e^l/G) inherits the rounding of l, up to 745
    # in size before e^l underflows: at most 2.2e-13 (measured over 19 levels
    # from 1 to 1e6).  A tail below 1e-290 in size is compared absolutely.
    rng = np.random.default_rng(m)
    near = 1.0 + rng.choice([-1.0, 1.0], 100) * 10.0 ** rng.uniform(-6.0, -0.3, 100)
    lam = m * np.concatenate([np.geomspace(1e-6, 40.0, 200), near])
    want = np.array([_mpmath_log_poisson_tail(m, x) for x in lam])
    got = log_poisson_tail(m, lam)
    tiny = np.abs(want) < 1e-290
    for side, rtol in ((lam < m) & ~tiny, 5e-15), ((lam >= m) & ~tiny, 3e-13):
        np.testing.assert_allclose(got[side], want[side], rtol=rtol, atol=0)
    np.testing.assert_allclose(got[tiny], want[tiny], rtol=0, atol=1e-300)


def test_log_poisson_tail_at_ten_million_is_the_40_digit_value():
    # scipy's pdtrc gives -22.82733658564460 here, so its P is 1.4% off; the
    # value below is log pmf(m) + log sum_k prod_{i<=k} lam/(m+i) at 50 digits
    got = log_poisson_tail(10**7, np.array([0.998e7]))[0]
    assert got == pytest.approx(-22.81364128554411863, rel=1e-14)


def test_log_poisson_tail_past_its_work_bound_raises_resource_error():
    # near lam = m the fraction's depth grows about as m^0.31 (65,167 steps
    # at m = 1e11) and passes _CF_STEPS = 10^5 at about m = 3.7e11; far from m
    # it stays shallow
    with pytest.raises(ResourceError, match="continued-fraction steps"):
        log_poisson_tail(10**12, np.array([1e12 - 1e3]))
    assert np.all(np.isfinite(log_poisson_tail(10**12, np.array([0.5e12, 2e12]))))


def test_log_poisson_tail_of_a_level_at_most_0_is_0():
    lam = np.array([0.0, 1e-3, 5.0])
    for m in (0, -3):
        np.testing.assert_array_equal(log_poisson_tail(m, lam), poisson.logsf(m - 1, lam))


@pytest.mark.parametrize(
    "lam, m, want", [(3800.0, 7600, -1472.6126), (50.0, 2000, -5432.4530)]
)
def test_log_poisson_tail_below_logsf_underflow_matches_direct_sum(lam, m, want):
    assert poisson.logsf(m - 1, lam) == -math.inf
    direct = logsumexp(poisson.logpmf(np.arange(m, m + 5000), lam))
    got = log_poisson_tail(m, np.array([lam]))[0]
    assert got == pytest.approx(direct, rel=1e-12)
    assert got == pytest.approx(want, abs=1e-4)


def test_log_poisson_tail_of_a_zero_rate_is_minus_inf():
    assert log_poisson_tail(5, np.array([0.0]))[0] == -math.inf
