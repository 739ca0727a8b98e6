"""The count's finite-N law on the cell table (``coxq.exact``) against closed forms."""

import math

import numpy as np
import pytest

from coxq import exact
from coxq.analytic import transient_moments
from coxq.env import DiscreteFinite, Exponential, Gamma, ScalingRegime
from coxq.errors import ResourceError
from coxq.ldp import RateQuery, estimate_log_tails


@pytest.mark.parametrize("block_tol", [0.0, 0.01])
@pytest.mark.parametrize("phase", [0.0, 0.37], ids=["on-a-slot-boundary", "off-a-slot-boundary"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("env", [Exponential(1.0), Gamma(2.0, 0.5), DiscreteFinite([0.5, 2.0], [0.5, 0.5])],
                         ids=repr)
def test_untilted_kappa_moments_are_the_transient_moments(env, alpha, phase, block_tol):
    # given the layer the count is Poisson(N kappa), so K_N'(0) = N E[kappa] and
    # K_N''(0) = K_N'(0) + N^2 Var[kappa]: kappa_moments at c = 0 against the per-slot closed
    # form's mean and rate part (variance - mean, to the rounding of the variance) at the
    # table's slot length, the rate part within the blocking's block_tol^2/12 share (at N = 100
    # only alpha 2's table, of slot length 1e-4, is blocked)
    N, mu = 100, 1.0
    h = ScalingRegime(N, alpha, 1.0).delta_n
    t = (round(2.0 / h) + phase) * h
    law = exact.ReadLaw.of(RateQuery(env, mu, 1.0, alpha, t, 2.0 * env.mean), N, block_tol)
    assert (law.counts.max() > 1) == (block_tol > 0 and alpha == 2.0)  # 168 cells for 20,000 slots
    mean_kappa, var_kappa = law.kappa_moments(0.0)
    mean, var = transient_moments(env, mu, h, t)
    assert mean_kappa == pytest.approx(mean, rel=1e-12, abs=0)
    assert var_kappa == pytest.approx(var - mean, rel=block_tol**2 / 12 + 1e-12, abs=4 * math.ulp(var))


def test_saddle_log_tail_draws_nothing_so_the_draw_budget_does_not_refuse_it():
    # a 1,024-atom law at N = 9000 on 1,898 cells: one replication's predicted draw work,
    # 2.685e8, is past the budget, but the saddlepoint tail draws nothing; the importance
    # sampler at R = 2000 still refuses before it draws
    env = DiscreteFinite(np.linspace(0.0, 2.0, 1024).tolist(), [1 / 1024] * 1024)
    query = RateQuery(env, 1.0, 1.0, 0.5, 20.0, 1.5)
    assert math.isfinite(exact.saddle_log_tail(query, 9000))
    with pytest.raises(ResourceError, match="predicted draw work"):
        estimate_log_tails(query, [(9000, 1)], 2000, 0.01)
