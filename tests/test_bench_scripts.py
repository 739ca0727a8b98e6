"""The scripts under ``bench/`` still load against the package.

They import ``coxq`` names, private ones too (``bench/layers.py`` takes the
importance sampler's cell counts, weights and tilt from ``ldp._tilt``), and no
command runs them, so a rename or a deletion in ``src/`` would otherwise
surface only when a script is next run.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import coxq.sim
from coxq import ldp

BENCH = Path(__file__).resolve().parent.parent / "bench"
# ldp_screen first: the others import it
SCRIPTS = ("ldp_screen", "diff_outputs", "reach", "layers", "stationary_screen")


@pytest.fixture
def bench(monkeypatch):
    """Every bench script loaded as a module under its own name, as the scripts
    import one another; sys.path and sys.modules are restored after."""
    monkeypatch.syspath_prepend(str(BENCH))
    modules = {}
    for name in SCRIPTS:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules


def test_every_bench_script_imports(bench):
    assert sorted(bench) == sorted(path.stem for path in BENCH.glob("*.py"))


def test_layers_takes_the_slow_tilt_from_the_sampler(bench):
    # the ldp_slow tail call at its smallest N: the simulator's cell table, and
    # eta = c w with c = N expm1(s) at the saddle point K_N'(s) = m - 1/2 of the
    # count's CGF K_N(s) = twisted_log_norm(N expm1(s) w), by a central difference
    layers = bench["layers"]
    calls = bench["ldp_screen"].load_workloads().make_calls("tail", layers.SEED)
    doc = next(call.doc for call in calls if call.name == "ldp_slow")
    N = doc["N_grid"][0]
    query, counts, wk, etas, m = layers.is_inputs(doc, N)
    table, _ = layers.table_of(doc, N, (doc["t"],))
    np.testing.assert_array_equal(counts, table.slots)
    np.testing.assert_array_equal(wk, table.weights[0][:, 0] / counts)
    c = ldp._tilt(query, N, doc["replications"], doc.get("block_tol", 0.01))[2]
    np.testing.assert_array_equal(etas, c * wk)
    assert m == math.ceil(N * doc["a"] - 1e-9)
    s, d = math.log1p(c / N), 1e-6
    K = [query.env.twisted_log_norm(N * math.expm1(s + x) * wk, counts) for x in (d, -d)]
    assert c > 0 and (K[0] - K[1]) / (2 * d) == pytest.approx(m - 0.5, rel=1e-7)


def test_ldp_screen_prints_the_rel_err_median_and_largest_and_their_ratios(bench):
    # rows of two seeds: median 0.006 and largest 0.012 here against 0.004 and
    # 0.006 there; a constant rate layer's rel_errs are 0, so its ratios are nan
    def runs(errors, rel_errs):  # {seed: screen(...)} at seeds 1, 2, ...
        return {str(seed): {"exit": 0, "slope_error": e, "rel_err": r}
                for seed, (e, r) in enumerate(zip(errors, rel_errs), 1)}

    fast = runs([0.0], [[0.0]])
    mine = {"ldp_slow": runs([0.02, 0.05], [[0.004, 0.006], [0.006, 0.012]]), "ldp_fast": fast}
    theirs = {"ldp_slow": runs([0.01, 0.01], [[0.004, 0.004], [0.004, 0.006]]), "ldp_fast": fast}
    summary = bench["ldp_screen"].summary
    header, slow, constant = summary(mine, theirs)
    assert "rel_err median" in header and header.endswith("x median  x max")
    assert slow.split() == ["ldp_slow", "5.0000%", "2", "[0]", "0.006", "0.012", "0.04", "1.500", "2.000"]
    assert constant.split()[-2:] == ["nan", "nan"]
    assert summary(mine)[1].split() == slow.split()[:6]


def test_layers_ab_summary_reads_each_pair_as_this_over_against(bench):
    # three pairs of one timing: this checkout lower in two, and a key that only
    # one side has (a layer one checkout lacks) is left out
    mine = [{"t": 1.0, "new": 1.0}, {"t": 3.0, "new": 1.0}, {"t": 2.0, "new": 1.0}]
    theirs = [{"t": 2.0}, {"t": 2.0}, {"t": 4.0}]
    summary = bench["layers"].ab_summary(mine, theirs)
    assert list(summary) == ["t"]
    assert summary["t"]["ratios"] == [0.5, 1.5, 0.5]
    assert summary["t"]["median_ratio"] == 0.5
    assert summary["t"]["lower"] == 2
    assert summary["t"]["against_quartiles"] == [2.0, 2.0, 4.0]


def test_stationary_screen_reads_each_criterion_as_a_share_of_its_tolerance(bench):
    screen = bench["stationary_screen"]

    def share(name, observed, target, tol):
        return screen.share({"name": name, "observed": observed, "target": target, "tolerance": tol})

    assert share("clt_variance_ratio", 1.05, 1.0, 0.1) == pytest.approx(0.5)
    assert share("fclt_covariance_entries", 0.02, 0.0, 0.1) == pytest.approx(0.2)
    assert share("stationary_correlation", 0.38, 0.4, 0.1) == pytest.approx(0.5)  # relative tolerance
    assert share("clt_normality_pvalue", 0.005, 0.01, 0.01) == 2.0  # p must exceed the level
    assert share("clt_normality_pvalue", 0.0, 0.01, 0.01) == math.inf
    # Wilson score 95% intervals
    assert screen.wilson(0, 10) == pytest.approx((0.0, 0.278), abs=1e-3)
    assert screen.wilson(13, 300) == pytest.approx((0.0255, 0.0727), abs=1e-4)


def test_stationary_screen_against_names_the_seeds_whose_failing_criteria_moved(bench):
    def run(code, **passed):
        shares = {k: {"passed": v, "share": 0.5 if v else 2.0} for k, v in passed.items()}
        return {"exit": code, "criteria": shares}

    mine = {"1": run(0, a=True, b=True), "2": run(1, a=False, b=True), "3": run(1, a=True, b=False)}
    theirs = {"1": run(0, a=True, b=True), "2": run(1, a=False, b=True), "3": run(1, a=False, b=True)}
    lines, bad = bench["stationary_screen"].summary(mine, theirs)
    assert bad and "  against: 1 of 3 seeds moved (3)" in lines
    assert "FAIL at 2 of 3 seeds" in lines[0]
    assert any(line.startswith("  a ") and line.endswith("fails at seeds 2") for line in lines)
    lines, bad = bench["stationary_screen"].summary(theirs, theirs)
    assert not bad and "  against: 0 of 3 seeds moved" in lines


def test_every_shipped_config_and_bench_call_sits_far_inside_the_work_budget(bench):
    # the predicted draw work of every N stays within a tenth of the budget, at
    # workload seeds 1-20; the largest is ldp_slow_discrete's at N = 1600
    layers, screen = bench["layers"], bench["ldp_screen"]
    workloads = screen.load_workloads()
    docs = [json.loads(p.read_text()) for p in sorted((screen.ROOT / "configs").glob("*.json"))]
    docs += [call.doc for seed in range(1, 21) for workload in workloads.WORKLOADS
             for call in workloads.make_calls(workload, seed)]
    worst = max(max(layers.predicted_work(doc), default=0) for doc in docs)
    assert 2e7 < worst <= coxq.sim._WORK_BUDGET / 10
