"""No coxq code imports scipy, which only the tests use.

The Poisson tail of ``ldp-check`` is numpy's, the Anderson-Darling log cdf
and log sf are ``math.erfc``'s, the rate layer integrates and finds its root
with numpy alone, and ``ldp.rate_multivariate`` is a numpy projected Newton
search.  So importing the CLI and running any kind leaves neither ``scipy``
nor any of its submodules in ``sys.modules``, and ``ldp-check`` and every
rate function run with the scipy import blocked.  The quadrature's
Gauss-Legendre rule is written out, so it leaves ``numpy.polynomial``
unloaded too.  Each case runs in a fresh interpreter and reads
``sys.modules`` after it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxq

CONFIGS = Path(__file__).parent.parent / "configs"
# the scipy modules loaded so far, as a statement's last line prints them
LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def run_fresh(statement):
    """Run statement in a fresh interpreter with coxq on the path; its stdout."""
    src = str(Path(coxq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{statement}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def loaded_scipy_modules(statement):
    """The scipy modules (plain scipy included) loaded after running statement."""
    return set(json.loads(run_fresh(f"{statement}\nprint(json.dumps({LOADED}))").splitlines()[-1]))


def cli_statement(kind, config, out, codes=(0,)):
    """Run one CLI command; its exit code must be one of codes."""
    argv = [kind, "--config", str(config), "--out", str(out)]
    return f"import coxq.cli\nassert coxq.cli.main({argv!r}) in {codes!r}"


def test_importing_the_cli_loads_no_scipy_submodule():
    assert loaded_scipy_modules("import coxq.cli") == set()


@pytest.mark.parametrize("kind, stem", [("analytic", "analytic"), ("simulate", "simulate")])
def test_analytic_and_simulate_load_no_scipy_submodule(tmp_path, kind, stem):
    assert loaded_scipy_modules(cli_statement(kind, CONFIGS / f"{stem}.json", tmp_path)) == set()


@pytest.mark.parametrize(
    "kind, stem", [("clt-check", "clt"), ("corr-check", "corr"), ("fclt-check", "fclt")]
)
def test_stationary_and_transient_checks_load_no_scipy_submodule(tmp_path, kind, stem):
    # the Anderson-Darling log cdf and log sf come from math.erfc; at R = 500
    # a criterion may fail (exit 1), which does not change what was loaded
    doc = {**json.loads((CONFIGS / f"{stem}.json").read_text()), "replications": 500}
    config = tmp_path / f"{stem}.json"
    config.write_text(json.dumps(doc))
    statement = cli_statement(kind, config, tmp_path / "out", codes=(0, 1))
    assert loaded_scipy_modules(statement) == set()


def test_ldp_check_does_not_load_scipy_stats(tmp_path):
    doc = {**json.loads((CONFIGS / "ldp_fast.json").read_text()), "replications": 500}
    config = tmp_path / "ldp.json"
    config.write_text(json.dumps(doc))
    loaded = loaded_scipy_modules(cli_statement("ldp-check", config, tmp_path / "out"))
    assert loaded == set()


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_slow_and_intermediate_ldp_check_load_no_quadrature_or_optimizer(tmp_path, alpha):
    # the rate layer integrates and finds its root with numpy alone, by a
    # Gauss-Legendre rule written out, so numpy.polynomial stays unloaded too
    doc = {**json.loads((CONFIGS / "ldp_slow.json").read_text()), "alpha": alpha,
           "N_grid": [200, 400], "replications": 2000, "tolerances": {"slope_rel_tol": 1.0}}
    config = tmp_path / "ldp.json"
    config.write_text(json.dumps(doc))
    statement = cli_statement("ldp-check", config, tmp_path / "out")
    loaded = loaded_scipy_modules(f"{statement}\nassert 'numpy.polynomial' not in sys.modules")
    assert loaded == set()


def test_no_shipped_config_leaves_scipy_in_sys_modules(tmp_path):
    # one interpreter: after the CLI import, then after each shipped config
    # (configs/clt.json fails its Anderson-Darling criterion, exit 1)
    lines = ["import coxq.cli", f"print(json.dumps(['import coxq.cli', {LOADED}]))"]
    for path in sorted(CONFIGS.glob("*.json")):
        argv = [json.loads(path.read_text())["kind"], "--config", str(path),
                "--out", str(tmp_path / path.stem)]
        lines += [f"assert coxq.cli.main({argv!r}) in (0, 1)",
                  f"print(json.dumps([{path.stem!r}, {LOADED}]))"]
    stdout = run_fresh("\n".join(lines))
    steps = [json.loads(line) for line in stdout.splitlines() if line.startswith('["')]
    assert [name for name, _ in steps] == ["import coxq.cli"] + sorted(
        p.stem for p in CONFIGS.glob("*.json"))
    assert all(loaded == [] for _, loaded in steps), steps


def test_ldp_check_runs_with_the_scipy_import_blocked(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    statement = 'sys.modules["scipy"] = None\n' + cli_statement(
        "ldp-check", CONFIGS / "ldp_slow.json", tmp_path / "out")
    run_fresh(statement)
    assert (tmp_path / "out" / "report.json").exists()


def test_every_rate_function_runs_with_the_scipy_import_blocked():
    # rate_multivariate at d = 2 in each regime, and every other rate_* of ldp.__all__
    statement = """sys.modules["scipy"] = None
from coxq import ldp
from coxq.env import DiscreteFinite, Exponential

def q(alpha, mu, a, env=Exponential(1.0)):
    return ldp.RateQuery(env=env, mu=mu, delta=1.0, alpha=alpha, t=5.0, a=a)

for alpha in (0.5, 1.0, 2.0):
    assert ldp.rate_multivariate(q(alpha, (1.0, 2.0), (1.5, 0.8))).rate < 0
assert ldp.rate_fast(q(2.0, 1.0, 1.5).rho_t, 1.5).rate < 0
assert ldp.rate_slow(q(0.5, 1.0, 1.5)).rate < 0
assert ldp.rate_intermediate(q(1.0, 1.0, 1.5)).rate < 0
assert ldp.rate_slow_bounded(q(0.5, 1.0, 1.995, DiscreteFinite([0.5, 2.0], [0.5, 0.5]))).rate < 0
called = {"rate_multivariate", "rate_fast", "rate_slow", "rate_intermediate", "rate_slow_bounded"}
assert called == {name for name in ldp.__all__ if name.startswith("rate_")}
"""
    run_fresh(statement)
