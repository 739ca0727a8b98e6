"""Which scipy submodules a coxq process loads.

The package imports plain ``scipy`` and reaches each submodule at its call
site, so a submodule loads on first use: importing the CLI loads none, and of
the kinds only ``ldp-check`` loads one, ``scipy.special``, for its Poisson
tail; no kind loads ``scipy.stats``, ``scipy.integrate`` or ``scipy.optimize``.
Each case runs in a fresh interpreter and reads ``sys.modules`` after it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxq

CONFIGS = Path(__file__).parent.parent / "configs"
SUBMODULES = {"scipy.special", "scipy.stats", "scipy.integrate", "scipy.optimize"}


def loaded_submodules(statement):
    """The SUBMODULES loaded after running statement in a fresh interpreter."""
    script = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps(sorted(set(sys.modules) & {SUBMODULES!r})))"
    )
    src = str(Path(coxq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def cli_statement(kind, config, out, codes=(0,)):
    """Run one CLI command; its exit code must be one of codes."""
    argv = [kind, "--config", str(config), "--out", str(out)]
    return f"import coxq.cli\nassert coxq.cli.main({argv!r}) in {codes!r}"


def test_importing_the_cli_loads_no_scipy_submodule():
    assert loaded_submodules("import coxq.cli") == set()


@pytest.mark.parametrize("kind, stem", [("analytic", "analytic"), ("simulate", "simulate")])
def test_analytic_and_simulate_load_no_scipy_submodule(tmp_path, kind, stem):
    assert loaded_submodules(cli_statement(kind, CONFIGS / f"{stem}.json", tmp_path)) == set()


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
    assert loaded_submodules(statement) == set()


def test_ldp_check_does_not_load_scipy_stats(tmp_path):
    doc = {**json.loads((CONFIGS / "ldp_fast.json").read_text()), "replications": 500}
    config = tmp_path / "ldp.json"
    config.write_text(json.dumps(doc))
    loaded = loaded_submodules(cli_statement("ldp-check", config, tmp_path / "out"))
    assert loaded == {"scipy.special"}


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_slow_and_intermediate_ldp_check_load_no_quadrature_or_optimizer(tmp_path, alpha):
    # the rate layer integrates and finds its root with numpy alone
    doc = {**json.loads((CONFIGS / "ldp_slow.json").read_text()), "alpha": alpha,
           "N_grid": [200, 400], "replications": 2000, "tolerances": {"slope_rel_tol": 1.0}}
    config = tmp_path / "ldp.json"
    config.write_text(json.dumps(doc))
    loaded = loaded_submodules(cli_statement("ldp-check", config, tmp_path / "out"))
    assert loaded == {"scipy.special"}
