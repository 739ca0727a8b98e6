"""Which scipy submodules a coxq process loads.

The package imports plain ``scipy`` and reaches each submodule at its call
site, so a submodule loads on first use: importing the CLI loads none, the
analytic and simulate kinds never load one, and no kind loads
``scipy.stats``.  Each case runs in a fresh interpreter and reads
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


def cli_statement(kind, config, out):
    argv = [kind, "--config", str(config), "--out", str(out)]
    return f"import coxq.cli\nassert coxq.cli.main({argv!r}) == 0"


def test_importing_the_cli_loads_no_scipy_submodule():
    assert loaded_submodules("import coxq.cli") == set()


@pytest.mark.parametrize("kind, stem", [("analytic", "analytic"), ("simulate", "simulate")])
def test_analytic_and_simulate_load_no_scipy_submodule(tmp_path, kind, stem):
    assert loaded_submodules(cli_statement(kind, CONFIGS / f"{stem}.json", tmp_path)) == set()


def test_ldp_check_does_not_load_scipy_stats(tmp_path):
    doc = {**json.loads((CONFIGS / "ldp_fast.json").read_text()), "replications": 500}
    config = tmp_path / "ldp.json"
    config.write_text(json.dumps(doc))
    loaded = loaded_submodules(cli_statement("ldp-check", config, tmp_path / "out"))
    assert "scipy.special" in loaded and "scipy.stats" not in loaded
