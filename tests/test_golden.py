"""Every shipped config's exit code and output bytes, pinned in golden.json.

Each config in ``configs/`` runs through the CLI in-process; its exit code
and the SHA-256 of each file it writes must match ``golden.json``.  The bytes
depend on the numpy and scipy builds (and the CPU's vector extensions that
numpy dispatches to), so the file also records the Python, numpy and scipy
versions it was made with; under other versions the check is skipped with
both sets named in the reason, never passed.

After a change that alters output bytes on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which bytes changed and why.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from coxq.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def outputs(config: Path, out: Path) -> dict:
    """The exit code of ``coxq <kind> --config config --out out`` and the
    SHA-256 of each file it wrote."""
    kind = json.loads(config.read_text())["kind"]
    code = cli_main([kind, "--config", str(config), "--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit": code, "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


def test_golden_file_covers_every_shipped_config():
    assert set(json.loads(GOLDEN.read_text())["configs"]) == {p.stem for p in CONFIGS}


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_exit_code_and_output_bytes(config, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != versions():
        pytest.skip(f"golden.json was recorded under {golden['versions']}, not {versions()}")
    assert outputs(config, tmp_path / "out") == golden["configs"][config.stem]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        configs = {p.stem: outputs(p, Path(work) / p.stem) for p in CONFIGS}
    GOLDEN.write_text(json.dumps({"versions": versions(), "configs": configs}, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
