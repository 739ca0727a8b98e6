"""The benchmark's ``--trace 1`` hooks still find every name they wrap.

``perfbench/run.py`` wraps coxq functions and family methods by name; a
rename in ``src/`` would otherwise surface only when a traced benchmark run
fails with an AttributeError.
"""

import importlib.util
import os
import sys
from pathlib import Path

import coxq.cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrument_patches_every_hooked_name(monkeypatch):
    # instrument() raises AttributeError for a hooked name that is gone
    monkeypatch.syspath_prepend(str(BENCH))
    env = coxq.env
    families = (env.Deterministic, env.Exponential, env.Gamma, env.DiscreteFinite)
    own = {family: set(vars(family)) for family in families}
    saved_environ = dict(os.environ)  # run.py pins the BLAS thread count on import
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
        spec.loader.exec_module(run)
        tracer = run.Tracer()
        try:
            run.instrument(tracer, coxq)
            assert (env.Gamma, "sample_block_sums") in {(o, a) for o, a, _ in tracer._patches}
        finally:
            tracer.unpatch()
    finally:
        os.environ.clear()
        os.environ.update(saved_environ)
        # unpatch leaves inherited methods set on the subclasses; drop those copies
        for family in families:
            for attr in set(vars(family)) - own[family]:
                delattr(family, attr)


def test_harness_binds_the_ldp_functions_the_benchmark_wraps():
    # instrument() wraps the ldp functions found in coxq.harness's namespace and
    # counts rate_fast/rate_slow/rate_intermediate as ldp.optimizer: a name the
    # harness stops importing would read 0 ms there instead of failing
    import coxq.harness
    import coxq.ldp

    for name in ("rate_fast", "rate_slow", "rate_intermediate", "integrated_log_mgf"):
        assert getattr(coxq.harness, name) is getattr(coxq.ldp, name), name
