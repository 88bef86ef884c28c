"""The benchmark's span tracer still finds the names it hooks in bsing.

``perfbench/tracing.py`` is loaded as it is; a renamed or moved function,
or a renamed ``standard_basis`` parameter, breaks ``perfbench/run.py
--trace 1`` and fails here.
"""

import importlib.util
import time
from pathlib import Path

import bsing.cli  # noqa: F401  (the tracer hooks every bsing module)
import bsing.corpus  # noqa: F401
import bsing.standard_basis as sb_module
from bsing.polyring import VarContext, parse_polynomial

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_counts_one_standard_basis_call():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(time.perf_counter)
    tracing.install_bsing_spans(tracer)
    ctx = VarContext(("x", "y"), 0)
    gens = [parse_polynomial(s, ctx) for s in ("x^2", "y^3")]
    real = sb_module.standard_basis
    with tracer.installed():
        sb = sb_module.standard_basis(gens)
    assert sb_module.standard_basis is real
    assert tracer.calls["standard_basis.sb"] == 1
    assert tracer.counts["standard_basis.basis_size"] == len(sb.generators) == 2
