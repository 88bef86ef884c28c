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
import bsing.quasihomog as qh
import bsing.standard_basis as sb_module
from bsing.boundary import BoundarySingularity
from bsing.polyring import VarContext, parse_polynomial

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def installed_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(time.perf_counter)
    tracing.install_bsing_spans(tracer)
    return tracer


def test_tracer_installs_and_counts_one_standard_basis_call():
    tracer = installed_tracer()
    ctx = VarContext(("x", "y"), 0)
    gens = [parse_polynomial(s, ctx) for s in ("x^2", "y^3")]
    real = sb_module.standard_basis
    with tracer.installed():
        sb = sb_module.standard_basis(gens)
    assert sb_module.standard_basis is real
    assert tracer.calls["standard_basis.sb"] == 1
    assert tracer.counts["standard_basis.basis_size"] == len(sb.generators) == 2


def test_graded_calls_run_no_tracked_standard_basis():
    tracer = installed_tracer()
    ctx = VarContext(("x", "y"), 0)
    bs = BoundarySingularity(parse_polynomial("x^2 + y^4 + x*y^2", ctx))
    g = parse_polynomial("x^3*y + 2*x*y^2 - y^5 + 5", ctx)
    w = qh.detect_weights(bs.f)
    with tracer.installed():  # it rebinds the module attributes
        qh.spectrum(bs, w)
        qh.brieskorn_reduce(g, bs, w)
    assert tracer.calls["quasihomog.spectrum"] == 1
    assert tracer.calls["quasihomog.reduce"] == 1
    assert tracer.calls["standard_basis.sb_tracked"] == 0
    assert tracer.calls["standard_basis.sb"] == 0
