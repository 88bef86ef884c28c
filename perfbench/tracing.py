"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of bsing from the outside:
nothing in ``src/bsing`` is changed.  A function is replaced in *every*
``bsing`` module namespace that binds it (``bsing.quasihomog.standard_basis``,
``bsing.boundary.staircase_quotient``, ``bsing.cli.spectrum``, the package
namespace ``bsing`` itself, ...), so calls made inside the package are seen
as well as calls made by the benchmark.

Per span name the tracer keeps the number of calls, busy time (wall time
of the outermost active span of that name) and self time (span duration
minus the time covered by its child spans).  Counters that need the call
arguments are kept by small hooks.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # time source of the spans
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[dict] = []
        self._depth: Counter[str] = Counter()
        self._targets: list[tuple] = []
        self._patched: list[tuple] = []

    def reset(self) -> None:
        self.calls.clear()
        self.busy.clear()
        self.self_time.clear()
        self.counts.clear()

    def parent(self) -> dict | None:
        """The innermost open span (the caller's span while a hook runs)."""
        return self._stack[-1] if self._stack else None

    def _wrap(self, fn, name, hook):
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs)
            frame = {"name": span, "child": 0.0}
            stack = tracer._stack
            stack.append(frame)
            tracer._depth[span] += 1
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = tracer.clock() - t0
                stack.pop()
                tracer._depth[span] -= 1
                if stack:
                    stack[-1]["child"] += dt
                tracer.calls[span] += 1
                tracer.self_time[span] += dt - frame["child"]
                if tracer._depth[span] == 0:
                    tracer.busy[span] += dt
            if hook is not None:
                hook(tracer, frame, args, kwargs, result)
            return result

        return wrapper

    def add(self, module: str, attr: str, name, hook=None) -> None:
        """Register ``module.attr`` (``attr`` may be ``Class.method``) under
        span ``name``; ``name`` may be a function of (args, kwargs)."""
        self._targets.append((module, attr, name, hook))

    @contextlib.contextmanager
    def installed(self):
        """Patch every registered target for the duration of the block."""
        namespaces = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "bsing" or key.startswith("bsing."))
        ]
        try:
            for module, attr, name, hook in self._targets:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(owner, cls_name)
                    fn = owner.__dict__[meth]
                    self._patch(owner, meth, self._wrap(fn, name, hook))
                    continue
                fn = getattr(owner, attr)
                wrapper = self._wrap(fn, name, hook)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
            yield self
        finally:
            while self._patched:
                owner, key, original = self._patched.pop()
                setattr(owner, key, original)

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)


def argument(fn, arg: str):
    """Reader of one argument of ``fn`` from (args, kwargs), defaults applied."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[arg]

    return read


def install_bsing_spans(tracer: Tracer) -> None:
    """Register the layer spans and counters of the benchmark."""
    sb_mod = sys.modules["bsing.standard_basis"]
    degree_cap = argument(sb_mod.standard_basis, "degree_cap")
    tracked = argument(sb_mod.standard_basis, "track_representations")

    def sb_name(args, kwargs):
        if tracked(args, kwargs):
            return "standard_basis.sb_tracked"
        return "standard_basis.sb"

    def sb_hook(tr, frame, args, kwargs, result):
        tr.counts["standard_basis.basis_size"] += len(result.generators)
        parent = tr.parent()
        capped = degree_cap(args, kwargs) is not None
        if capped:
            tr.counts["standard_basis.caps_tried"] += 1
        if parent is not None and parent["name"] == "standard_basis.staircase":
            if capped:
                parent["caps"] = parent.get("caps", 0) + 1
            elif parent.get("caps", 0) > 0:
                tr.counts["standard_basis.uncapped_fallbacks"] += 1

    def jet_hook(tr, frame, args, kwargs, result):
        parent = tr.parent()
        if parent is not None and parent["name"] == "corpus.boundary":
            tr.counts["corpus.screen_runs"] += 1

    def corpus_hook(tr, frame, args, kwargs, result):
        tr.counts["corpus.kept"] += len(result)

    spans = [
        ("bsing.polyring", "parse_polynomial", "polyring.parse", None),
        ("bsing.polyring", "parse_series", "polyring.parse", None),
        ("bsing.polyring", "series_rational_power", "polyring.series_power", None),
        ("bsing.standard_basis", "staircase_quotient", "standard_basis.staircase", None),
        ("bsing.standard_basis", "standard_basis", sb_name, sb_hook),
        ("bsing.standard_basis", "StandardBasis.contains", "standard_basis.contains", None),
        ("bsing.standard_basis", "jet_dimension_oracle", "standard_basis.jet_oracle", jet_hook),
        ("bsing.boundary", "BoundarySingularity.__init__", "boundary.build", None),
        ("bsing.quasihomog", "detect_weights", "quasihomog.detect_weights", None),
        ("bsing.quasihomog", "spectrum", "quasihomog.spectrum", None),
        ("bsing.quasihomog", "spectrum_splitting_check", "quasihomog.splitting", None),
        ("bsing.quasihomog", "brieskorn_reduce", "quasihomog.reduce", None),
        ("bsing.quasihomog", "quotient_coordinates", "quasihomog.coords", None),
        ("bsing.quasihomog", "gauss_manin_apply", "quasihomog.gauss_manin", None),
        ("bsing.isochore", "versality_check", "isochore.versal", None),
        ("bsing.isochore", "isochore_psi", "isochore.psi", None),
        ("bsing.report", "build_report", "report.build", None),
        ("bsing.report", "render_milnor", "report.render", None),
        ("bsing.report", "render_spectrum", "report.render", None),
        ("bsing.report", "render_table_row", "report.render", None),
        ("bsing.report", "Report.to_json", "report.render", None),
        ("bsing.cli", "main", "cli.main", None),
        ("bsing.corpus", "boundary_corpus", "corpus.boundary", corpus_hook),
        ("bsing.corpus", "quasihomogeneous_corpus", "corpus.qh", None),
    ]
    for sub in ("milnor", "spectrum", "table", "isochore", "versal", "reduce"):
        spans.append(("bsing.cli", f"cmd_{sub}", f"cli.{sub}", None))
    for module, attr, name, hook in spans:
        tracer.add(module, attr, name, hook)


# span names reported as .calls/.ms/.self_ms, in report order
SPANS = (
    "polyring.parse",
    "polyring.series_power",
    "standard_basis.staircase",
    "standard_basis.sb",
    "standard_basis.sb_tracked",
    "standard_basis.contains",
    "standard_basis.jet_oracle",
    "boundary.build",
    "quasihomog.detect_weights",
    "quasihomog.spectrum",
    "quasihomog.splitting",
    "quasihomog.reduce",
    "quasihomog.coords",
    "quasihomog.gauss_manin",
    "isochore.versal",
    "isochore.psi",
    "report.build",
    "report.render",
    "cli.main",
    "cli.milnor",
    "cli.spectrum",
    "cli.table",
    "cli.isochore",
    "cli.versal",
    "cli.reduce",
    "corpus.boundary",
    "corpus.qh",
)

# counters that must repeat exactly for one seed
COUNTERS = (
    "standard_basis.caps_tried",
    "standard_basis.uncapped_fallbacks",
    "standard_basis.basis_size",
    "corpus.screen_runs",
)
