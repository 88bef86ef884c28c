"""bsing benchmark runner.

    python3 perfbench/run.py --workload milnor --seed 1 --seconds 25 --trace 0

Runs one workload in this process, as a closed loop: one client, one
thread, the next op starts when the previous one returns.  Set-up is done
several times and its median reported as ``setup_s``; then passes over
the workload's op list run until ``--seconds`` have elapsed (at least
POOL_PASSES passes).  Each pass draws fresh seeded inputs; every op result
is checked outside the timed region.

Times are reported at a reference host speed.  The speed of a shared host
swings (identical work reads anywhere from 1x to 2x, and the speed can
change within a second), so a probe samples the host's speed throughout
the run: every SAMPLE_EVERY_S seconds a timer signal interrupts the work
and times a short fixed pure-Python loop.  An op's time, without the
probe's own time, is divided by its slowdown: the mean of the samples taken
during the op (the samples next to it for a short op) over CAL_REF_S.  The
raw times are printed on the ``detail`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes on the same inputs and reports the per-layer
metrics from the traced ones (counts from the first traced pass, times as
medians over traced passes) and the tracing overhead.  A traced pass that
returns other results than its untraced twin makes the run incorrect.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
are for people: failed ops, the environment (Python, commit, nproc), the
tail percentile with its sample count, the failed-op share and counters.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("polyring", "standard_basis", "boundary", "quasihomog", "isochore",
           "corpus", "report", "cli")
WORKLOAD_NAMES = ("milnor", "qh_forms", "cli", "corpus")
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
POOL_PASSES = 2  # passes whose op latencies form one percentile pool
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 25, 1.0
SAMPLE_EVERY_S = 0.05  # period of the host-speed samples
CAL_ITERATIONS = 1500  # length of the calibration loop
CAL_REF_S = 0.0056  # calibration loop time at the reference speed


class Unavailable(RuntimeError):
    """bsing cannot be imported from this checkout."""


def calibration_loop() -> None:
    """Exact rational arithmetic and dict updates, the kind of work bsing
    does; its time tracks the host's speed."""
    acc: dict = {}
    for i in range(CAL_ITERATIONS):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 11 + 1)


class SpeedProbe:
    """Times ``calibration_loop`` on a timer signal while the run works.

    ``clock()`` is ``perf_counter`` minus the time the probe itself has
    spent, so intervals read on it exclude the samples taken within them.
    """

    def __init__(self):
        self.stamps: list[float] = []  # clock() at each sample
        self.durations: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        calibration_loop()
        dt = perf_counter() - t0
        self.stamps.append(t0 - self.spent)
        self.durations.append(dt)
        self.spent += dt

    def clock(self) -> float:
        while True:  # retry if a sample lands between the two reads
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Host slowdown against the reference between clock() readings
        t0 and t1: the samples taken in between, else the ones beside."""
        lo, hi = bisect_left(self.stamps, t0), bisect_right(self.stamps, t1)
        near = self.durations[lo:hi] or self.durations[max(lo - 1, 0):lo + 1]
        return statistics.fmean(near) / CAL_REF_S


def import_bsing() -> SimpleNamespace:
    """Import (or re-import) bsing from ``src`` of this checkout."""
    for key in [k for k in sys.modules if k == "bsing" or k.startswith("bsing.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("bsing")
    except ImportError as e:
        raise Unavailable(f"cannot import bsing from {SRC}: {e}") from e
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        raise Unavailable(f"bsing was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"bsing.{m}") for m in MODULES})


def setup(workload: str, seed: int, probe: SpeedProbe):
    """Import bsing, build the workload and its first pass.  Returns the
    pass factory, the first op list, and the raw and calibrated time."""
    from workloads import WORKLOADS

    t0 = probe.clock()
    mods = import_bsing()
    make_pass = WORKLOADS[workload](mods, seed)
    first = make_pass(0)
    t1 = probe.clock()
    return make_pass, first, t1 - t0, (t1 - t0) / probe.slowdown(t0, t1)


class Raised:
    """An op raised; kept as its result so the check can judge it."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __repr__(self) -> str:
        return f"Raised({self.kind}: {self.message})"


def run_pass(ops, failures: list, probe: SpeedProbe) -> tuple[list[float], float, str]:
    """Run one pass.  Returns the calibrated per-op latencies, the raw
    pass time and a digest of all results.  Checks run after each op,
    outside its timing."""
    state: dict = {}
    spans = []
    digest = hashlib.sha256()
    for op in ops:
        t0 = probe.clock()
        try:
            result = op.run(state)
        except Exception as e:  # an op that raises is a failed op, not a crash
            result = Raised(e)
        spans.append((t0, probe.clock()))
        try:
            reason = op.check(result, state)
        except Exception as e:
            reason = f"check raised {e!r}"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
        digest.update(repr(result).encode())
    latencies = [(t1 - t0) / probe.slowdown(t0, t1) for t0, t1 in spans]
    return latencies, sum(t1 - t0 for t0, t1 in spans), digest.hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that leaves
    TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    probe = SpeedProbe()
    probe.start()
    try:
        return measure(args, probe)
    finally:
        probe.stop()


def measure(args, probe: SpeedProbe) -> int:
    setup_raw, setup_cal = [], []
    while True:
        try:
            make_pass, first, raw, calibrated = setup(args.workload, args.seed, probe)
        except Unavailable as e:
            print(f"bsing benchmark: {e}", file=sys.stderr)
            return 2
        setup_raw.append(raw)
        setup_cal.append(calibrated)
        if len(setup_raw) >= SETUP_MAX_REPS or (
            len(setup_raw) >= SETUP_MIN_REPS and sum(setup_raw) >= SETUP_BUDGET_S
        ):
            break

    failures: list[str] = []
    pending = {0: first}

    def ops_of(k):
        return pending.pop(k) if k in pending else make_pass(k)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "commit": commit(), "nproc": os.cpu_count(),
    }
    if args.trace:
        metrics, extra = traced_runs(ops_of, args.seconds, failures, probe)
    else:
        metrics, extra = timed_runs(ops_of, args.seconds, failures, probe)
        metrics["setup_s"] = metric(statistics.median(setup_cal), "s")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        extra["setup"] = {"reps": len(setup_raw), "raw_s": statistics.median(setup_raw)}
    attempted = extra.pop("attempted")
    failed = len(failures)
    extra["failed_ops"] = f"{failed}/{attempted} = {failed / attempted:.4f}"
    for line in failures[:20]:
        print(f"FAILED {line}")
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(extra, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not extra.get("inconsistent"),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def timed_runs(ops_of, seconds: float, failures: list, probe: SpeedProbe):
    """Untraced passes until ``seconds`` have elapsed, and at least
    POOL_PASSES; end-to-end metrics.  ``op_p50_ms`` is the median of all
    op latencies.  For ``op_tail_ms`` they are pooled over POOL_PASSES
    consecutive passes, so a pool holds the same number of samples
    whatever the host's speed, and the median over the run's full pools
    is taken."""
    walls, raw_walls, per_pass, digests = [], [], [], []
    t_start = perf_counter()
    while len(walls) < POOL_PASSES or perf_counter() - t_start < seconds:
        latencies, raw_wall, digest = run_pass(ops_of(len(walls)), failures, probe)
        walls.append(sum(latencies))
        raw_walls.append(raw_wall)
        digests.append(digest)
        per_pass.append(latencies)
    tails = []
    for i in range(0, len(per_pass) - POOL_PASSES + 1, POOL_PASSES):
        pool = [1000 * t for latencies in per_pass[i:i + POOL_PASSES] for t in latencies]
        pct, tail_ms = tail(pool)
        tails.append(tail_ms)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "op_p50_ms": metric(1000 * statistics.median(t for ts in per_pass for t in ts), "ms"),
        "op_tail_ms": metric(statistics.median(tails), "ms"),
    }
    extra = {
        "attempted": sum(map(len, per_pass)),
        "passes": len(walls),
        "op_tail": f"p{pct:.1f} of {len(pool)} samples ({POOL_PASSES} passes of "
                   f"{len(pool) // POOL_PASSES} ops), {TAIL_BEYOND} beyond; "
                   f"median over {len(tails)} pools",
        "raw_wall_s": statistics.median(raw_walls),
        "slowdown": statistics.median(r / w for r, w in zip(raw_walls, walls)),
        "digests": digests,
    }
    return metrics, extra


def traced_runs(ops_of, seconds: float, failures: list, probe: SpeedProbe):
    """Alternate untraced and traced passes over the same op lists;
    per-layer metrics and the tracing overhead."""
    from tracing import COUNTERS, SPANS, Tracer, install_bsing_spans

    tracer = Tracer(probe.clock)
    install_bsing_spans(tracer)
    plain_walls, traced_walls, samples = [], [], []
    digests, counts, inconsistent = [], [], []
    attempted = 0
    t_start = perf_counter()
    while not samples or perf_counter() - t_start < seconds:
        k = len(samples)
        ops = ops_of(k)
        latencies, _, plain_digest = run_pass(ops, failures, probe)
        plain_walls.append(sum(latencies))
        tracer.reset()
        with tracer.installed():
            latencies, raw_wall, traced_digest = run_pass(ops, failures, probe)
        traced_walls.append(sum(latencies))
        slowdown = raw_wall / sum(latencies)
        attempted += 2 * len(ops)
        if traced_digest != plain_digest:
            inconsistent.append(f"pass {k}: traced results differ from untraced")
        digests.append(plain_digest)
        samples.append({
            name: (tracer.calls[name], 1000 * tracer.busy[name] / slowdown,
                   1000 * tracer.self_time[name] / slowdown)
            for name in SPANS
        })
        counts.append({name: tracer.counts[name] for name in COUNTERS + ("corpus.kept",)})

    first, first_counts = samples[0], counts[0]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = metric(first[name][0], "count")
        metrics[f"{name}.ms"] = metric(statistics.median(s[name][1] for s in samples), "ms")
        metrics[f"{name}.self_ms"] = metric(
            statistics.median(s[name][2] for s in samples), "ms")
    for name in COUNTERS:
        metrics[name] = metric(first_counts[name], "count")
    screens = first_counts["corpus.screen_runs"]
    metrics["corpus.screen_yield"] = metric(
        first_counts["corpus.kept"] / screens if screens else 0.0, "ratio")
    plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.wall_untraced_s"] = metric(plain, "s")
    metrics["trace.wall_traced_s"] = metric(traced, "s")
    metrics["trace.overhead_s"] = metric(traced - plain, "s")
    extra = {
        "attempted": attempted, "passes": len(samples), "digests": digests,
        "counters": first_counts, "calls": {n: first[n][0] for n in SPANS},
        "overhead": f"{traced - plain:.4f} s = {(traced - plain) / plain:.2%} "
                    "of untraced wall_s",
    }
    if inconsistent:
        extra["inconsistent"] = inconsistent
        for line in inconsistent:
            print(f"INCONSISTENT {line}")
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
