"""Self-check of the bsing benchmark.

    python3 perfbench/selfcheck.py

For each workload it runs the benchmark three times with one seed: twice
traced and once untraced.  It passes when every run is correct, the two
traced runs report identical deterministic counters and call counts, and
all three runs produce identical results (the same result digest for
every pass they have in common).  Exit code 0 means it passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEED = 1
SECONDS = "3"


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    detail["env"] = env
    return json.loads(lines[-1]), detail


def check(workload: str) -> list[str]:
    problems = []
    (res_a, a), (res_b, b), (res_plain, plain) = (
        run(workload, 1), run(workload, 1), run(workload, 0))
    for name, res in (("traced run 1", res_a), ("traced run 2", res_b),
                      ("untraced run", res_plain)):
        if not res["correct"]:
            problems.append(f"{name} is not correct ({res['failed']} failed ops)")
    for key in ("counters", "calls"):
        if a[key] != b[key]:
            moved = sorted(k for k in a[key] if a[key][k] != b[key].get(k))
            problems.append(f"{key} differ between traced runs: {moved}")
    for other, name in ((b, "traced run 2"), (plain, "untraced run")):
        common = min(len(a["digests"]), len(other["digests"]))
        if a["digests"][:common] != other["digests"][:common]:
            problems.append(f"results of traced run 1 and {name} differ")
    env = a["env"]
    print(f"{workload}: python {env['python']}, commit {env['commit'][:12]}, "
          f"nproc {env['nproc']}, counters {json.dumps(a['counters'], sort_keys=True)}")
    return problems


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import WORKLOAD_NAMES

    failed = False
    for workload in WORKLOAD_NAMES:
        problems = check(workload)
        for p in problems:
            print(f"  FAIL {p}")
        failed |= bool(problems)
        print(f"  {'FAIL' if problems else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
