"""Run every workload untraced and traced, and print the end-to-end table.

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs in its own ``bench/run.py`` process (so peak memory is
the workload's own), first with ``--trace 0``, then with ``--trace 1``.
Prints wall_s, setup_s, peak_rss_mib and failed_frac with their units, and
the tracing overhead; per-layer metrics are in each run's record under
``bench/_runs/``.  ``--seconds`` defaults to the ``run_seconds`` of
BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys

from run import HERE
from workloads import WORKLOADS


def run_once(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/report.py")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args(argv)

    print(f"{'workload':<18} {'wall_s':>10} {'setup_s':>10} "
          f"{'peak_rss_mib':>13} {'failed_frac':>12} {'overhead_s':>11}")
    print(f"{'':<18} {'(s)':>10} {'(s)':>10} {'(MiB)':>13} {'(1)':>12} "
          f"{'(s)':>11}")
    all_correct = True
    for name in WORKLOADS:
        plain = run_once(name, args.seed, args.seconds, 0)
        traced = run_once(name, args.seed, args.seconds, 1)
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"{name:<18} {m['wall_s']:>10.4f} {m['setup_s']:>10.4f} "
              f"{m['peak_rss_mib']:>13.1f} {failed / attempted:>12.3g} "
              f"{traced['metrics']['trace.overhead_s']['value']:>11.4f}")
        all_correct &= plain["correct"] and traced["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
