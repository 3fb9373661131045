"""Benchmark entry point: measure one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program measured is the checkout's
``src/extinctlab``.  With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  The full record (seed, failure reasons,
verdicts, output digests, provenance) is written to
``bench/_runs/<workload>/result-trace<0|1>.json``.

Exit codes: 0 measured (see ``correct``), 1 the benchmark could not run,
2 usage error or no program to measure.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# BLAS and OpenMP read these when numpy loads: the benchmark measures a
# single-threaded program, not the scheduler of a small machine
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def print_record(record) -> None:
    for name, m in record["metrics"].items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<40} {record['failed_frac']:>14.6g} "
          f"({record['failed']}/{record['attempted']} invocations)")
    tail = record["wall_tail"]
    print(f"wall samples {record['wall_samples']} untraced, "
          f"{record['traced_samples']} traced; set-up samples "
          f"{record['setup_samples']}; tail: "
          + (f"p{tail['percentile']} = {tail['value']:.6g} s" if tail
             else "none (fewer than 11 samples)"))
    print(f"seed {record['seed']}; verdicts {json.dumps(record['verdicts'])}")
    print(f"output digests {json.dumps(record['output_digests'])}")
    print(f"provenance {json.dumps(record['provenance'])}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    os.environ.update(THREAD_CAPS)   # before anything imports numpy
    args = parse_args(argv)
    if not (SRC / "extinctlab" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'extinctlab'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    try:
        record = harness.measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except harness.HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = harness.RUNS / args.workload / f"result-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print_record(record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
