"""Smoke test of the benchmark harness.

    python3 bench/smoke.py

Per workload: one untraced pass (warm-up, one set-up probe, one invocation)
and one traced pass (warm-up, one probe, one untraced and one traced
invocation).  It checks only that the harness runs, that its correctness
checks pass and that it finds a value for every metric BENCHMARK.json
declares, and that the trace sees one diffuse and one absorb call per
solver step and places the omega calls where the workloads say they are.
Exits 0 when every check holds.
"""

import os
import sys

import run


def problems(name: str, plain: dict, traced: dict) -> list[str]:
    found = plain["failures"] + traced["failures"]
    layer = {k: m["value"] for k, m in traced["metrics"].items()}
    if name.startswith("simulate"):
        steps = layer["solver.run.steps"]
        for calls in ("solver.diffuse.calls", "solver.absorb.calls"):
            if layer[calls] != steps:
                found.append(f"{calls} {layer[calls]} != {steps} steps")
        if layer["profiles.omega.calls"] >= 100:
            found.append("simulate makes >= 100 omega calls")
    elif layer["profiles.omega.calls"] <= 10_000:
        found.append("verify makes <= 10000 omega calls")
    return found


def main() -> int:
    os.environ.update(run.THREAD_CAPS)
    sys.path.insert(0, str(run.SRC))
    import harness
    from workloads import WORKLOADS

    failed = False
    for name in WORKLOADS:
        plain = harness.measure(name, seed=1, seconds=0, trace=False)
        traced = harness.measure(name, seed=1, seconds=0, trace=True)
        found = problems(name, plain, traced)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        for problem in found:
            print(f"  {problem}")
        failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
