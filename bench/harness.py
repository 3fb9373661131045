"""Measure one workload: a closed loop of CLI invocations and set-up probes.

One client in one process calls ``extinctlab.cli.main`` and starts each
invocation only after the previous one has ended.  Every invocation gets a
fresh output directory and is checked by ``workloads.check``; its wall time
covers the whole ``main`` call, output writing included.  An untimed
warm-up invocation comes first.  Each loop iteration then times one cold
start in a fresh interpreter (``setup_probe.py``) and one invocation, until
the run's time is up.

Untraced runs give the end-to-end metrics.  In traced runs each iteration
adds a traced invocation after the untraced one; they report the median
per-layer metrics of the traced invocations, the tracing overhead as the
median difference of the two wall times in an iteration, and the wrappers'
own cost per call (``tracer.wrapper_cost``).  Metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, median_metrics, wrapper_cost
from workloads import WORKLOADS, CheckFailed, check, dir_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
# names and units of the metrics: BENCHMARK.json is their one definition
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class HarnessError(RuntimeError):
    """The benchmark itself could not run."""


def _argv(workload, out: Path, seed: int) -> list[str]:
    return [workload.command, "--config", str(workload.config),
            "--out", str(out), "--seed", str(seed)]


def probe_setup(workload, seed: int, out: Path) -> dict:
    """Time one cold start in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           workload.command, str(workload.config), str(out), str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise HarnessError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    k = len(samples)
    if k < 11:
        return None
    return {"percentile": 100 * (k - 10) // k,
            "value": sorted(samples)[k - 11]}


def provenance() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith(("_NUM_THREADS", "_MAX_THREADS",
                                       "_MAXIMUM_THREADS"))},
        "git_commit": commit,
        "src_lines": src_lines,
    }


def declared(section: str, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of a BENCHMARK.json
    section, in its order."""
    missing = [m["name"] for m in SPEC[section] if m["name"] not in values]
    if missing:
        raise HarnessError(f"no value for {section} metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC[section]}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its full record.

    ``record["metrics"]`` holds the end-to-end metrics (untraced) or the
    per-layer metrics (traced), each as ``{"value", "unit"}``.
    """
    import extinctlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"imported {cli.__file__}, not the checkout's src/")
    workload = WORKLOADS[name]
    workdir = RUNS / name / f"work-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    overheads = []   # traced minus untraced wall time, per loop iteration
    setup = []
    layers, failures, verdicts, digests = [], [], {}, {}
    attempted = 0

    def invoke(tag: str, traced: bool, timed: bool) -> float | None:
        """Run one invocation; its wall time, or None if it raised."""
        nonlocal attempted
        attempted += 1
        out = workdir / f"out-{tag}"
        wall = None
        gc.collect()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                entry = tracer.wrap("cli.main", cli.main) if traced else cli.main
                start = time.perf_counter()
                code = entry(_argv(workload, out, seed))
                wall = time.perf_counter() - start
            if timed:
                walls[traced].append(wall)
            if traced:
                layers.append(tracer.layer_metrics())
                layers[-1]["trace.wrapper_us_per_call"] = 1e6 * wrapper_cost()
            found = check(workload, out, code)
            for key, value in found.items():
                verdicts.setdefault(key, set()).add(value)
            digest = dir_digest(out)
            digests[digest] = digests.get(digest, 0) + 1
        except CheckFailed as exc:
            failures.append(f"{tag}: {exc}")
        except Exception as exc:   # the program crashed: count, keep going
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return wall

    invoke("warmup", traced=False, timed=False)
    start = time.perf_counter()
    i = 0
    while True:
        # set-up probes share the loop's time span, so both metrics see the
        # same load on the machine
        setup.append(probe_setup(workload, seed, workdir / f"probe-{i}"))
        wall = invoke(str(i), traced=False, timed=True)
        if trace:
            # paired with the untraced invocation just before it, so a
            # change in the machine's speed between iterations cancels
            traced_wall = invoke(f"{i}-traced", traced=True, timed=True)
            if wall is not None and traced_wall is not None:
                overheads.append(traced_wall - wall)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(workdir, ignore_errors=True)

    if not walls[False] or (trace and not overheads):
        raise HarnessError("no invocation returned:\n" + "\n".join(failures))
    wall_s = statistics.median(walls[False])
    if trace:
        values = median_metrics(layers)
        values["config.load.s"] = statistics.median(p["load_s"] for p in setup)
        values["setup.import.s"] = statistics.median(p["import_s"] for p in setup)
        values["trace.overhead_s"] = statistics.median(overheads)
        metrics = declared("per_layer", values)
        tracer.write_spans(RUNS / name / "spans.csv")
    else:
        values = {"wall_s": wall_s,
                  "setup_s": statistics.median(p["setup_s"] for p in setup),
                  "peak_rss_mib": peak_rss_mib}
        metrics = declared("end_to_end", values)

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "wall_samples": len(walls[False]),
        "wall_values": walls[False],
        "wall_tail": tail(walls[False]),
        "traced_samples": len(walls[True]),
        "setup_samples": len(setup),
        "verdicts": {k: sorted(v) for k, v in verdicts.items()},
        "output_digests": digests,
        "metrics": metrics,
        "provenance": provenance(),
    }
