"""Dispatch micro-benchmark — legacy isinstance dispatch vs the
pre-decoded closure engine.

Measures interpreted steps/sec on three workloads:

* ``litmus``          — a tight arithmetic loop on a bare Machine
                        (pure dispatch, no runtime protocol);
* ``fig7``            — the Figure 6/7 example with a representative
                        enclave computation in ``g`` (the partitioned
                        protocol the paper's Figure 7 traces, scaled
                        so the enclaves do real work per round);
* ``fig7_protocol``   — the strict Figure 6 protocol loop with no
                        compute, isolating the message-bound floor
                        (Amdahl: the spawn/cont protocol is shared by
                        both engines, so the speedup here is smaller).

Results go to ``BENCH_interp.json`` at the repo root so future PRs
have a perf trajectory, and to the usual benchmark report.  Smoke
mode (``REPRO_BENCH_SMOKE=1`` or ``--smoke``) shrinks the workloads
to run in well under a second for CI; it writes
``BENCH_interp.smoke.json`` and prints the report, leaving both
committed files untouched.

Regenerate the committed file with
``PYTHONPATH=src python benchmarks/bench_interp_dispatch.py``.
"""

import json
import os
import platform
import sys

import pytest

from repro.bench import (Report, call_counts, capture_trace, measure,
                         publish, speedup)
from repro.core.colors import RELAXED
from repro.core.compiler import compile_and_partition
from repro.frontend import compile_source
from repro.ir.interp import ENGINES, Machine
from repro.runtime import run_partitioned

pytestmark = pytest.mark.slow

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

LITMUS_ITERS = 500 if SMOKE else 20_000
FIG7_INNER, FIG7_OUTER = (20, 5) if SMOKE else (300, 80)
PROTOCOL_ROUNDS = 10 if SMOKE else 300

LITMUS_SOURCE = """
    int main() {
        int acc = 1;
        for (int i = 0; i < %d; i = i + 1) {
            acc = acc + i * 3 - (acc / 7);
        }
        return acc;
    }
""" % LITMUS_ITERS

FIG7_SOURCE = """
    int color(U) unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;

    void g(int n) {
        int acc = 0;
        for (int i = 0; i < %d; i = i + 1) {
            acc = acc + i * n;
        }
        blue_g = acc;
        red_g = n;
    }

    int f(int y) {
        g(21);
        return 42;
    }

    entry int main() {
        unsafe_g = 1;
        int x = 0;
        for (int i = 0; i < %d; i = i + 1) {
            x = f(blue_g);
        }
        return x;
    }
""" % (FIG7_INNER, FIG7_OUTER)

PROTOCOL_SOURCE = """
    int color(U) unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;

    void g(int n) {
        blue_g = n;
        red_g = n;
    }

    int f(int y) {
        g(21);
        return 42;
    }

    entry int main() {
        unsafe_g = 1;
        int x = 0;
        for (int i = 0; i < %d; i = i + 1) {
            x = f(blue_g);
        }
        return x;
    }
""" % PROTOCOL_ROUNDS


def _litmus_thunk(module, engine):
    def thunk():
        machine = Machine(module, engine=engine)
        ctx = machine.spawn("main")
        machine.run()
        assert ctx.result is not None
        return machine.total_steps
    return thunk


def _partitioned_thunk(program, engine):
    def thunk():
        result, runtime = run_partitioned(program, engine=engine)
        assert result == 42
        return runtime.machine.total_steps
    return thunk


def run_dispatch_comparison(repeat: int = 7):
    """Measure every workload under both engines, alternating their
    runs and keeping the best of ``repeat`` each; returns the
    machine-readable results dict."""
    litmus_module = compile_source(LITMUS_SOURCE)
    fig7_program = compile_and_partition(FIG7_SOURCE, mode=RELAXED)
    proto_program = compile_and_partition(PROTOCOL_SOURCE,
                                          mode=RELAXED)
    workloads = {
        "litmus": lambda engine: _litmus_thunk(litmus_module, engine),
        "fig7": lambda engine: _partitioned_thunk(fig7_program,
                                                  engine),
        "fig7_protocol": lambda engine: _partitioned_thunk(
            proto_program, engine),
    }
    results = {
        "meta": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "command": "PYTHONPATH=src python "
                       "benchmarks/bench_interp_dispatch.py",
            "smoke": SMOKE,
            "engines": list(ENGINES),
            "litmus_iters": LITMUS_ITERS,
            "fig7_inner": FIG7_INNER,
            "fig7_outer": FIG7_OUTER,
            "protocol_rounds": PROTOCOL_ROUNDS,
        },
        "workloads": {},
    }
    for name, make in workloads.items():
        timings = measure({engine: make(engine)
                           for engine in ("legacy", "decoded")},
                          repeat=repeat)
        if timings["legacy"].steps != timings["decoded"].steps:
            raise RuntimeError(
                f"{name}: engines disagree on step count "
                f"(legacy {timings['legacy'].steps} vs decoded "
                f"{timings['decoded'].steps})")
        entry = {engine: t.as_dict() for engine, t in timings.items()}
        entry["speedup"] = round(speedup(timings["legacy"],
                                         timings["decoded"]), 2)
        # Exact work next to the timing: one more (warm) decoded run,
        # call-counted.  Unlike steps/s it does not move with the host.
        counted = call_counts(make("decoded"))
        entry["decoded_calls"] = counted["total"]
        entry["decoded_calls_per_step"] = round(
            counted["total"] / counted["result"], 3)
        results["workloads"][name] = entry
    return results


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_json(results) -> str:
    # Smoke runs are for CI plumbing, not perf numbers — keep them
    # from clobbering the committed trajectory file.
    name = ("BENCH_interp.smoke.json" if results["meta"]["smoke"]
            else "BENCH_interp.json")
    path = os.path.join(_repo_root(), name)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def regenerate_dispatch_report() -> Report:
    report = Report("interp_dispatch",
                    "Dispatch: legacy vs pre-decoded")
    results = run_dispatch_comparison()
    rows = []
    for name, entry in results["workloads"].items():
        rows.append((name,
                     entry["legacy"]["steps"],
                     entry["legacy"]["steps_per_sec"],
                     entry["decoded"]["steps_per_sec"],
                     f"{entry['speedup']:.2f}x",
                     entry["decoded_calls_per_step"]))
    report.table(("workload", "steps", "legacy steps/s",
                  "decoded steps/s", "decoded x",
                  "decoded calls/step"), rows)
    report.add()
    fig7 = results["workloads"]["fig7"]["speedup"]
    proto = results["workloads"]["fig7_protocol"]["speedup"]
    report.add(f"Fig 7 workload speedup: {fig7:.2f}x decoded "
               f"(protocol-only floor: {proto:.2f}x — the spawn/cont "
               f"message protocol is engine-independent work)")
    path = write_json(results)
    report.add(f"machine-readable results: {os.path.basename(path)}")
    trace_path = os.environ.get("REPRO_TRACE")
    if trace_path:
        # One extra instrumented fig7 run (the timed loops above ran
        # unobserved): leaves a Chrome trace next to the JSON.
        program = compile_and_partition(FIG7_SOURCE, mode=RELAXED)
        capture_trace(program, trace_path)
        report.add(f"chrome trace: {trace_path}")
    if not SMOKE:
        assert fig7 >= 5.0, \
            f"pre-decoded engine below 5x on fig7: {fig7:.2f}x"
    return report


def bench_interp_dispatch(benchmark):
    publish(benchmark(regenerate_dispatch_report))


if __name__ == "__main__":
    if "--smoke" in sys.argv and not SMOKE:
        # Sizes are baked into the sources at import time, so flip
        # the env var and start over.
        os.environ["REPRO_BENCH_SMOKE"] = "1"
        os.execv(sys.executable, [sys.executable, __file__])
    publish(regenerate_dispatch_report())
