"""Figure-2 end-to-end benchmark of the LWG service.

    python3 perfbench/run.py --workload paced --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (``src/repro`` must be there).  Prints a
human-readable report, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
further repetition runs with every layer instrumented
(:mod:`spans`) and the metrics are the per-layer ones.

Workloads: ``paced``, ``ramp``, ``faults`` (simulator) and ``udp``
(loopback UDP).  See README.md for what each loads and why.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Timed repetitions per run, at least, whatever ``--seconds`` says.
MIN_REPS = 3

#: CPU speed on a shared machine drifts by 20 % over minutes.  Every
#: measured phase is bracketed by a fixed pure-Python loop (object
#: allocation, dict and heap operations, calls), and its CPU is rescaled to
#: the speed where one loop step costs CALIBRATION_REF_US.
CALIBRATION_STEPS = 40_000
CALIBRATION_REF_US = 1.5

END_TO_END = {
    "setup_s": "s",
    "cpu_us_per_delivery": "us",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "delivered_share": "ratio",
    "goodput_dps": "deliveries/s",
}

#: Workload-specific end-to-end quantities; reported by every run, and
#: in the traced run's metrics (zero where the workload has none).
SCENARIO = {
    "failed_share": "ratio",
    "ramp.max_rate_mps": "msg/s",
    "ramp.max_rate_goodput_dps": "deliveries/s",
    "ramp.overload_goodput_dps": "deliveries/s",
    "faults.crash_reconfig_ms": "ms",
    "faults.rejoin_ms": "ms",
    "faults.heal_merge_ms": "ms",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in SCENARIO:
        return SCENARIO[name]
    if name.endswith("self_us_per_delivery"):
        return "us"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_per_delivery"):
        return "count"
    if name.endswith(("share", "_per_ordered", "_per_flush", "overhead")):
        return "ratio"
    for suffix, unit in (("_us", "us"), ("_ms", "ms")):
        if name.endswith(suffix) or f"{suffix}_" in name:
            return unit
    return "count"


def _signature(outcome) -> str:
    """Everything that must repeat exactly across runs of one seed."""
    return json.dumps(
        [outcome.sim, outcome.ops, outcome.owed, outcome.delivered, outcome.deliveries],
        sort_keys=True, default=str,
    )


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def calibrate() -> float:
    """CPU microseconds per step of a fixed loop, independent of the program."""
    table: Dict[int, int] = {}
    heap: List[tuple] = []
    started = time.process_time()
    for i in range(CALIBRATION_STEPS):
        item = _Item(i & 255, i)
        table[item.key] = table.get(item.key, 0) + item.value
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return (time.process_time() - started) * 1e6 / CALIBRATION_STEPS


class SpeedProbe:
    """Measured-phase hook: CPU of each phase, rescaled by the loop's speed
    measured just before and just after it."""

    def __init__(self) -> None:
        self.scaled_cpu_s = 0.0
        self.speeds: List[float] = []

    def begin(self, cluster) -> None:
        self._before = calibrate()
        self._started = time.process_time()

    def end(self, cluster) -> None:
        cpu_s = time.process_time() - self._started
        speed = (self._before + calibrate()) / 2
        self.speeds.append(speed)
        self.scaled_cpu_s += cpu_s * CALIBRATION_REF_US / speed


def _finite(value: float) -> float:
    return value if isinstance(value, (int, float)) and math.isfinite(value) else 0.0


class Run:
    """The repetitions of one invocation and the verdict over them.

    The workload modules import ``repro``, so they are imported only once
    :func:`main` has put ``src/`` on the path.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.reps: List = []
        #: Per timed repetition: CPU us per delivery at the reference speed.
        self.scaled_cpu: List[float] = []
        self.speeds: List[float] = []
        self.checked = None
        self.traced = None
        self.layers: Dict[str, float] = {}
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.checks = ""

    # ------------------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> None:
        if self.workload == "udp":
            self._run_udp(seconds, trace)
        else:
            self._run_sim(seconds, trace)
        for outcome in [self.checked, self.traced, *self.reps]:
            if outcome is not None:
                self.problems += outcome.violations

    def _run_sim(self, seconds: float, trace: bool) -> None:
        from workloads import SIM_WORKLOADS

        run_once = SIM_WORKLOADS[self.workload]
        # Untimed pass with the invariant checkers armed.
        self.checked = run_once(self.seed, checkers=True)
        deadline = time.perf_counter() + seconds
        while len(self.reps) < MIN_REPS or time.perf_counter() < deadline:
            self._timed(lambda hooks: run_once(self.seed, hooks=hooks))
        self.notes.append(
            f"{len(self.reps)} timed runs of seed {self.seed} (perf configuration), "
            f"1 untimed run with checkers armed; sim-time results compared across all"
        )
        if trace:
            self.traced = self._traced(lambda hooks: run_once(self.seed, hooks=hooks))
        reference = _signature(self.reps[0])
        others = [("timed", r) for r in self.reps[1:]] + [("checker", self.checked)]
        if self.traced is not None:
            others.append(("traced", self.traced))
        for label, outcome in others:
            if _signature(outcome) != reference:
                self.problems.append(f"nondeterministic: a {label} run of seed {self.seed} differs")
        self.checks = "at-most-once delivery, per-view order agreement, online checkers, determinism"

    def _run_udp(self, seconds: float, trace: bool) -> None:
        from udp import run_udp

        self._timed(lambda hooks: run_udp(self.seed, seconds, hooks=hooks))
        self.notes.append(f"1 run of {seconds:g} s wall over loopback UDP (compact codec)")
        if trace:
            self.traced = self._traced(lambda hooks: run_udp(self.seed, seconds, setups=1, hooks=hooks))
        self.checks = "at-most-once delivery, per-view order agreement"

    def _timed(self, run_once) -> None:
        probe = SpeedProbe()
        outcome = run_once([probe])
        self.reps.append(outcome)
        self.speeds += probe.speeds
        self.scaled_cpu.append(probe.scaled_cpu_s * 1e6 / max(1, outcome.deliveries))

    def _traced(self, run_once):
        from spans import LayerTrace

        trace = LayerTrace()
        try:
            outcome = run_once([trace])
        finally:
            trace.restore()
        self.layers = trace.metrics(outcome.deliveries)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{self.workload}-seed{self.seed}.tsv.gz")
        count = trace.write(path)
        self.notes.append(f"traced run: {count} spans written to {os.path.relpath(path, ROOT)}")
        return outcome

    # ------------------------------------------------------------------
    @property
    def first(self):
        return self.reps[0]

    def end_to_end(self) -> Dict[str, float]:
        first = self.first
        return {
            "setup_s": statistics.median(r.setup_s for r in self.reps),
            "cpu_us_per_delivery": statistics.median(self.scaled_cpu),
            "latency_p50_ms": _finite(first.sim["latency_p50_ms"]),
            "latency_p99_ms": _finite(first.sim["latency_p99_ms"]),
            "delivered_share": first.delivered / max(1, first.owed),
            "goodput_dps": first.sim["goodput_dps"],
        }

    def raw_cpu_us(self) -> float:
        """Median process CPU per delivery, as measured."""
        return statistics.median(r.cpu_us_per_delivery for r in self.reps)

    def scenario(self) -> Dict[str, float]:
        sim = self.first.sim
        out = {"failed_share": 1.0 - self.first.delivered / max(1, self.first.owed)}
        for name in SCENARIO:
            key = name.split(".", 1)[-1]
            if name.startswith(f"{self.workload}."):
                out[name] = sim[key]
            elif name != "failed_share":
                out[name] = 0
        return out

    def per_layer(self) -> Dict[str, float]:
        out = dict(self.layers)
        out.update(self.scenario())
        untraced = self.raw_cpu_us()
        out["bench.trace_overhead"] = self.traced.cpu_us_per_delivery / untraced if untraced else 0.0
        return out

    def attempted_failed(self):
        first = self.first
        attempted = first.owed + len(first.ops)
        failed = first.owed - first.delivered + sum(1 for ok in first.ops.values() if not ok)
        return attempted, failed


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(run: Run, trace: bool) -> Dict:
    e2e = run.end_to_end()
    attempted, failed = run.attempted_failed()
    print(f"perfbench: workload={run.workload} seed={run.seed}")
    for note in run.notes:
        print(f"  {note}")
    print("end-to-end:")
    for name, unit in END_TO_END.items():
        print(f"  {name:<28} {_fmt(e2e[name]):>14} {unit}")
    sim = run.first.sim
    print(f"  latency over {sim['latency_samples']} (probe, receiver) samples, "
          f"max {_fmt(sim['latency_max_ms'])} ms")
    print(f"  cpu: {_fmt(run.raw_cpu_us())} us per delivery as measured; calibration loop "
          f"{_fmt(statistics.median(run.speeds))} us/step (reported at {CALIBRATION_REF_US})")
    if "generator_late_ms_p99" in sim:
        print(f"  open-loop generator lateness p99 {_fmt(sim['generator_late_ms_p99'])} ms")
    print("workload-specific:")
    for name, value in run.scenario().items():
        if name == "failed_share" or name.startswith(f"{run.workload}."):
            print(f"  {name:<28} {_fmt(value):>14} {SCENARIO[name]}")
    ramp_steps = sorted({k.split(".")[0] for k in run.first.sim if k.startswith("step")},
                        key=lambda s: int(s[4:]))
    for step in ramp_steps:
        print(f"  {step:<10} p50 {_fmt(sim[step + '.latency_p50_ms'])} ms"
              f"  p99 {_fmt(sim[step + '.latency_p99_ms'])} ms"
              f"  p99(missing=inf) {_fmt(sim[step + '.p99_with_missing_ms'])} ms"
              f"  goodput {_fmt(sim[step + '.goodput_dps'])} deliveries/s"
              f"  delivered {_fmt(sim[step + '.delivered_share'])}")
    ops = run.first.ops
    print("liveness: " + (", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in ops.items())))
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(owed (probe, receiver) deliveries plus the liveness checks above)")
    if run.problems:
        print("correctness: FAIL")
        for problem in run.problems[:20]:
            print(f"  {problem}")
    else:
        print(f"correctness: PASS ({run.checks})")
    if trace:
        metrics = run.per_layer()
        print("per-layer (traced run):")
        for name, value in metrics.items():
            print(f"  {name:<48} {_fmt(value):>14} {unit_of(name)}")
    else:
        metrics = e2e
    units = {**END_TO_END} if not trace else {name: unit_of(name) for name in metrics}
    return {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["paced", "ramp", "faults", "udp"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall time to keep repeating timed runs (udp: send duration)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    run = Run(args.workload, args.seed)
    run.run(args.seconds, bool(args.trace))
    result = report(run, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
