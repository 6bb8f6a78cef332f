"""Closed-loop benchmark of demoflow: compile, audit and verify by token play.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile-audit --seed 1 --seconds 20 --trace 0

One process, one thread, one client: each operation starts when the previous
one has returned.  A run sets up its workload several times (fresh import of
``demoflow``, fixture load, network generation) and reports the median
set-up.  It runs every case of the workload once, and repeats cases in order
while the time left allows; each case's time is the median of its
repetitions.  Every time is scaled by the machine's speed when it was taken
(see calibration.py).  Every result is checked against a known answer,
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_trace/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 20
KNOWN_SHOWN = 10  # known-defect findings printed; failures are all printed

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "pass_s": "s",
}
BUSY_SPANS = (
    "network.parse",
    "network.validate",
    "compiler.compile",
    "model.lint",
    "xmlio.serialize",
    "xmlio.parse",
    "coverage.classify",
    "coverage.render",
    "simulator.explore",
    "simulator.compensation_check",
    "engine.enumerate_language",
    "simulator.walk",
)
COUNTS = (
    "compiler.nodes",
    "compiler.flows",
    "compiler.message_flows",
    "model.lint.findings",
    "xmlio.bytes",
    "coverage.cells",
    "simulator.states",
    "simulator.traces",
    "simulator.trace_events",
    "simulator.compensation_check.calls",
    "engine.language_traces",
    "simulator.walk_events",
) + tuple(
    f"simulator.walk_outcome.{outcome}"
    for outcome in ("Accepted", "Stopped", "Terminated", "Deadlock", "BoundExhausted")
)


@dataclass
class Measurement:
    """Every operation of one measured loop.  Operations 0 .. cases-1 are
    the first run of each case, in case order."""

    cases: int
    op_case: list[int] = field(default_factory=list)  # op id -> case index
    op_counts: list[dict] = field(default_factory=list)
    op_status: list[str] = field(default_factory=list)
    op_wall: list[float] = field(default_factory=list)  # seconds, less the sampler's
    op_scale: list[float] = field(default_factory=list)  # to the reference machine

    def case_times(self, scaled: bool = True) -> list[list[float]]:
        times: list[list[float]] = [[] for _ in range(self.cases)]
        for op, index in enumerate(self.op_case):
            times[index].append(self.op_wall[op] * (self.op_scale[op] if scaled else 1.0))
        return times

    def pass_s(self, scaled: bool = True) -> float:
        """Sum over the cases of each case's median time."""
        return sum(statistics.median(t) for t in self.case_times(scaled))


def measure(cases, seconds: float, tracer, sampler, problems: list[str]) -> Measurement:
    """Run every case once, then repeat cases in order while each still fits
    before the deadline (judged by its last time)."""
    m = Measurement(len(cases))
    intervals = []  # (start, end) of each op
    last = [0.0] * len(cases)  # each case's latest wall time
    deadline = time.perf_counter() + seconds

    def execute(index: int) -> None:
        case = cases[index]
        tracer.begin_op(len(m.op_case))
        started = time.perf_counter()
        try:
            output = case.run(tracer)
        except Exception as exc:  # a raising operation is a failed one, not a crash
            output = exc
        intervals.append((started, time.perf_counter()))
        last[index] = intervals[-1][1] - started
        first = len(m.op_case) < len(cases)
        outcome = case.check(output)
        m.op_case.append(index)
        m.op_counts.append(outcome.counts)
        m.op_status.append(outcome.status)
        if outcome.status != "ok" and first:
            for problem in outcome.problems:
                problems.append(f"{outcome.status.upper()} {case.name}: {problem}")

    for index in range(len(cases)):
        execute(index)
    progressed = True
    while progressed:
        progressed = False
        for index in range(len(cases)):
            if time.perf_counter() + last[index] <= deadline:
                execute(index)
                progressed = True
    # the kernel samples after the last op are needed to scale it
    time.sleep(calibration.INTERVAL_S * calibration.NEAREST)
    for started, ended in intervals:
        wall, scale = sampler.scaled(started, ended)
        m.op_wall.append(wall)
        m.op_scale.append(scale)
    return m


def nondeterministic(m: Measurement, cases, problems: list[str]) -> int:
    """Repetitions of a case must reproduce its status and counts exactly."""
    mismatches = 0
    for op, index in enumerate(m.op_case):
        if (m.op_status[op], m.op_counts[op]) != (m.op_status[index], m.op_counts[index]):
            mismatches += 1
            problems.append(
                f"FAIL {cases[index].name}: repetition gave {m.op_status[op]} {m.op_counts[op]}, "
                f"first run gave {m.op_status[index]} {m.op_counts[index]}"
            )
    return mismatches


def per_layer(m: Measurement, tracer) -> dict[str, tuple[float, str]]:
    """Per-pass layer numbers: each case contributes the mean of its traced
    repetitions for times and its (deterministic) first counts."""
    op_times = tracer.op_times()
    per_case: list[list[dict]] = [[] for _ in range(m.cases)]
    for op, index in enumerate(m.op_case):
        scale = m.op_scale[op]
        per_case[index].append({key: t * scale for key, t in op_times.get(op, {}).items()})

    def busy(key: str) -> float:
        return sum(statistics.fmean(row.get(key, 0.0) for row in rows) for rows in per_case)

    metrics = {f"{name}.busy_s": (busy(name), "s") for name in BUSY_SPANS}
    metrics["simulator.compare.self_s"] = (busy("simulator.compare.self"), "s")
    first_counts = m.op_counts[: m.cases]
    for name in COUNTS:
        metrics[name] = (sum(counts.get(name, 0) for counts in first_counts), "count")
    explore, walk = metrics["simulator.explore.busy_s"][0], metrics["simulator.walk.busy_s"][0]
    metrics["simulator.states_per_s"] = (metrics["simulator.states"][0] / explore if explore else 0.0, "1/s")
    metrics["simulator.events_per_s"] = (metrics["simulator.walk_events"][0] / walk if walk else 0.0, "1/s")
    return metrics


def report_cases(m: Measurement, cases, out) -> None:
    times = m.case_times()
    if len(cases) <= 60:
        for index, case in enumerate(cases):
            counts = " ".join(f"{k.split('.')[-1]}={v}" for k, v in sorted(m.op_counts[index].items()))
            print(
                f"  {case.name:32s} {statistics.median(times[index]) * 1e3:10.2f} ms x{len(times[index]):<3d} "
                f"{m.op_status[index]:5s} {counts}",
                file=out,
            )
    tally = {status: m.op_status[: m.cases].count(status) for status in ("ok", "known", "fail")}
    print(f"  {len(cases)} cases, {len(m.op_case)} operations, first-run status {tally}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "demoflow" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no demoflow sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    with calibration.Sampler() as sampler:
        setups = []  # (start, end) of each set-up
        for _ in range(SETUPS):
            started = time.perf_counter()
            demoflow, cases = workloads.setup(args.workload, args.seed, ROOT)
            setups.append((started, time.perf_counter()))

        problems = [f"FAIL self-test: {escape}" for escape in workloads.self_test(demoflow)]
        failed = len(problems)
        attempted = 0

        def finish(m: Measurement) -> None:
            nonlocal attempted, failed
            attempted += len(m.op_case)
            failed += m.op_status.count("fail") + nondeterministic(m, cases, problems)

        untraced = measure(cases, args.seconds / (2 if args.trace else 1), tracing.NULL, sampler, problems)
        finish(untraced)
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.instrument(demoflow, tracer)
            try:
                traced = measure(cases, args.seconds / 2, tracer, sampler, problems)
            finally:
                restore()
            for op, counts in tracer.op_counts().items():
                traced.op_counts[op] = {**traced.op_counts[op], **counts}
            finish(traced)
            metrics = per_layer(traced, tracer)
            metrics["trace.overhead.pass_s"] = (traced.pass_s() - untraced.pass_s(), "s")
            metrics["pass_wall_s"] = (untraced.pass_s(scaled=False), "s")
            metrics["calibration.kernel_ms"] = (sampler.median_s() * 1e3, "ms")
            trace_dir = ROOT / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))
        else:
            metrics = {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_share": untraced.op_status[: len(cases)].count("ok") / len(cases),
                "pass_s": untraced.pass_s(),
                "setup_s": statistics.median(wall * scale for wall, scale in (sampler.scaled(*i) for i in setups)),
            }
            metrics = {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}

    print(f"{args.workload} seed {args.seed}:", file=sys.stderr)
    report_cases(untraced, cases, sys.stderr)
    unique = list(dict.fromkeys(problems))  # both halves of a traced run report
    known = [p for p in unique if p.startswith("KNOWN")]
    for problem in unique:
        if not problem.startswith("KNOWN") or problem in known[:KNOWN_SHOWN]:
            print(problem, file=sys.stderr)
    if len(known) > KNOWN_SHOWN:
        print(f"... and {len(known) - KNOWN_SHOWN} more known-defect findings (ROADMAP item 3)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
