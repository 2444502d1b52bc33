"""Outside-in benchmark of the Lasagne translator: one workload per process.

    python3 perfbench/run.py --workload default --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout.  Set-up imports the translator from
``src/``, compiles the mini-C inputs to x86 objects, reads the ELF
fixtures and computes the reference outputs.  Then it repeats whole
rounds of the workload's jobs, closed loop and one job at a time, for
``--seconds`` (at least one round; no round is started that would not end
in time).  ``translate_s`` and ``emulate_s`` add up, over the workload's
jobs, each job's median over rounds of its time divided by the host's
speed around it, as a fixed probe run between jobs measures it
(``hostspeed.py``).  The last line of standard output is the JSON result.

With ``--trace 1`` every job runs untraced and traced, back to back; the
traced jobs give the per-layer metrics and the difference is the tracing
overhead.  The spans and a per-layer table of the last round are
written to ``perfbench/results/``.  See README.md.
"""

import time

import hostspeed

_PROBE = hostspeed.probe()  # the host's speed as set-up starts
_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Metrics whose sum over a round is exactly reproducible.
DETERMINISTIC = ("arm_cycles", "fence_cycles", "arm_instructions", "fences")
#: Timed phases of a job.
TIMES = ("translate_s", "emulate_s")
#: Work counters (repro.profiler.workcounters) reported per layer.
WORK_COUNTERS = {"delayset.candidates": "analysis.delayset.candidates",
                 "delayset.cycle_steps": "analysis.delayset.cycle_steps"}


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as the
    BENCHMARK.json at the checkout root lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="accepted for the benchmark interface; the inputs "
                        "are fixed, so every seed runs the same jobs")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))


class Round:
    """The jobs of one pass over the workload, with their totals."""

    def __init__(self, results: list) -> None:
        jobs.check_merge_monotone(results)
        self.results = results
        done = [r for r in results if r.completed]
        self.totals = {m: sum(getattr(r, m) for r in done)
                       for m in TIMES + DETERMINISTIC}
        self.counts: dict[str, int] = {}
        for r in done:
            for name, n in r.counts.items():
                self.counts[name] = self.counts.get(name, 0) + n

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.failures)

    def unexpected(self) -> list[str]:
        return [f"{r.program}/{r.config}: {f}"
                for r in self.results for f in r.unexpected]

    def deterministic(self) -> dict:
        return {**{m: self.totals[m] for m in DETERMINISTIC}, **self.counts,
                "failed": self.failed}


def attempt(api, lasagne, program, config, tracer=None):
    """One job; an exception fails the job, not the round."""
    try:
        return jobs.run_job(api, lasagne, program, config, tracer)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        failed = jobs.JobResult(program.name, config)
        failed.failures.append(
            f"error: {type(exc).__name__}: {exc}".splitlines()[0])
        return failed


def run_round(api, lasagne, programs, order, host=None) -> Round:
    """One job after another; ``host`` (a HostSpeed) probes the host's
    speed after each."""
    results = []
    for name, config in order:
        job = attempt(api, lasagne, programs[name], config)
        if host is not None:
            job.probe_s = host.around()
        results.append(job)
    return Round(results)


def traced_round(api, lasagne, programs, order) -> tuple:
    """Each job runs untraced and traced, back to back, in alternating
    order, so the two rounds see the same warm-up and their difference is
    the tracing overhead.  Work counters are collected only around traced
    jobs."""
    try:
        from repro.profiler.workcounters import collect
    except ImportError:
        from contextlib import nullcontext as collect
    tracer = tracing.Tracer()
    plain, traced = [], []

    def traced_job(program, config):
        with collect() as counters, tracing.installed(tracer):
            traced.append(attempt(api, lasagne, program, config, tracer))
        if counters is not None:
            totals = counters.by_counter()
            for counter, metric in WORK_COUNTERS.items():
                tracer.count(metric, totals.get(counter, 0))

    for i, (name, config) in enumerate(order):
        if i % 2:
            traced_job(programs[name], config)
        plain.append(attempt(api, lasagne, programs[name], config))
        if not i % 2:
            traced_job(programs[name], config)
    return Round(plain), Round(traced), tracer


def layer_metrics(rnd: Round, tracer: tracing.Tracer, units: dict) -> dict:
    selfs = tracer.self_times()
    calls = tracer.calls()
    out = {f"{name}_s": seconds for name, seconds in selfs.items()
           if name not in tracing.ROOTS}
    out["trace.unattributed_s"] = sum(selfs.get(r, 0.0)
                                      for r in tracing.ROOTS)
    out["lir.verify_calls"] = calls.get("lir.verify", 0)
    counts = {**rnd.counts, **tracer.counts}
    for name, n in counts.items():
        if name.startswith("analysis.tv.unknown.") and name not in units:
            name = "analysis.tv.unknown.other"
        out[name] = out.get(name, 0) + n
    out["arm.retired_per_s"] = (out.get("arm.instructions_retired", 0)
                                / out["arm.run_s"]
                                if out.get("arm.run_s") else 0.0)
    for ratio, num, base in (
            ("opt.changed_share", "opt.pass_changed", "opt.pass_runs"),
            ("analysis.tv.proved_share", "analysis.tv.proved",
             "analysis.tv.checks"),
            ("analysis.delayset.elided_share", "analysis.delayset.elided",
             "fences.naive")):
        out[ratio] = out.get(num, 0) / out[base] if out.get(base) else 0.0
    return out


def reference_times(rounds: list[Round]) -> dict:
    """``translate_s`` and ``emulate_s`` in reference seconds: for each job,
    the median over rounds of its time divided by the probe around it,
    summed over jobs and multiplied by ``hostspeed.REFERENCE_S``.

    The shared host switches between speed regimes 1.5 to 2 times apart
    every few seconds, and their mix drifts over minutes; a job's time
    and the probe around it slow down together (README, Noise)."""
    out = {}
    for metric in TIMES:
        total = 0.0
        for runs in zip(*(rnd.results for rnd in rounds)):
            ratios = [getattr(r, metric) / r.probe_s
                      for r in runs if r.completed]
            if ratios:
                total += statistics.median(ratios)
        out[metric] = total * hostspeed.REFERENCE_S
    return out


def median_of(rows: list[dict]) -> dict:
    keys = dict.fromkeys(k for row in rows for k in row)
    return {k: statistics.median(row.get(k, 0) for row in rows) for k in keys}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = jobs.WORKLOADS[args.workload]
    order = workload.jobs  # fixed: every seed runs the same jobs
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        api = jobs.load_api(ROOT)
        lasagne = api.Lasagne(**workload.options)
        programs, reference_s = {}, 0.0
        for name in dict.fromkeys(p for p, _ in order):
            programs[name], seconds = jobs.load_program(api, ROOT, name)
            reference_s += seconds
    except Exception:  # the program under test cannot even be set up
        traceback.print_exc(file=sys.stderr)
        emit(False, len(order), len(order),
             {"setup_s": time.perf_counter() - _START}, units)
        return 1
    setup_s = time.perf_counter() - _START

    rounds, traced = [], []
    host = None if args.trace else hostspeed.HostSpeed()
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        if args.trace:
            plain, rnd, tracer = traced_round(api, lasagne, programs, order)
            rounds.append(plain)
            traced.append((rnd, tracer))
        else:
            rounds.append(run_round(api, lasagne, programs, order, host))
        last = time.perf_counter() - start
        if time.perf_counter() - begin + last > args.seconds:
            break

    every = rounds + [rnd for rnd, _ in traced]
    for r in rounds[0].results:
        if r.failures and not r.unexpected:
            print(f"perfbench: {r.program}/{r.config} fails on a known "
                  f"fault: {r.failures[0]}", file=sys.stderr)
    problems = [p for rnd in every for p in rnd.unexpected()]
    reference = every[0].deterministic()
    problems += [f"round {i}: deterministic counts differ from round 0"
                 for i, rnd in enumerate(every)
                 if rnd.deterministic() != reference]
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    attempted = sum(len(rnd.results) for rnd in every)
    failed = sum(rnd.failed for rnd in every)

    if not args.trace:
        measured = median_of([rnd.totals for rnd in rounds])
        probe_s = statistics.median(r.probe_s for rnd in rounds
                                    for r in rnd.results)
        print(f"perfbench: as measured: set-up {setup_s:.4f} s; median "
              f"round translate_s {measured['translate_s']:.4f}, emulate_s "
              f"{measured['emulate_s']:.4f}; median host probe "
              f"{probe_s * 1e3:.4f} ms (reference "
              f"{hostspeed.REFERENCE_S * 1e3:.4f} ms)", file=sys.stderr)
        # Set-up in reference seconds too, over the probes around it.
        metrics = {**rounds[0].totals, **reference_times(rounds),
                   "setup_s": setup_s * hostspeed.REFERENCE_S
                   / ((_PROBE + host.first) / 2)}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
        emit(not problems, attempted, failed, metrics, units)
        return 0

    rows = []
    for (rnd, tracer), plain in zip(traced, rounds):
        row = layer_metrics(rnd, tracer, units)
        row["trace.overhead_s"] = (
            rnd.totals["translate_s"] + rnd.totals["emulate_s"]
            - plain.totals["translate_s"] - plain.totals["emulate_s"])
        rows.append(row)
    metrics = median_of(rows)
    metrics["x86.reference_s"] = reference_s
    tracer = traced[-1][1]
    table = tracing.layer_table(args.workload, tracer.self_times(),
                                tracer.calls(), tracer.job_seconds())
    tracer.write(HERE / "results", args.workload, table)
    print(table, file=sys.stderr)
    emit(not problems, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
