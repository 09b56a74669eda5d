"""The oscigeo benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: classify-mix, certify, trace, verify (see perfbench/README.md);
without --workload all four run in turn.  With --trace 0 the run measures
the end-to-end metrics for --seconds seconds of whole rounds; with
--trace 1 it runs a fixed set of rounds, each once untraced and once
traced, and reports the per-layer metrics and the tracing overhead.
Every output is checked against a reference answer computed without
oscigeo.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# time spent on requests of a throw-away round before measuring, so that
# caches fill (the pi enclosures, the bytecode of lazily used paths)
WARMUP_S = 1.0
SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# Time of calibration_kernel() on the machine that recorded BASELINE.json
# (2 CPUs, Python 3.11.7) when nothing else ran on it.
CAL_REFERENCE_S = 570e-6
END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_kernel() -> Fraction:
    """Fixed pure-Python work, independent of oscigeo: the machine-speed probe."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
    return acc


def machine_time() -> float:
    """Median of three timed runs of the calibration kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


class Run:
    """Requests attempted in one run, with latencies and check failures.

    The machine is shared, and other tenants slow it down by up to half for
    seconds or minutes at a time.  Each request is therefore timed between
    two runs of a calibration kernel and its latency is scaled to the
    reference speed CAL_REFERENCE_S: the scaled latency is what the request
    would take on the baseline machine with nothing else running.  The raw
    wall times are reported alongside.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        # only latencies are kept, so that memory does not grow with throughput
        self.latencies = array("d")
        self.by_slot = defaultdict(lambda: array("d"))
        self.raw_s = 0.0
        self.machine = array("d")
        self.failures = []
        self._last_cal = machine_time()

    def one(self, req, timed: bool = True) -> float:
        """Send one request, check its output outside the clock; return its scaled latency."""
        tracer = self.tracer
        if tracer is not None:
            tracer.tag = req.tag
            tracer.active = True
        error = None
        t0 = perf_counter()
        try:
            out = self.workload.run(req)
        except Exception as exc:  # a raising request is a failed request
            error = f"raised {type(exc).__name__}: {exc}"
        raw = perf_counter() - t0
        cal = machine_time()
        scale = CAL_REFERENCE_S / ((self._last_cal + cal) / 2)
        dt = raw * scale
        self._last_cal = cal
        if tracer is not None:
            tracer.active = False
            extra = getattr(self.workload, "traced_extra", None)
            if error is None and extra is not None:
                extra(req, out, tracer)
            tracer.commit(scale)
        if error is None:
            try:
                error = self.workload.check(req, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if timed:
            self.latencies.append(dt)
            self.by_slot[req.slot].append(dt)
            self.raw_s += raw
            self.machine.append(cal)
        if error is not None:
            self.failures.append(f"{self.workload.name}/{req.tag}: {error} [{req.args}]")
        return dt


def warm_up(run: Run, seed: int) -> None:
    from workloads import round_rng

    start = perf_counter()
    index = 0
    while perf_counter() - start < WARMUP_S:
        for req in run.workload.make_round(round_rng(run.workload.name, seed, f"warmup{index}")):
            run.one(req, timed=False)
            if perf_counter() - start >= WARMUP_S:
                return
        index += 1


def tail_percentile(run: Run, cap: float) -> tuple[str, float, int] | None:
    """(label, value, samples beyond) of the highest ladder percentile up to cap
    with at least ten samples beyond it, or None when no percentile has ten.

    The cap is the workload's percentile at the seed commit: without it, a faster
    program would complete more requests and be judged at a higher percentile.
    This figure is printed, not gated: on a shared host, preemption of a few
    per cent of requests decides it.
    """
    ordered = sorted(run.latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)  # nearest rank, 1-based
        if p <= cap and n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1], n - rank
    return None


def slowest_slot(run: Run) -> tuple[str, float]:
    """(slot, median latency) of the request slot with the highest median latency.

    This is latency_tail_ms: the typical latency of the slowest kind of request.
    A latency percentile over all requests would instead measure how often other
    tenants preempt the process; a slot's median moves only with the program.
    """
    slot, latencies = max(run.by_slot.items(), key=lambda item: statistics.median(item[1]))
    return slot, statistics.median(latencies)


def per_slot(run: Run) -> Counter:
    """Requests measured per slot: the run's input summary."""
    return Counter({slot: len(lat) for slot, lat in run.by_slot.items()})


def slot_medians(run: Run) -> list[float]:
    """Each request slot's median latency across the run's rounds.

    A slowdown that the calibration misses moves a slot's median only when it
    covers most of the run's rounds.
    """
    return [statistics.median(lat) for lat in run.by_slot.values()]


def measure_setup(workload, req, scratch: Path) -> list[float]:
    """Wall times of fresh interpreters that import the workload's modules and finish req."""
    cmd = [sys.executable, str(HERE / "cold.py"), workload.name, json.dumps(req.args), str(scratch)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms; block instead, with a watchdog
        watchdog = threading.Timer(150, proc.kill)
        watchdog.start()
        code = proc.wait()
        elapsed = perf_counter() - t0
        watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        if i:  # the first start may still write bytecode caches
            times.append(elapsed)
    return times


def timed_run(workload, seed: int, seconds: float, scratch: Path):
    from workloads import round_rng

    run = Run(workload)
    warm_up(run, seed)
    start = perf_counter()
    index = 0
    while True:
        for req in workload.make_round(round_rng(workload.name, seed, index)):
            run.one(req)
        index += 1
        if perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the set-up request is the same for every seed, so that set-up times
    # compare across runs; its cost must not depend on the seed's draws
    first = workload.make_round(round_rng(workload.name, 0, "setup"))[0]
    setup_raw = measure_setup(workload, first, scratch)
    # a calibration right after a child exits runs with cold caches, so set-up
    # is scaled by the median calibration of the timed section just before it
    machine = statistics.median(run.machine)
    setup = [t * CAL_REFERENCE_S / machine for t in setup_raw]

    total = sum(run.latencies)
    n = len(run.latencies)
    tail_slot, tail_s = slowest_slot(run)
    percentile = tail_percentile(run, workload.tail_cap)
    if percentile is None:
        percentile_text = f"no percentile up to p{workload.tail_cap:g} has 10 samples beyond"
    else:
        label, value, beyond = percentile
        percentile_text = f"{label} of all {n} requests {value * 1e3:.6g} ms, {beyond} samples beyond"
    typical = slot_medians(run)
    round_s = sum(typical)
    metrics = {
        "requests_per_s": len(typical) / round_s,
        # the median request of a typical round: with few kinds of request, the
        # median of all latencies would fall between two kinds and jump between them
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    name, value, unit = workload.throughput(metrics["requests_per_s"])
    report = [
        f"inputs: {workload.summary(per_slot(run))} ({index} rounds)",
        f"{name} {value:.6g} {unit}",
        f"failed_frac {len(run.failures) / run.attempted:.6g} "
        f"({len(run.failures)} of {run.attempted} attempted, warm-up included)",
        f"requests_per_s {metrics['requests_per_s']:.6g} 1/s ({len(run.by_slot)} requests in a "
        f"typical round of {round_s:.4g} s; mean over all rounds {n / total:.6g} 1/s, "
        f"unscaled {n / run.raw_s:.6g} 1/s)",
        f"machine: calibration kernel median {machine * 1e6:.4g} us "
        f"(reference {CAL_REFERENCE_S * 1e6:.4g} us); request and set-up times are scaled "
        "to the reference",
        f"latency_p50_ms {metrics['latency_p50_ms']:.6g} ms (median of {len(typical)} slot "
        f"medians; median of all {n} requests {statistics.median(run.latencies) * 1e3:.6g} ms)",
        f"latency_tail_ms {metrics['latency_tail_ms']:.6g} ms (median of the slowest slot, "
        f"{tail_slot!r}, over {len(run.by_slot[tail_slot])} requests; {percentile_text})",
        f"setup_s {metrics['setup_s']:.6g} s (median of {len(setup)} fresh interpreters: "
        + " ".join(f"{t:.3f}" for t in setup) + "; unscaled "
        + " ".join(f"{t:.3f}" for t in setup_raw) + ")",
        f"peak_rss_mb {peak_rss_mb:.6g} MB",
    ]
    return run, metrics, report


def traced_run(workload, workloads: dict, seed: int):
    from workloads import round_rng

    rounds = [
        workload.make_round(round_rng(workload.name, seed, i))
        for i in range(workload.traced_rounds)
    ]
    plain = Run(workload)
    warm_up(plain, seed)
    tracer = tracing.Tracer()
    traced = Run(workload, tracer)
    # each round runs untraced and traced, in alternating order, so that a
    # change in machine load between the two sides shows in neither
    untraced_s = traced_s = 0.0
    for i, requests in enumerate(rounds):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                untraced_s += sum(plain.one(req) for req in requests)
                continue
            tracer.install()
            try:
                traced_s += sum(traced.one(req) for req in requests)
            finally:
                tracer.uninstall()

    tracer.phase = "probe"
    probes = {}
    tracer.install()
    try:
        for other in workloads.values():
            if other is not workload:
                probe = Run(other, tracer)
                for req in other.make_round(round_rng(other.name, seed, 0)):
                    probe.one(req)
                probes[other.name] = probe
    finally:
        tracer.uninstall()

    metrics, probed = tracer.layer_metrics()
    metrics.update(tracing.import_times(str(SRC)))
    runs = [plain, traced] + list(probes.values())
    units = dict(tracing.PER_LAYER)
    # spans were scaled with their request; import times, taken in child
    # processes, are scaled by the run's median calibration like setup_s
    machine = statistics.median(t for r in runs for t in r.machine)
    for m, _ in tracing.IMPORT_METRICS:
        metrics[m] *= CAL_REFERENCE_S / machine
    metrics["tracing_overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100
    report = [
        f"inputs: {workload.summary(per_slot(traced))} ({len(rounds)} rounds, each "
        f"run untraced and traced: {untraced_s:.3f} s and {traced_s:.3f} s)",
        f"probe rounds for other layers: {', '.join(probes)}",
        f"machine: calibration kernel median {machine * 1e6:.4g} us "
        f"(reference {CAL_REFERENCE_S * 1e6:.4g} us); times are scaled to the reference",
    ]
    report += [f"{m} {metrics[m]:.6g} {units[m]}" for m in units]
    if probed:
        report.append("taken from the probe rounds: " + ", ".join(probed))
    if tracer.missing or tracer.handler_errors:
        report.append(f"not traced: {tracer.missing}; handler errors: {tracer.handler_errors}")
    return runs, metrics, report


def result(runs, metrics: dict, units: dict) -> dict:
    """The JSON result of one workload; prints the first failures."""
    failures = [f for r in runs for f in r.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in runs),
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oscigeo" / "__init__.py").is_file():
        print(f"error: no oscigeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oscigeo

    if SRC.resolve() not in Path(oscigeo.__file__).resolve().parents:
        print(f"error: imported oscigeo from {oscigeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl_module

    scratch = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    try:
        workloads = wl_module.make_workloads(scratch)
        names = list(workloads) if args.workload == "all" else [args.workload]
        if not set(names) <= set(workloads):
            print(f"error: unknown workload {args.workload!r}; choose from all, "
                  f"{', '.join(workloads)}", file=sys.stderr)
            return 2
        results = {}
        for name in names:
            workload = workloads[name]
            print(f"workload {name}, seed {args.seed}, closed loop with one client")
            print(f"why: {workload.why}")
            if args.trace:
                runs, metrics, report = traced_run(workload, workloads, args.seed)
                units = dict(tracing.PER_LAYER)
            else:
                run, metrics, report = timed_run(workload, args.seed, args.seconds, scratch)
                runs, units = [run], END_TO_END_UNITS
            for line in report:
                print(line)
            results[name] = result(runs, metrics, units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
