"""Benchmark of exact fat-point verdicts.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Runs one workload in-process against the fatpoints library in this
checkout's src/, as a closed loop: one client, each query issued after the
previous one returns.  Every verdict is checked against answers.py.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 times whole passes over the workload's queries until --seconds
of wall time are used (at least one pass) and reports the end-to-end
metrics in CPU time scaled to reference speed (see gauge.py).  --trace 1
runs one untraced pass and one traced pass (with traced input generation)
and reports the per-layer metrics; the spans go to
.bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from gauge import SpeedGauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7


class LibraryMissing(RuntimeError):
    pass


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def load_library():
    """Import fatpoints afresh from this checkout's src/ and nowhere else."""
    for name in [n for n in sys.modules if n == "fatpoints" or n.startswith("fatpoints.")]:
        del sys.modules[name]
    package = SRC / "fatpoints"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no fatpoints package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    fp = importlib.import_module("fatpoints")
    if Path(fp.__file__).resolve().parent != package.resolve():
        raise LibraryMissing(f"fatpoints imported from {fp.__file__}, not {package}")
    return fp


def set_up(workload: str, seed: int, gauge: SpeedGauge):
    """Import, input generation, field construction and one warm-up query."""
    gc.collect()  # the previous set-up's garbage is not this one's cost
    start, t0 = time.monotonic(), gauge.cpu()
    fp = load_library()
    inputs = workloads.make_inputs(fp, workload, seed)
    workloads.run_query(fp, inputs, inputs.queries[workloads.WARMUP_INDEX[workload]])
    cpu, end = gauge.cpu() - t0, time.monotonic()
    return fp, inputs, cpu * gauge.factor(start, end)


class Tally:
    """Per-verdict latencies, in reference-speed CPU seconds, and failures."""

    WINDOW_S = 0.25  # queries are scaled together in stretches this long

    def __init__(self, gauge: SpeedGauge):
        self.gauge = gauge
        self.passes = []  # per pass, the latency of each query in order
        self.failed = 0

    def run_pass(self, fp, inputs):
        timed = []  # (monotonic start, monotonic end, CPU seconds)
        for q in inputs.queries:
            start, t0 = time.monotonic(), self.gauge.cpu()
            self._check(q, fp, inputs)
            timed.append((start, time.monotonic(), self.gauge.cpu() - t0))
        latencies = []
        window = []
        for i, item in enumerate(timed):
            window.append(item)
            if window[-1][1] - window[0][0] >= self.WINDOW_S or i == len(timed) - 1:
                f = self.gauge.factor(window[0][0], window[-1][1])
                latencies.extend(cpu * f for _, _, cpu in window)
                window = []
        self.passes.append(latencies)

    def _check(self, q, fp, inputs):
        try:
            verdict = workloads.run_query(fp, inputs, q)
        except Exception:
            self.failed += 1
            print(f"query {q.kind} {q.label} raised:", file=sys.stderr)
            traceback.print_exc()
            return
        if verdict != q.expected:
            self.failed += 1
            print(
                f"query {q.kind} {q.label}: got {verdict!r}, expected "
                f"{q.expected!r} ({q.source})",
                file=sys.stderr,
            )

    @property
    def attempted(self) -> int:
        return sum(map(len, self.passes))

    @property
    def cpu(self) -> float:
        return math.fsum(map(math.fsum, self.passes))

    def query_latencies(self) -> list:
        """Each query's median latency over the passes."""
        return [statistics.median(t) for t in zip(*self.passes)]


def percentile_ms(values, p: int) -> float:
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] * 1e3


def end_to_end(fp, inputs, gauge: SpeedGauge, setup_s: float, seconds: float):
    tally = Tally(gauge)
    start = time.monotonic()
    start_cpu = gauge.cpu()
    pass_walls = []
    while True:
        t = time.monotonic()
        tally.run_pass(fp, inputs)
        pass_walls.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.fmean(pass_walls) > seconds:
            break
    print(
        f"passes: {len(pass_walls)} of {len(inputs.queries)} queries; "
        f"{gauge.cpu() - start_cpu:.3f} s CPU, {tally.cpu:.3f} s at reference speed"
    )
    latencies = tally.query_latencies()
    print(f"verdict_ms percentiles over {len(latencies)} samples (per query, median of the passes)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_cpu_s": (tally.attempted / tally.cpu, "1/s"),
        "verdict_ms.p50": (percentile_ms(latencies, 50), "ms"),
        "verdict_ms.p95": (percentile_ms(latencies, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return tally, metrics, True


def traced(fp, inputs, gauge: SpeedGauge, workload: str, seed: int):
    """One untraced pass, then traced input generation and one traced pass."""
    tally = Tally(gauge)
    tally.run_pass(fp, inputs)
    untraced = tally.cpu
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = workloads.make_inputs(fp, workload, seed)
        tracer.mark_queries()
        tally.run_pass(fp, inputs)
    finally:
        tracer.remove()
    traced_cpu = tally.cpu - untraced
    leftover = tracer.leftover_wrappers()
    if leftover:
        print(f"{leftover} wrappers left installed after the traced run", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload}-{seed}.json"
    tracer.write_spans(spans_path)
    print(
        f"traced pass {traced_cpu:.3f} s, untraced pass {untraced:.3f} s at reference "
        f"speed; {len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}"
    )
    mismatches = tracer.coverage_mismatches(workload, len(inputs.queries))
    print("trace coverage: " + ("; ".join(mismatches) or "every boundary called as expected"))
    layer = tracer.layer_metrics(len(inputs.queries), traced_cpu / untraced - 1)
    metrics = {name: (layer[name], tracing.metric_unit(name)) for name in tracing.metric_names()}
    return tally, metrics, leftover == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gauge = SpeedGauge()
    try:
        return measure(args, gauge)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gauge.close()


def measure(args, gauge: SpeedGauge) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        fp = inputs = None  # let the previous set-up go before the next
        fp, inputs, t = set_up(args.workload, args.seed, gauge)
        setup_times.append(t)
    setup_s = statistics.median(setup_times)
    print(f"workload {args.workload} seed {args.seed}: inputs sha256 {inputs.fingerprint()}")

    if args.trace:
        tally, metrics, ok = traced(fp, inputs, gauge, args.workload, args.seed)
    else:
        tally, metrics, ok = end_to_end(fp, inputs, gauge, setup_s, args.seconds)
    print(f"failed_frac: {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted})")
    result = {
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
