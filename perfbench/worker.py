"""One benchmark process: set up one workload, run it, write a result file.

    python3 perfbench/worker.py --mode {probe,timed,trace} --workload NAME
        --seed N --seconds S --started T --out RESULT.json

``run.py`` starts this script; each workload runs in its own process so
that set-up time and peak memory belong to it.  ``--started`` is the
launcher's ``time.monotonic()`` taken just before it started this
process (the monotonic clock is shared by all processes), so ``setup_s``
covers interpreter start, imports, input generation and one warm-up job.

Modes:

- probe: set up and report ``setup_s`` only;
- timed: set up, run jobs in a closed loop (one client, one job at a
  time) for S seconds and at least ``--min-jobs`` jobs, check every
  job's outputs, then replay the reference jobs; the tracer is never
  imported;
- trace: set up, alternate an untraced and a traced pass over the same
  jobs until S seconds have passed or the span buffer is full, replay
  the reference jobs, and report per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_BUDGET = 400_000  # about 11 MB of span arrays
SETUP_PROBE_REPEATS = 5
PROBE_WINDOW = 5


class Tally:
    """Per-job wall times, speed-probe times and item outcomes of a timed run."""

    def __init__(self):
        self.durations: list[float] = []
        self.probe_times: list[float] = []
        self.job_items: list[int] = []
        self.attempted = 0
        self.returned = 0
        self.certified = 0
        self.violations = 0
        self.refusals: Counter[str] = Counter()

    def add(self, items, seconds: float, probe_seconds: float) -> None:
        self.durations.append(seconds)
        self.probe_times.append(probe_seconds)
        self.job_items.append(sum(it.weight for it in items))
        for it in items:
            self.attempted += it.weight
            if it.status != "ok":
                self.refusals[it.status] += it.weight
                continue
            self.returned += it.weight
            if it.bound is not None and not it.bound <= it.tol:
                self.violations += it.weight
            else:
                self.certified += it.weight

    def _timings(self, durations: list[float], rates: list[float]) -> tuple:
        ms = sorted(d * 1e3 for d in durations)
        return statistics.median(ms), statistics.quantiles(ms, n=10)[-1], statistics.median(rates)

    def end_to_end(self, round_jobs: int, reference_s: float) -> tuple[dict, dict]:
        """Metrics at reference speed, and the same timings as measured.

        Each job's time is multiplied by the reference probe time over the
        mean of the probes timed after the PROBE_WINDOW jobs around it.
        items_per_s is the median of the rates of rounds of ``round_jobs``
        consecutive jobs, so that a minority of fast or slow seconds does
        not move it.
        """
        h = PROBE_WINDOW // 2
        scaled = [
            d * reference_s / statistics.fmean(self.probe_times[max(0, i - h) : i + h + 1])
            for i, d in enumerate(self.durations)
        ]
        rounds = range(0, len(self.durations), round_jobs)
        items = [sum(self.job_items[i : i + round_jobs]) for i in rounds]
        rates = [n / sum(scaled[i : i + round_jobs]) for n, i in zip(items, rounds)]
        raw_rates = [n / sum(self.durations[i : i + round_jobs]) for n, i in zip(items, rounds)]
        p50, p90, rate = self._timings(scaled, rates)
        raw_p50, raw_p90, raw_rate = self._timings(self.durations, raw_rates)
        metrics = {
            "job_p50_ms": p50,
            "job_p90_ms": p90,
            "items_per_s": rate,
            "certified_share": self.certified / self.attempted,
            # vacuously 1 when nothing returned; certified_share then shows it
            "bound_held_share": 1.0 - self.violations / self.returned if self.returned else 1.0,
        }
        as_measured = {
            "job_p50_ms": raw_p50,
            "job_p90_ms": raw_p90,
            "items_per_s": raw_rate,
            "probe_median_ms": statistics.median(self.probe_times) * 1e3,
        }
        return metrics, as_measured

    def detail(self, item_unit: str) -> dict:
        refused = sum(self.refusals.values())
        return {
            "jobs": len(self.durations),
            "attempted": self.attempted,
            "item_unit": item_unit,
            "returned": self.returned,
            "fail_share": refused / self.attempted,
            "failures_by_class": dict(sorted(self.refusals.items())),
            "bound_violation_share": self.violations / self.returned if self.returned else 0.0,
            "bound_violations": self.violations,
        }


def _setup(workload_name: str, seed: int, outdir: str, started: float):
    import tractlab

    src = (ROOT / "src").resolve()
    if src not in Path(tractlab.__file__).resolve().parents:
        raise SystemExit(
            f"perfbench: imported tractlab from {tractlab.__file__}, not from {src}"
        )
    import workloads

    wl = workloads.WORKLOADS[workload_name](outdir)
    warm_up = next(wl.jobs(seed))
    wl.run(warm_up)
    setup = time.monotonic() - started
    probe = statistics.median(speed.PYTHON.time() for _ in range(SETUP_PROBE_REPEATS))
    return wl, setup, setup * speed.PYTHON.reference_s / probe


def _timed(wl, seed: int, seconds: float, min_jobs: int) -> tuple[Tally, list[str]]:
    tally = Tally()
    problems: list[str] = []
    stream = wl.jobs(seed)
    loop_start = time.perf_counter()
    while len(tally.durations) < min_jobs or time.perf_counter() - loop_start < seconds:
        job = next(stream)
        t0 = time.perf_counter()
        items = wl.run(job)
        elapsed = time.perf_counter() - t0
        tally.add(items, elapsed, wl.speed_probe.time())
        problems += wl.check(job, items)
    return tally, problems


def _pass(wl, jobs: list, tracer=None, first_id: int = 0) -> float:
    total = 0.0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = first_id + i
        t0 = time.perf_counter()
        wl.run(job)
        total += time.perf_counter() - t0
    return total


def _trace(wl, seed: int, seconds: float, span_path: Path) -> dict:
    import tracer as tracing

    stream = wl.jobs(seed)
    jobs = [next(stream) for _ in range(wl.trace_jobs)]
    tr = tracing.Tracer()
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        untraced += _pass(wl, jobs)
        tr.install()
        try:
            traced += _pass(wl, jobs, tr, passes * len(jobs))
        finally:
            tr.uninstall()
        passes += 1
        if time.perf_counter() - start >= seconds or len(tr) >= SPAN_BUDGET:
            break
    n_jobs = passes * len(jobs)
    items = passes * sum(wl.item_count(j) for j in jobs)
    tr.write(span_path)
    return {
        "metrics": tr.summary(n_jobs, items, traced / untraced),
        "units": {name: unit for name, (unit, _) in tracing.layer_metrics().items()},
        "detail": {
            "jobs": n_jobs,
            "attempted": items,
            "item_unit": wl.item_unit,
            "spans": str(span_path.relative_to(ROOT)),
        },
        "attempted": items,
    }


def _provenance(wl_name: str, seed: int) -> dict:
    import numpy
    import tractlab
    from tractlab import gridkernel

    return {
        "tractlab_version": tractlab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "grid_backend": tractlab.GRID_BACKEND,
        "grid_kernel_module": gridkernel._select(None).__name__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "TRACTLAB_THREADS": os.environ.get("TRACTLAB_THREADS"),
        "workload": wl_name,
        "seed": seed,
        "tracer_loaded": "tracer" in sys.modules,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["probe", "timed", "trace"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-jobs", type=int, default=100)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as outdir:
        wl, setup_raw, setup_s = _setup(args.workload, args.seed, outdir, args.started)
        result: dict = {"setup_s": setup_s, "setup_s_as_measured": setup_raw}
        problems: list[str] = []
        if args.mode == "timed":
            tally, problems = _timed(wl, args.seed, args.seconds, args.min_jobs)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, as_measured = tally.end_to_end(wl.round_jobs, wl.speed_probe.reference_s)
            metrics["peak_rss_mib"] = peak_kib / 1024.0
            result.update(
                metrics=metrics,
                detail=dict(tally.detail(wl.item_unit), as_measured=as_measured),
                attempted=tally.attempted,
            )
        elif args.mode == "trace":
            span_path = work / f"spans-{args.workload}.npz"
            result.update(_trace(wl, args.seed, args.seconds, span_path))
        if args.mode != "probe":
            import check

            problems += check.verify(wl)
    if problems:
        print(f"perfbench: {len(problems)} output check(s) failed:", file=sys.stderr)
        for line in problems[:20]:
            print(f"  {line}", file=sys.stderr)
        return 1
    result["provenance"] = _provenance(args.workload, args.seed)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
