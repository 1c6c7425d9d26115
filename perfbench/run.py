"""tractlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; tractlab is imported from
the checkout's ``src/``.  Workloads: tower_periodic, conjugacy_escaping,
semiconj, render (see perfbench/README.md).

With ``--trace 0`` the workload is set up ``SETUP_PROBES`` times in
fresh processes and then measured in one more; the last line of output
holds every end-to-end metric.  With ``--trace 1`` one traced process
reports the per-layer metrics instead.  Before that line, one JSON line
carries the provenance and the per-run detail (jobs, failures by
exception class, shares); the same record is saved under
``perfbench/_work/``.  A failed output check exits with code 1 and
prints no metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tower_periodic", "conjugacy_escaping", "semiconj", "render")
SETUP_PROBES = 6
UNITS = {
    "setup_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "items_per_s": "items/s",
    "certified_share": "share",
    "bound_held_share": "share",
    "peak_rss_mib": "MiB",
}
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 100  # beyond --seconds, for set-up and the reference replay


def _worker(mode: str, workload: str, seed: int, seconds: float, min_jobs: int) -> dict:
    out = HERE / "_work" / f"result-{mode}-{workload}-{seed}-{os.getpid()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one single-threaded process per workload
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--mode", mode, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--min-jobs", str(min_jobs),
        "--out", str(out),
        "--started", repr(time.monotonic()),  # stamped just before the start
    ]
    timeout = PROBE_TIMEOUT_S if mode == "probe" else seconds + WORKER_GRACE_S
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} worker for {workload} exited with {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    out.unlink()
    return result


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() or None


def run(workload: str, seed: int, seconds: float, trace: bool,
        probes: int = SETUP_PROBES, min_jobs: int = 100) -> tuple[dict, dict]:
    """Measure one workload; returns (final result line, detail record)."""
    if trace:
        res = _worker("trace", workload, seed, seconds, min_jobs)
        metrics = res["metrics"]
        units = res["units"]
    else:
        runs = [_worker("probe", workload, seed, seconds, min_jobs) for _ in range(probes)]
        res = _worker("timed", workload, seed, seconds, min_jobs)
        runs.append(res)
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in runs), **res["metrics"]}
        units = UNITS
        res["detail"]["setup_s_samples"] = [r["setup_s"] for r in runs]
        res["detail"]["as_measured"]["setup_s"] = statistics.median(
            r["setup_s_as_measured"] for r in runs
        )
    line = {
        "correct": True,
        "attempted": res["attempted"],
        "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    provenance = dict(res["provenance"], git_commit=_git_commit(),
                      run_seconds=seconds, trace=int(trace))
    detail = {"provenance": provenance, "detail": res["detail"]}
    return line, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tractlab" / "__init__.py").is_file():
        print(f"perfbench: no tractlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "_work").mkdir(exist_ok=True)
    line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = HERE / "_work" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({**detail, "result": line}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
