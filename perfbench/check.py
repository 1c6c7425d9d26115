"""Correctness check against reference outputs.

Every benchmark run replays a few jobs per workload at a fixed seed,
outside the timed region, and compares them with ``reference.json``,
which was recorded from the program as it stood when the benchmark was
added.  Known defects are recorded as they are (for example
``tail_bound > tol`` in conjugacy_escaping), so a later change that
alters them shows up here as a mismatch.

Rules: item statuses, job inputs and render digests must match exactly;
theta values may differ by ``VALUE_TOL * (1 + |ref|)`` per component and
reported bounds by ``BOUND_RTOL * |ref|``.

To re-record after a deliberate change of outputs:

    PYTHONPATH=src python3 perfbench/check.py --record
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import workloads

REFERENCE = Path(__file__).with_name("reference.json")
VALUE_TOL = 1e-9
BOUND_RTOL = 1e-9
VALUE_KEYS = {"value", "theta_40"}
BOUND_KEYS = {"bound", "certified_C"}


def compute(workload) -> list[dict]:
    return [workload.record(job, workload.run(job)) for job in workload.reference_jobs()]


def _close(key: str, a: float, b: float) -> bool:
    if key in BOUND_KEYS:
        return abs(a - b) <= BOUND_RTOL * abs(b) or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= VALUE_TOL * (1.0 + abs(b))


def compare(expected, actual, path: str = "", key: str = "") -> list[str]:
    """Every difference between two records, as readable lines."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for k in expected:
            out += compare(expected[k], actual[k], f"{path}.{k}", k)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{path}[{i}]", key)
        return out
    if (
        key in VALUE_KEYS | BOUND_KEYS
        and isinstance(expected, float)
        and isinstance(actual, float)
    ):
        return [] if _close(key, actual, expected) else [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def verify(workload, reference_path: Path = REFERENCE) -> list[str]:
    """Replay the reference jobs of one workload; return the mismatches."""
    with open(reference_path) as fh:
        expected = json.load(fh)[workload.name]
    # a JSON round trip turns tuples into lists, as in the stored file
    actual = json.loads(json.dumps(compute(workload)))
    return compare(expected, actual, workload.name)


def _dump(ref: dict) -> str:
    """JSON with one line per replayed job."""
    parts = []
    for name, records in ref.items():
        body = ",\n".join("  " + json.dumps(r) for r in records)
        parts.append(f"{json.dumps(name)}: [\n{body}\n]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    outdir = Path(__file__).with_name("_work")
    outdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as outdir:
        if args.record:
            ref = {}
            for name, cls in workloads.WORKLOADS.items():
                ref[name] = compute(cls(outdir))
            with open(REFERENCE, "w") as fh:
                fh.write(_dump(ref))
            print(f"wrote {REFERENCE}")
            return 0
        bad = []
        for cls in workloads.WORKLOADS.values():
            bad += verify(cls(outdir))
    print("\n".join(bad) or "reference outputs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
