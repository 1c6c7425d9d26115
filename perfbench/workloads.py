"""Seeded job streams and one-job runners for the benchmark workloads.

Each workload turns a seed into an endless, deterministic stream of jobs
(the same seed gives the same jobs in the same order) and runs one job
at a time against tractlab.  The program only ever sees the generated
inputs.  ``run`` is the timed part of a job; ``check`` and ``record``
inspect its outputs afterwards, outside any timed region.

Library workloads catch the exceptions the CLI maps to exit code 2
(``TractlabError``, ``OverflowError``, ``ValueError``) per item and
record the class name as the item's status: these are the program's
documented refusals to certify a sample.  Any other exception is a bug
and propagates, which stops the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from tractlab import cli, conjugacy, gridkernel, orbits, semiconj
from tractlab.errors import TractlabError
from tractlab.gridkernel import Window
from tractlab.models import EntireMapSpec, LogLiftModel, plane_map_from_json

import speed

REFUSALS = (TractlabError, OverflowError, ValueError)

KAPPA = 0.3 + 0.2j
Q = 2.0
CONJ_TOL = 1e-9
REFERENCE_SEED = 20260101


@dataclass
class Item:
    """Outcome of one item: "ok" or the refusal's exception class name.

    ``bound`` is the error bound the program reported for ``value`` and
    ``tol`` the tolerance it was asked for; ``weight`` is how many items
    this record stands for (the pixels of one render call).
    """

    status: str
    value: complex | None = None
    bound: float | None = None
    tol: float | None = None
    weight: int = 1
    detail: tuple = ()


def _pair(z: complex | None):
    return None if z is None else [z.real, z.imag]


def _item_record(item: Item) -> dict:
    return {"status": item.status, "value": _pair(item.value), "bound": item.bound}


class Workload:
    # items_per_s is a median over rounds of this many consecutive jobs
    round_jobs = 1
    # the probe that follows the workload's kind of work (speed.py)
    speed_probe = speed.PYTHON
    # jobs of the stream at REFERENCE_SEED that the reference check replays,
    # and fixed jobs it replays after them
    reference_count = 0
    reference_extra: tuple = ()

    def __init__(self, outdir: str = "."):
        self.outdir = outdir  # the only directory a job may write to

    def reference_jobs(self) -> list:
        stream = self.jobs(REFERENCE_SEED)
        return [next(stream) for _ in range(self.reference_count)] + list(self.reference_extra)


class TowerPeriodic(Workload):
    """The acceptance sweep: deep towers on exact periodic cycles.

    At seed 101 the first 500 jobs are the addresses of the acceptance
    fixture in tests/test_acceptance.py.
    """

    name = "tower_periodic"
    item_unit = "addresses"
    base = LogLiftModel("shifted_exp", R=10.0)
    orbit_length = 43
    depths = 41
    trace_jobs = 6
    reference_count = 6
    round_jobs = 50

    def jobs(self, seed: int):
        rng = random.Random(seed)
        while True:
            period = rng.randint(1, 3)
            yield tuple(rng.randint(-3, 3) for _ in range(period))

    def run(self, job) -> list[Item]:
        try:
            addr = orbits.ExternalAddress.periodic(list(job))
            orbit = orbits.periodic_orbit(self.base, addr, Q, self.orbit_length)
            z = orbit[0]
            thetas = [
                conjugacy.theta_n(self.base, KAPPA, z, n, Q, orbit)
                for n in range(self.depths)
            ]
            s = conjugacy.theta_limit(self.base, KAPPA, z, CONJ_TOL, Q, orbit=orbit)
        except REFUSALS as exc:
            return [Item(type(exc).__name__)]
        return [Item("ok", s.theta, s.tail_bound, CONJ_TOL, detail=(z, thetas))]

    def check(self, job, items: list[Item]) -> list[str]:
        (item,) = items
        if item.status != "ok":
            return [f"{job}: exact cycle refused with {item.status}"]
        z, thetas = item.detail
        scale = 2.0 * abs(KAPPA)
        problems = []
        if not _finite(item.value) or not item.bound <= CONJ_TOL:
            problems.append(f"{job}: theta {item.value!r} tail {item.bound!r}")
        worst = max(abs(t - z) for t in thetas)
        if not worst <= scale + 1e-9:
            problems.append(f"{job}: |Theta_n(z) - z| = {worst!r} > 2|kappa|")
        return problems

    def record(self, job, items: list[Item]) -> dict:
        (item,) = items
        rec = _item_record(item)
        if item.detail:
            rec["theta_40"] = _pair(item.detail[1][-1])
        return {"job": list(job), "items": [rec]}

    def item_count(self, job) -> int:
        return 1


def _lifted(spec: EntireMapSpec) -> LogLiftModel:
    return LogLiftModel("lifted_entire", plane_map=spec)


class ConjugacyEscaping(Workload):
    """Shallow towers over escaping points of all six model families."""

    name = "conjugacy_escaping"
    item_unit = "points"
    models = (
        LogLiftModel("shifted_exp", R=10.0),
        _lifted(EntireMapSpec.lambda_expm1(0.5)),
        _lifted(EntireMapSpec.sinh(0.575)),
        _lifted(EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j)),
        _lifted(EntireMapSpec.exp_affine(1.0, 0.5)),
        _lifted(EntireMapSpec.zexp()),
    )
    points_per_job = 64
    trace_jobs = 12
    reference_count = 12
    round_jobs = 100

    def jobs(self, seed: int):
        rng = np.random.default_rng(seed)
        n = self.points_per_job
        index = 0
        while True:
            re = rng.uniform(3.0, 8.0, n)
            k = rng.integers(-3, 4, n)
            im = 2.0 * math.pi * k + rng.uniform(-0.5, 0.5, n)
            points = tuple(complex(a, b) for a, b in zip(re, im))
            yield (index % len(self.models), points)
            index += 1

    def run(self, job) -> list[Item]:
        model_index, points = job
        model = self.models[model_index]
        items = []
        for z in points:
            try:
                s = conjugacy.theta_limit(model, KAPPA, z, CONJ_TOL, Q)
            except REFUSALS as exc:
                items.append(Item(type(exc).__name__))
                continue
            items.append(Item("ok", s.theta, s.tail_bound, CONJ_TOL))
        return items

    def check(self, job, items: list[Item]) -> list[str]:
        # tail_bound > tol is the known defect of ROADMAP 4a; it is
        # counted in bound_held_share, not treated as a failure here
        return [
            f"model {job[0]}, z = {z!r}: theta {it.value!r} tail {it.bound!r}"
            for z, it in zip(job[1], items)
            if it.status == "ok" and not (_finite(it.value) and it.bound >= 0.0)
        ]

    def record(self, job, items: list[Item]) -> dict:
        return {
            "job": [job[0], [_pair(z) for z in job[1]]],
            "items": [_item_record(it) for it in items],
        }

    def item_count(self, job) -> int:
        return len(job[1])


class Semiconj(Workload):
    """Curve-lifting semiconjugacy for hyperbolic lambda (e^z - 1)."""

    name = "semiconj"
    item_unit = "points"
    lambdas = (0.5, 0.3, 0.6, 0.4 + 0.1j)
    r_U, K, R = 0.7, 2.0, 11.0
    tol = 1e-6
    points_per_job = 32
    trace_jobs = 4
    reference_count = 4
    round_jobs = 20

    def jobs(self, seed: int):
        rng = np.random.default_rng(seed)
        n = self.points_per_job
        index = 0
        while True:
            re = rng.uniform(24.0, 80.0, n)
            im = rng.uniform(-0.05, 0.05, n)
            yield (index % len(self.lambdas), tuple(complex(a, b) for a, b in zip(re, im)))
            index += 1

    def run(self, job) -> list[Item]:
        lam_index, points = job
        setup = semiconj.build_setup(self.lambdas[lam_index], self.r_U, self.K, self.R)
        C = semiconj.expansion_certificate(setup)
        items = []
        for z in points:
            try:
                s = semiconj.semiconj_limit(setup, z, self.tol, C)
            except REFUSALS as exc:
                items.append(Item(type(exc).__name__, detail=(C,)))
                continue
            items.append(Item("ok", s.theta, s.tail_estimate, self.tol, detail=(C,)))
        return items

    def check(self, job, items: list[Item]) -> list[str]:
        return [
            f"lambda {self.lambdas[job[0]]}, z = {z!r}: theta {it.value!r} "
            f"tail {it.bound!r}"
            for z, it in zip(job[1], items)
            if it.status == "ok" and not (_finite(it.value) and it.bound <= self.tol)
        ]

    def record(self, job, items: list[Item]) -> dict:
        return {
            "job": [job[0], [_pair(z) for z in job[1]]],
            "certified_C": items[0].detail[0],
            "items": [_item_record(it) for it in items],
        }

    def item_count(self, job) -> int:
        return len(job[1])


class Render(Workload):
    """In-process ``tractlab render`` calls; an item is one pixel."""

    name = "render"
    item_unit = "pixels"
    maps = (
        {"family": "sinh", "lambda": [0.575, 0]},  # the README example
        {"family": "lambda_expm1", "lambda": [0.5, 0]},
        {"family": "exp_plus_kappa", "kappa": [1.0038, 2.8999]},
        {"family": "exp_affine", "a": [1, 0], "b": [0.5, 0]},
        {"family": "zexp"},
    )
    windows = ((-4, 4, -4, 4), (-2, 6, -4, 4), (0, 4, -2, 2))
    escape_radius = 50.0  # the CLI default
    trace_jobs = 4
    reference_count = 5
    round_jobs = 30  # one block of the job stream
    speed_probe = speed.NUMPY
    reference_extra = ((0, 0, 256, 30, "pgm"),)  # the README command line

    def jobs(self, seed: int):
        # each block renders every map x window x format once, with sizes
        # and horizons stratified over their ranges, so that runs of
        # different seeds carry the same mix of work
        rng = np.random.default_rng(seed)
        combos = [
            (m, w, fmt)
            for m in range(len(self.maps))
            for w in range(len(self.windows))
            for fmt in ("pgm", "png")
        ]
        n = len(combos)
        while True:
            sizes = 256 + ((rng.permutation(n) + rng.uniform(size=n)) * 257 / n).astype(int)
            horizons = 20 + ((rng.permutation(n) + rng.uniform(size=n)) * 41 / n).astype(int)
            for i, c in enumerate(rng.permutation(n)):
                m, w, fmt = combos[c]
                yield (m, w, int(sizes[i]), int(horizons[i]), fmt)

    def _out(self, job) -> str:
        return os.path.join(self.outdir, f"render.{job[4]}")

    def run(self, job) -> list[Item]:
        map_index, window, size, horizon, _ = job
        argv = [
            "render",
            "--map", json.dumps(self.maps[map_index]),
            "--window=" + ",".join(str(v) for v in self.windows[window]),
            "--resolution", f"{size},{size}",
            "--horizon", str(horizon),
            "--out", self._out(job),
        ]
        code = cli.main(argv)
        status = "ok" if code == cli.EXIT_OK else f"exit_{code}"
        return [Item(status, weight=size * size)]

    def check(self, job, items: list[Item]) -> list[str]:
        (item,) = items
        if item.status != "ok":
            return [f"{job}: render exited with {item.status}"]
        size = job[2]
        path = self._out(job)
        with open(path, "rb") as fh:
            data = fh.read()
        if job[4] == "pgm":
            header = f"P5\n{size} {size}\n255\n".encode("ascii")
            ok = data.startswith(header) and len(data) == len(header) + size * size
        else:
            ok = (
                data.startswith(b"\x89PNG\r\n\x1a\n")
                and int.from_bytes(data[16:20], "big") == size
                and int.from_bytes(data[20:24], "big") == size
            )
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
        if not ok or sidecar["resolution"] != [size, size]:
            return [f"{job}: malformed image or sidecar at {path}"]
        return []

    def codes(self, job) -> np.ndarray:
        """Pixel codes of the job's grid, from the library entry point."""
        map_index, window, size, horizon, _ = job
        return gridkernel.classify_window(
            plane_map_from_json(self.maps[map_index]),
            Window(*(float(v) for v in self.windows[window])),
            (size, size),
            self.escape_radius,
            horizon,
        )

    def record(self, job, items: list[Item]) -> dict:
        (item,) = items
        rec = {"job": list(job), "status": item.status}
        if item.status == "ok":
            grid = self.codes(job)
            with open(self._out(job), "rb") as fh:
                rec["image_sha256"] = hashlib.sha256(fh.read()).hexdigest()
            rec["codes_sha256"] = hashlib.sha256(grid.tobytes()).hexdigest()
            rec["black_pixels"] = int(np.count_nonzero(gridkernel.black_mask(grid)))
        return rec

    def item_count(self, job) -> int:
        return job[2] * job[2]


def _finite(z) -> bool:
    return z is not None and math.isfinite(z.real) and math.isfinite(z.imag)


WORKLOADS = {
    w.name: w for w in (TowerPeriodic, ConjugacyEscaping, Semiconj, Render)
}