"""In-memory span tracer for the traced benchmark run.

Only the traced run imports this module; the timed runs never load it,
so their numbers carry no tracing cost.  ``Tracer.install`` wraps every
function in ``TARGETS`` at its defining module, at every tractlab module
that imported it by name (``from .models import eval_F`` binds copies in
tracts, orbits, conjugacy and hypmetric), and on the class for methods.
Each call records a span (name, start, end, parent span, job id, whether
it raised) in flat arrays; ``summary`` derives per-layer metrics from
them and ``write`` saves them.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns as clock

import numpy as np
from tractlab.gridkernel import black_mask

# span name -> (defining module, attribute path)
TARGETS = {
    "models.eval_F": ("tractlab.models", "eval_F"),
    "models.require_finite": ("tractlab.models", "require_finite"),
    "models.domain_contains": ("tractlab.models", "domain_contains"),
    "models.eval_dF": ("tractlab.models", "eval_dF"),
    "models.EntireMapSpec.eval": ("tractlab.models", "EntireMapSpec.eval"),
    "models.EntireMapSpec.deriv": ("tractlab.models", "EntireMapSpec.deriv"),
    "tracts.inverse_branch": ("tractlab.tracts", "inverse_branch"),
    "tracts.tract_of": ("tractlab.tracts", "tract_of"),
    "orbits.iterate": ("tractlab.orbits", "iterate"),
    "orbits.periodic_orbit": ("tractlab.orbits", "periodic_orbit"),
    "orbits.point_with_address": ("tractlab.orbits", "point_with_address"),
    "conjugacy.theta_n": ("tractlab.conjugacy", "theta_n"),
    "conjugacy.theta_limit": ("tractlab.conjugacy", "theta_limit"),
    "conjugacy.conjugacy_residual": ("tractlab.conjugacy", "conjugacy_residual"),
    "semiconj.build_setup": ("tractlab.semiconj", "build_setup"),
    "semiconj.expansion_certificate": ("tractlab.semiconj", "expansion_certificate"),
    "semiconj.semiconj_limit": ("tractlab.semiconj", "semiconj_limit"),
    "semiconj.theta_level": ("tractlab.semiconj", "theta_level"),
    "semiconj.inverse_branch_f": ("tractlab.semiconj", "HyperbolicSetup.inverse_branch_f"),
    "gridkernel.classify_window": ("tractlab.gridkernel", "classify_window"),
    "gridkernel.write_png": ("tractlab.gridkernel", "write_png"),
    "gridkernel.write_pgm": ("tractlab.gridkernel", "write_pgm"),
    "gridkernel.write_sidecar": ("tractlab.gridkernel", "write_sidecar"),
    "cli.main": ("tractlab.cli", "main"),
}

TOWER_SPANS = ("conjugacy.theta_n", "conjugacy.theta_limit", "conjugacy.conjugacy_residual")

# derived metric -> (unit, better); every target adds .calls and .self_ms
DERIVED = {
    "tracts.inverse_branch.errors": ("1/job", "lower"),
    "tracts.newton_evals_per_inverse": ("evals/call", "lower"),
    "orbits.iterate.saturated_share": ("share", "lower"),
    "conjugacy.levels_per_item": ("levels/item", "lower"),
    "conjugacy.tail_over_tol_max": ("ratio", "lower"),
    "semiconj.lift_calls_per_level": ("calls/level", "lower"),
    "gridkernel.classify_window.pixels_per_s": ("pixels/s", "higher"),
    "gridkernel.black_share": ("share", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = ("1/job", "lower")
        out[f"{name}.self_ms"] = ("ms/job", "lower")
    out.update(DERIVED)
    return out


# result hooks: (counters, result, args, kwargs) -> None, run after the span closes
def _count_saturated(counters, record, args, kwargs):
    counters["iterate.saturated"] += record.saturated


def _count_levels(counters, sample, args, kwargs):
    counters["semiconj.levels"] += len(sample.thetas) - 1


def _track_tail(counters, sample, args, kwargs):
    tol = args[3] if len(args) > 3 else kwargs["tol"]
    key = "conjugacy.tail_over_tol_max"
    counters[key] = max(counters[key], sample.tail_bound / tol)


def _count_black(counters, grid, args, kwargs):
    counters["grid.pixels"] += grid.size
    counters["grid.black"] += int(np.count_nonzero(black_mask(grid)))


HOOKS = {
    "orbits.iterate": _count_saturated,
    "semiconj.theta_level": _count_levels,
    "conjugacy.theta_limit": _track_tail,
    "gridkernel.classify_window": _count_black,
}


class Tracer:
    def __init__(self):
        self.span_name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.error = array("b")
        self.current_job = -1
        self.counters = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.span_name)

    # -- wrapping -------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "tractlab"]
        for nid, (name, (modname, path)) in enumerate(TARGETS.items()):
            owner = sys.modules[modname]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapper = self._wrap(nid, original, HOOKS.get(name))
            if classes:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, nid: int, fn, hook):
        span_name, start, end = self.span_name, self.start, self.end
        parent, job, error, stack = self.parent, self.job, self.error, self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            job.append(self.current_job)
            start.append(0)
            end.append(0)
            error.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counters, result, args, kwargs)
            return result

        return traced

    # -- results --------------------------------------------------------
    def _arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int16),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.job, dtype=np.int32),
            np.frombuffer(self.error, dtype=np.int8),
        )

    def _under(self, ancestors: tuple[str, ...]) -> np.ndarray:
        """Per span: does any enclosing span have one of these names?"""
        ids = {list(TARGETS).index(a) for a in ancestors}
        names, parents = self.span_name, self.parent
        flags = bytearray(len(names))
        for i in range(len(names)):
            p = parents[i]
            if p >= 0 and (names[p] in ids or flags[p]):
                flags[i] = 1
        return np.frombuffer(bytes(flags), dtype=np.uint8).astype(bool)

    def summary(self, jobs: int, items: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics over ``jobs`` traced jobs holding ``items`` items."""
        names, start, end, parent, _, error = self._arrays()
        dur = (end - start).astype(np.float64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        k = len(TARGETS)
        calls = np.bincount(names, minlength=k)
        self_total = np.bincount(names, weights=self_ns, minlength=k)
        errors = np.bincount(names, weights=error, minlength=k)
        ids = {name: i for i, name in enumerate(TARGETS)}
        out = {}
        for name, i in ids.items():
            out[f"{name}.calls"] = calls[i] / jobs
            out[f"{name}.self_ms"] = self_total[i] / 1e6 / jobs
        ib = ids["tracts.inverse_branch"]
        out["tracts.inverse_branch.errors"] = errors[ib] / jobs
        newton = np.count_nonzero(
            (names == ids["models.EntireMapSpec.eval"]) & self._under(("tracts.inverse_branch",))
        )
        out["tracts.newton_evals_per_inverse"] = _ratio(newton, calls[ib])
        out["orbits.iterate.saturated_share"] = _ratio(
            self.counters["iterate.saturated"], calls[ids["orbits.iterate"]]
        )
        levels = np.count_nonzero((names == ib) & self._under(TOWER_SPANS))
        out["conjugacy.levels_per_item"] = _ratio(levels, items)
        out["conjugacy.tail_over_tol_max"] = self.counters["conjugacy.tail_over_tol_max"]
        out["semiconj.lift_calls_per_level"] = _ratio(
            calls[ids["semiconj.inverse_branch_f"]], self.counters["semiconj.levels"]
        )
        cw = names == ids["gridkernel.classify_window"]
        out["gridkernel.classify_window.pixels_per_s"] = _ratio(
            self.counters["grid.pixels"], dur[cw].sum() / 1e9
        )
        out["gridkernel.black_share"] = _ratio(
            self.counters["grid.black"], self.counters["grid.pixels"]
        )
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: float(out[name]) for name in layer_metrics()}

    def write(self, path) -> None:
        names, start, end, parent, job, error = self._arrays()
        np.savez(
            path,
            names=np.array(list(TARGETS)),
            span_name=names,
            start_ns=start,
            end_ns=end,
            parent=parent,
            job=job,
            error=error,
        )


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
