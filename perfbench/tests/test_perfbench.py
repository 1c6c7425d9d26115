"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT)]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# a per-layer count that only a wrapper inside the library can see
INTERNAL_CALL = {
    "tower_periodic": "models.require_finite.calls",
    "conjugacy_escaping": "models.EntireMapSpec.eval.calls",
    "semiconj": "semiconj.inverse_branch_f.calls",
    "render": "gridkernel.write_sidecar.calls",
}


def test_spec_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        tracer.layer_metrics()
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(name):
    line, detail = run.run(name, seed=3, seconds=0.2, trace=False, probes=1, min_jobs=3)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 3
    prov = detail["provenance"]
    assert prov["tracer_loaded"] is False  # timed runs never import the tracer
    assert prov["seed"] == 3 and prov["grid_backend"] in ("numpy", "compiled")
    assert detail["detail"]["jobs"] >= 3 and len(detail["detail"]["setup_s_samples"]) == 2


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_sees_internal_calls(name):
    line, detail = run.run(name, seed=3, seconds=0.1, trace=True)
    units = {k: v["unit"] for k, v in line["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values[INTERNAL_CALL[name]] > 0
    assert values["trace.overhead_ratio"] > 0
    assert (ROOT / detail["detail"]["spans"]).is_file()


def test_traced_tower_layers():
    line, _ = run.run("tower_periodic", seed=4, seconds=0.1, trace=True)
    values = {k: v["value"] for k, v in line["metrics"].items()}
    # 41 depth-sweep towers plus the two inside conjugacy_residual
    assert values["conjugacy.theta_n.calls"] == 43
    assert values["orbits.iterate.calls"] == 0
    assert values["tracts.newton_evals_per_inverse"] == 0  # closed-form inverse


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_determines_inputs_and_statuses(name, tmp_path):
    wl = workloads.WORKLOADS[name](str(tmp_path))

    def first(seed):
        stream = wl.jobs(seed)
        return [next(stream) for _ in range(2)]

    a, b, c = first(5), first(5), first(6)
    assert a == b and a != c
    statuses = [[[it.status for it in wl.run(job)] for job in jobs] for jobs in (a, b)]
    assert statuses[0] == statuses[1]


def test_tower_seed_101_is_the_acceptance_fixture():
    from tests.test_acceptance import _random_periodic_addresses

    stream = workloads.TowerPeriodic().jobs(101)
    ours = [next(stream) for _ in range(500)]
    fixture = _random_periodic_addresses(500, seed=101)
    assert ours == [tuple(t.branch_index for t in a.entries) for a in fixture]


def _altered(tmp_path, edit) -> Path:
    ref = json.loads(check.REFERENCE.read_text())
    edit(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    return path


def test_reference_check_passes_and_catches_altered_outputs(tmp_path):
    tower = workloads.TowerPeriodic(str(tmp_path))
    assert check.verify(tower) == []

    def shift_theta(ref):
        ref["tower_periodic"][0]["items"][0]["value"][0] += 1e-6

    assert check.verify(tower, _altered(tmp_path, shift_theta))

    escaping = workloads.ConjugacyEscaping(str(tmp_path))

    def flip_status(ref):
        item = ref["conjugacy_escaping"][0]["items"][0]
        item["status"] = "OrbitLeftJQ" if item["status"] == "ok" else "ok"

    assert check.verify(escaping, _altered(tmp_path, flip_status))

    render = workloads.Render(str(tmp_path))

    def change_digest(ref):
        ref["render"][0]["codes_sha256"] = "0" * 64

    assert check.verify(render, _altered(tmp_path, change_digest))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "render", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
