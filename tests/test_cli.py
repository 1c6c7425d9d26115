"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab import cli, verify
from tractlab.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from tractlab.errors import ConfigError
from tractlab.gridkernel import Window
from tractlab.models import model_from_json


def _strict_json(text):
    # NaN and Infinity are not JSON; the json module accepts them unless told
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_render_writes_image_and_sidecar(tmp_path):
    out = tmp_path / "img.pgm"
    code = main([
        "render",
        "--map", '{"family": "sinh", "lambda": [0.575, 0]}',
        "--window=-4,4,-4,4",
        "--resolution", "32,32",
        "--horizon", "10",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert out.exists()
    meta = _strict_json((tmp_path / "img.pgm.json").read_text())
    assert meta["finite_horizon_proxy"] is True
    assert meta["resolution"] == [32, 32]


def test_readme_render_example_has_black_pixels(tmp_path):
    # |0.575 sinh z| <= 0.575 cosh(Re z), so the window must reach far
    # enough in Re z for first images to pass the escape radius 50
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("tractlab render ")
    end = readme.index("\n", readme.index("--out", start))
    argv = shlex.split(readme[start:end].replace("\\\n", " "))
    out = tmp_path / "sinh.pgm"
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv[1:]) == EXIT_OK
    data = out.read_bytes()
    pixels = data[data.index(b"\n255\n") + 5:]
    assert len(pixels) == 256 * 256
    assert 0 < pixels.count(0) < len(pixels)


def test_render_png_output(tmp_path):
    out = tmp_path / "img.png"
    code = main([
        "render",
        "--map", '{"family": "exp_plus_kappa", "kappa": [1.0038, 2.8999]}',
        "--window=-4,4,-4,4",
        "--resolution", "16,16",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert out.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"


def test_render_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"family": "sinh", "lambda": [0.575, 0]},
        "window": [-4, 4, -4, 4],
        "resolution": [8, 8],
        "horizon": 5,
    }))
    out = tmp_path / "img.pgm"
    code = main([
        "render", "--config", str(cfg), "--resolution", "16,8", "--out", str(out)
    ])
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "img.pgm.json").read_text())
    assert meta["resolution"] == [16, 8]  # the flag wins over the config


def test_render_missing_map_is_config_error(tmp_path):
    code = main(["render", "--window=-1,1,-1,1", "--out", str(tmp_path / "x.pgm")])
    assert code == EXIT_CONFIG


def test_usage_error_maps_to_config_exit():
    assert main(["render"]) == EXIT_CONFIG  # --out is required
    assert main(["no-such-command"]) == EXIT_CONFIG


def test_conjugate_roundtrip(tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"points": [[3.5, 0.0], [4.0, 0.0]]}))
    out = tmp_path / "conj.json"
    code = main([
        "conjugate", "--kappa", "0.3+0.2i", "--Q", "2", "--tol", "1e-9",
        "--samples", str(samples), "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["summary"]["count"] == 2
    assert payload["summary"]["max_residual"] <= 1e-8


# the summary keys README.md documents for a conjugate report
CONJUGATE_SUMMARY_KEYS = {
    "model", "kappa", "Q", "tol", "count", "certified", "saturated", "refused",
    "bound_held", "max_tail_over_tol", "max_residual", "max_displacement",
    "displacement_bound",
}


def _conjugate_report(tmp_path, sample_file, expected_code=EXIT_OK):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(sample_file))
    out = tmp_path / "conj.json"
    code = main([
        "conjugate", "--kappa", "0.3+0.2i", "--Q", "2", "--tol", "1e-9",
        "--samples", str(samples), "--out", str(out),
    ])
    assert code == expected_code
    return _strict_json(out.read_text())


def _conjugate_summary(tmp_path, sample_file):
    report = _conjugate_report(tmp_path, sample_file)
    assert set(report["summary"]) == CONJUGATE_SUMMARY_KEYS
    return report["summary"], report["samples"]


def test_conjugate_summary_counts_held_bounds_on_lifted_sinh(tmp_path):
    # nothing proves |F'| >= 2 for a lifted model, so no displacement
    # bound is reported; the tail counts match the samples
    model = {"family": "lifted_entire", "map": {"family": "sinh", "lambda": 0.575}}
    summary, samples = _conjugate_summary(tmp_path, {
        "model": model, "points": [[5.1, 0.3], [6.0, -0.2], [4.4, 6.4]],
    })
    assert summary["displacement_bound"] is None
    tails = [s["tail_bound"] for s in samples]
    assert summary["bound_held"] == sum(t <= 1e-9 for t in tails)
    assert summary["max_tail_over_tol"] == max(t / 1e-9 for t in tails)


def test_conjugate_reports_the_displacement_bound_where_it_is_proved(tmp_path):
    # shifted_exp: |F'| = |w + R| >= Q - 2|kappa| + R >= 2 proves 2|kappa|
    # the orbit of 3 saturates early, leaving a tail of about 1.5e-6 > tol
    points = [[3.0, 0.0], [3.5, 0.0], [4.0, 0.0]]
    summary, samples = _conjugate_summary(tmp_path, {"points": points})
    assert summary["displacement_bound"] == 2.0 * abs(0.3 + 0.2j)
    assert summary["max_displacement"] <= summary["displacement_bound"]
    assert summary["bound_held"] == 2
    assert summary["max_tail_over_tol"] == samples[0]["tail_bound"] / 1e-9 > 1.0
    # R = 0.5 gives Q - 2|kappa| + R = 1.78 < 2: nothing is proved
    model = {"family": "shifted_exp", "R": 0.5}
    summary, _ = _conjugate_summary(tmp_path, {"model": model, "points": points})
    assert summary["displacement_bound"] is None


def test_conjugate_reports_the_proved_steps_of_a_saturated_sample(tmp_path):
    # the orbit of 4.5 saturates double range at step 2 of a 31-level tower
    summary, samples = _conjugate_summary(tmp_path, {"points": [[4.5, 0.0]]})
    (sample,) = samples
    assert (sample["proved_steps"], sample["depth"]) == (2, 31)
    assert summary["saturated"] == summary["certified"] == 1


def test_conjugate_writes_null_for_a_residual_it_cannot_form(tmp_path):
    # F(z) saturates, so the one-deeper tower of the residual is out of reach
    samples = tmp_path / "samples.json"
    model = {"family": "lifted_entire", "map": {"family": "lambda_expm1", "lambda": 0.5}}
    samples.write_text(json.dumps({
        "model": model, "points": [[7.138512969102209, -0.09080086363083872]],
    }))
    out = tmp_path / "conj.json"
    code = main([
        "conjugate", "--kappa", "0.3+0.2i", "--Q", "2", "--tol", "1e-9",
        "--samples", str(samples), "--out", str(out),
    ])
    assert code == EXIT_OK
    report = _strict_json(out.read_text())
    assert report["samples"][0]["residual"] is None
    assert report["summary"]["max_residual"] is None


def test_conjugate_validates_kappa_against_Q(tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"points": [[3.5, 0.0]]}))
    code = main([
        "conjugate", "--kappa", "0.6+0.4i", "--Q", "2",
        "--samples", str(samples), "--out", str(tmp_path / "x.json"),
    ])
    assert code == EXIT_CONFIG


def test_conjugate_uncertifiable_sample_is_compute_error(tmp_path):
    samples = tmp_path / "samples.json"
    # the orbit of 5 + 0.5i leaves {Re > 2} at the second step
    samples.write_text(json.dumps({"points": [[5.0, 0.5]]}))
    code = main([
        "conjugate", "--kappa", "0.3+0.2i", "--Q", "2",
        "--samples", str(samples), "--out", str(tmp_path / "x.json"),
    ])
    assert code == EXIT_COMPUTE


def test_conjugate_reports_a_refused_sample_and_keeps_going(tmp_path):
    report = _conjugate_report(tmp_path, {"points": [[3.5, 0.0], [5.0, 0.5]]})
    ok, refused = report["samples"]
    assert [ok["status"], refused["status"]] == ["ok", "OrbitLeftJQ"]
    assert set(refused) == {"z", "status", "error"}
    assert refused["z"] == [5.0, 0.5]
    assert "fails the J_Q certificate at step 1" in refused["error"]
    summary = report["summary"]
    assert (summary["count"], summary["certified"]) == (2, 1)
    assert summary["refused"] == {"OrbitLeftJQ": 1}
    # the statistics are those of the certified sample alone
    assert summary["bound_held"] == (ok["tail_bound"] <= 1e-9)
    assert summary["max_tail_over_tol"] == ok["tail_bound"] / 1e-9
    assert summary["max_residual"] == ok["residual"]
    assert summary["max_displacement"] == ok["displacement"]


def test_conjugate_writes_the_report_when_every_sample_is_refused(tmp_path):
    report = _conjugate_report(
        tmp_path, {"points": [[5.0, 0.5], [5.0, 0.5]]}, expected_code=EXIT_COMPUTE
    )
    assert [s["status"] for s in report["samples"]] == ["OrbitLeftJQ"] * 2
    summary = report["summary"]
    assert (summary["count"], summary["certified"]) == (2, 0)
    assert summary["refused"] == {"OrbitLeftJQ": 2}
    for key in ("bound_held", "max_tail_over_tol", "max_residual", "max_displacement"):
        assert summary[key] is None


@pytest.mark.parametrize("model, point", [
    (None, [3.5, 0.0]),
    ({"family": "lifted_entire", "map": {"family": "sinh", "lambda": 0.575}, "Q": 2},
     [5.1, 0.3]),
])
def test_conjugate_report_records_its_model(tmp_path, model, point):
    sample_file = {"points": [point]}
    if model is not None:
        sample_file["model"] = model
    summary, _ = _conjugate_summary(tmp_path, sample_file)
    expected = model_from_json(model or {"family": "shifted_exp"})
    assert model_from_json(summary["model"]) == expected


def test_render_chooses_png_by_a_case_insensitive_suffix(tmp_path):
    out = tmp_path / "img.PNG"
    code = main([
        "render",
        "--map", '{"family": "zexp"}',
        "--window=-4,4,-4,4",
        "--resolution", "8,8",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert out.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"


def test_semiconj_default_samples(tmp_path):
    out = tmp_path / "semi.json"
    code = main(["semiconj", "--out", str(out)])
    assert code == EXIT_OK
    payload = _strict_json(out.read_text())
    assert payload["setup"]["M"] == pytest.approx(5.5)
    assert len(payload["samples"]) == 4
    for s in payload["samples"]:
        assert s["status"] == "ok"
        assert s["tail_estimate"] <= 1e-6


def test_semiconj_invalid_setup_is_compute_error(tmp_path):
    code = main([
        "semiconj", "--lambda", "0.5", "--R", "5", "--out", str(tmp_path / "x.json")
    ])
    # R = 5 fails the named preimage condition during setup validation
    assert code == EXIT_COMPUTE


def test_semiconj_refuses_a_constant_map_at_setup(tmp_path, capsys):
    # lambda = 0 makes f constant; setup says so instead of the certificate
    # failing later to place its samples in V
    code = main(["semiconj", "--lambda", "0", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_COMPUTE
    assert "f is constant" in capsys.readouterr().err


def _semiconj_report(tmp_path, points, expected_code):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(points))
    out = tmp_path / "semi.json"
    code = main(["semiconj", "--samples", str(samples), "--out", str(out)])
    assert code == expected_code
    return _strict_json(out.read_text())


# the g-orbit of 28 - 0.02i saturates double range before its tail
# estimate drops below the default tol
SEMICONJ_REFUSED = "28-0.02i"


def test_semiconj_reports_a_refused_sample_and_keeps_going(tmp_path):
    report = _semiconj_report(
        tmp_path, [[25, 0], [32, 0.05], SEMICONJ_REFUSED], EXIT_OK
    )
    samples = report["samples"]
    assert [s["status"] for s in samples] == ["ok", "ok", "HorizonError"]
    refused = samples[2]
    assert set(refused) == {"z", "status", "error"}
    assert refused["z"] == [28.0, -0.02]
    assert "above tol 1e-06 at the representability limit" in refused["error"]


def test_semiconj_writes_the_report_when_every_sample_is_refused(tmp_path, capsys):
    report = _semiconj_report(tmp_path, [SEMICONJ_REFUSED], EXIT_COMPUTE)
    assert [s["status"] for s in report["samples"]] == ["HorizonError"]
    # the setup still records what the run used
    assert report["setup"]["tol"] == 1e-6
    assert report["setup"]["sampled_C"] > 1.0
    err = capsys.readouterr().err
    assert "no sample certified; the first: tail estimate" in err


def test_report_on_all_artifact_kinds(tmp_path, capsys):
    out = tmp_path / "img.pgm"
    main([
        "render", "--map", '{"family": "sinh", "lambda": [0.575, 0]}',
        "--window=-1,1,-1,1", "--resolution", "8,8", "--out", str(out),
    ])
    assert main(["report", "--input", str(out) + ".json"]) == EXIT_OK
    assert "finite_horizon_proxy" in capsys.readouterr().out
    assert main(["report", "--input", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert "config error: input: " in capsys.readouterr().err


def test_report_on_conjugacy_and_semiconj_reports(tmp_path, capsys):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"points": [[25, 0]]}))
    conj, semi = tmp_path / "conj.json", tmp_path / "semi.json"
    assert main([
        "conjugate", "--kappa", "0.3+0.2i", "--Q", "2",
        "--samples", str(samples), "--out", str(conj),
    ]) == EXIT_OK
    assert main(["semiconj", "--out", str(semi)]) == EXIT_OK
    capsys.readouterr()
    for path, title, key, count in ((conj, "conjugacy report", "kappa", 1),
                                    (semi, "semiconjugacy report", "mu", 4)):
        assert main(["report", "--input", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == title
        assert any(line.startswith(f"  {key}: ") for line in lines)
        assert lines[-1] == f"  samples: {count}"
    # any other JSON object is printed back
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"note": [1, 2]}))
    assert main(["report", "--input", str(other)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"note": [1, 2]}


def test_samples_object_runs_under_both_commands(tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"points": [[25, 0]]}))
    assert main([
        "conjugate", "--kappa", "0.3+0.2i", "--Q", "2",
        "--samples", str(samples), "--out", str(tmp_path / "conj.json"),
    ]) == EXIT_OK
    assert main([
        "semiconj", "--samples", str(samples), "--out", str(tmp_path / "semi.json"),
    ]) == EXIT_OK


def test_verify_suite_exit_code():
    assert main(["verify", "--suite", "all"]) == EXIT_OK


def test_python_dash_m_runs_the_cli_from_a_source_checkout():
    # the package runs as a module with only src/ on the path, no script
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "tractlab", "verify", "--suite", "all"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "PASS semiconj.semiconj_functional_limit" in done.stdout


def test_verify_has_no_hypmetric_suite():
    assert "hypmetric" not in verify.SUITES
    assert main(["verify", "--suite", "hypmetric"]) == EXIT_CONFIG


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    def _check_broken():
        raise AssertionError("injected failure")

    monkeypatch.setitem(verify.SUITES, "models", [_check_broken])
    assert main(["verify", "--suite", "models"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["FAIL models.broken"]
    assert "Traceback" in captured.err
    assert "AssertionError: injected failure" in captured.err


ZEXP = '{"family": "zexp"}'
POINTS = "@" + json.dumps({"points": [[3.5, 0.0]]})
WINDOW = "--window=-4,4,-4,4"
SHIFTED = {"family": "shifted_exp"}


def _conjugate_with_model(model):
    return ["conjugate", "--kappa", "0.3+0.2i", "--Q", "2", "--samples",
            "@" + json.dumps({"model": model, "points": [[3.5, 0.0]]})]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["render", "--map", '{"family": ', "--window=-4,4,-4,4"], "map"),
        (["render", "--map", '{"family": "sinh"}', "--window=-4,4,-4,4"], "map.lambda"),
        (["render", "--map", ZEXP, "--window=-4,4"], "window"),
        (["render", "--map", ZEXP, "--window=0,inf,0,1"], "window"),
        (["render", "--map", ZEXP, "--window=-1e308,1e308,0,1"], "window"),
        (
            ["conjugate", "--kappa", "0.3+0.2i", "--Q", "2", "--samples",
             "@" + json.dumps({"model": {"family": "lifted_entire"},
                               "points": [[3.5, 0.0]]})],
            "map",
        ),
        (["render", "--map", ZEXP, "--window=-4,4,-4,4", "--resolution", "16"],
         "resolution"),
        (["render", "--map", ZEXP, "--window=-4,4,-4,4", "--resolution", "16,a"],
         "resolution"),
        (["conjugate", "--kappa", "0.3+0.2i", "--Q", "2", "--samples",
          "@" + json.dumps({"points": [["a", 1]]})], "samples[0]"),
        (["conjugate", "--config", "@" + json.dumps({"kappa": [0.3]}),
          "--samples", POINTS], "kappa"),
        (["conjugate", "--kappa", "[0.3,0.2]", "--Q", "2", "--samples", POINTS],
         "kappa"),
        (["conjugate", "--config", "@" + json.dumps({"kappa": "0.3+0.2i", "Q": "x"}),
          "--samples", POINTS], "Q"),
        (["conjugate", "--kappa", "0.3+0.2i", "--Q", "nan", "--samples", POINTS], "Q"),
        (["render", "--map", ZEXP, "--window=-4,4,-4,4", "--escape-radius", "nan"],
         "escape_radius"),
        (["semiconj", "--tol", "nan"], "tol"),
        (["conjugate", "--kappa", "0.3+0.2i", "--Q", "x", "--samples", POINTS], "Q"),
        (["render", "--map", ZEXP, WINDOW, "--horizon", "2.5"], "horizon"),
        (["render", "--map", ZEXP, WINDOW, "--escape-radius", "abc"],
         "escape_radius"),
        (["render", "--map", '{"family": "sinh", "lambda": [1, 2, 3]}', WINDOW],
         "map.lambda"),
        (["render", "--map", '{"family": "sinh", "lambda": true}', WINDOW],
         "map.lambda"),
        (["render", "--map", '{"family": "sinh", "lambda": [NaN, 0]}', WINDOW],
         "map.lambda"),
        (["render", "--map", '{"family": "sinh", "lambda": "1e999"}', WINDOW],
         "map.lambda"),
        (_conjugate_with_model({**SHIFTED, "R": "x"}), "model.R"),
        (_conjugate_with_model({**SHIFTED, "R": math.nan}), "model.R"),
        (_conjugate_with_model({**SHIFTED, "Q": "x"}), "model.Q"),
        (["semiconj", "--samples",
          "@" + json.dumps({"model": SHIFTED, "points": [[25, 0]]})],
         "samples.model"),
        (["render", "--map", '{"family": ["sinh"]}', WINDOW], "map.family"),
        (["render", "--map", '{"family": {"sinh": 1}}', WINDOW], "map.family"),
        (_conjugate_with_model({"family": "lifted_entire", "map": {"family": ["sinh"]}}),
         "map.family"),
        (_conjugate_with_model({"family": ["shifted_exp"]}), "model.family"),
        (_conjugate_with_model({"family": {"shifted_exp": 1}}), "model.family"),
        (["report", "--input", "@1"], "input"),
        (["report", "--input", "@" + json.dumps({"summary": 1})], "input.summary"),
        (["report", "--input", "@" + json.dumps({"setup": [1]})], "input.setup"),
        (["report", "--input", "@" + json.dumps({"summary": {}, "samples": 1})],
         "input.samples"),
    ],
    ids=["malformed_map_json", "map_missing_param", "short_window",
         "infinite_window_bound", "infinite_window_extent", "model_without_map",
         "resolution_one_value", "resolution_not_integer", "non_numeric_point",
         "short_kappa", "text_kappa_pair", "text_Q", "nan_Q", "nan_escape_radius",
         "nan_semiconj_tol",
         "flag_text_Q", "flag_fractional_horizon", "flag_text_escape_radius",
         "map_three_entries", "map_boolean", "map_nan_entry", "map_overflow_text",
         "model_text_R", "model_nan_R", "model_text_Q", "semiconj_samples_model",
         "map_list_family", "map_dict_family", "model_map_list_family",
         "model_list_family", "model_dict_family",
         "report_number", "report_summary_number", "report_setup_list",
         "report_samples_number"],
)
def test_config_errors_name_the_field(tmp_path, capsys, argv, field):
    # an argument "@<json>" is written to a file and replaced by its path
    for i, arg in enumerate(argv):
        if arg.startswith("@"):
            path = tmp_path / f"arg{i}.json"
            path.write_text(arg[1:])
            argv[i] = str(path)
    # every command but report writes an output file
    out = [] if argv[0] == "report" else ["--out", str(tmp_path / "out.pgm")]
    code = main(argv + out)
    assert code == EXIT_CONFIG
    assert f"config error: {field}: " in capsys.readouterr().err


def test_a_window_error_names_the_rule_the_window_breaks(tmp_path, capsys):
    # xmin < xmax and ymin < ymax hold; the extent 2e308 is infinite
    out = ["--out", str(tmp_path / "x.pgm")]
    assert main(["render", "--map", ZEXP, "--window=0,1e308,-1e308,1e308"] + out) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: window: ")
    assert "finite" in err and "xmin < xmax" not in err
    assert main(["render", "--map", ZEXP, "--window=1,0,0,1"] + out) == EXIT_CONFIG
    assert "positive extent" in capsys.readouterr().err


def test_complex_errors_name_the_forms_of_their_input(tmp_path, capsys):
    # text takes a+bi or a number, never [re, im]; a JSON value takes all
    points = tmp_path / "points.json"
    points.write_text(POINTS[1:])
    out = ["--samples", str(points), "--out", str(tmp_path / "out.json")]
    code = main(["conjugate", "--kappa", "[0.3,0.2]"] + out)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        "config error: kappa: expected a+bi or a number, got '[0.3,0.2]'"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa": [0.3]}))
    code = main(["conjugate", "--config", str(config)] + out)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        "config error: kappa: expected a+bi, [re, im] or a number, got [0.3]"
    )


def test_integral_text_reads_as_an_integer(tmp_path, capsys):
    # "30.0" names the integer 30, as the config value 30.0 does; "30.5" none
    def render(horizon, name):
        out = tmp_path / name
        code = main(["render", "--map", ZEXP, WINDOW, "--resolution", "24,16",
                     "--horizon", horizon, "--out", str(out)])
        return code, out

    code, whole = render("30", "whole.pgm")
    assert code == EXIT_OK
    code, decimal = render("30.0", "decimal.pgm")
    assert code == EXIT_OK
    assert decimal.read_bytes() == whole.read_bytes()
    capsys.readouterr()
    code, _ = render("30.5", "half.pgm")
    assert code == EXIT_CONFIG
    assert "config error: horizon: " in capsys.readouterr().err
    # long integer text keeps its exact value
    assert cli._real(str(2**64 + 1), "horizon", int) == 2**64 + 1


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from(["16,8", "0.3+0.2i", "-4,4,-4,4", "1e400", "nan", " 7 "]),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(["xmin", "xmax", "ymin", "ymax", "x"]), children),
    max_leaves=8,
)

READERS = [
    (lambda v: cli._real(v, "Q"), "Q", float),
    (lambda v: cli._real(v, "horizon", int), "horizon", int),
    (lambda v: cli._complex(v, "kappa"), "kappa", complex),
    (lambda v: cli._points(v, "samples"), "samples", list),
    (cli._resolution, "resolution", tuple),
    (cli._window, "window", Window),
]


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_config_readers_parse_or_name_the_field(value):
    # the readers themselves, not main: no fuzzed resolution allocates a grid
    for read, field, kind in READERS:
        try:
            parsed = read(value)
        except ConfigError as exc:
            assert str(exc).startswith(field), (field, value, exc)
        else:
            assert isinstance(parsed, kind), (field, value, parsed)
