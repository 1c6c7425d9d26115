"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab import cli, verify
from tractlab.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from tractlab.errors import ConfigError
from tractlab.gridkernel import Window


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
    meta = json.loads((tmp_path / "img.pgm.json").read_text())
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
    csv_out = tmp_path / "conj.csv"
    code = main([
        "conjugate", "--kappa", "0.3+0.2i", "--Q", "2", "--tol", "1e-9",
        "--samples", str(samples), "--out", str(out), "--csv", str(csv_out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["summary"]["count"] == 2
    assert payload["summary"]["max_residual"] <= 1e-8
    assert csv_out.exists()


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


def test_semiconj_default_samples(tmp_path):
    out = tmp_path / "semi.json"
    code = main(["semiconj", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["setup"]["M"] == pytest.approx(5.5)
    assert len(payload["samples"]) == 4
    for s in payload["samples"]:
        assert s["tail_estimate"] <= 1e-6


def test_semiconj_invalid_setup_is_compute_error(tmp_path):
    code = main([
        "semiconj", "--lambda", "0.5", "--R", "5", "--out", str(tmp_path / "x.json")
    ])
    # R = 5 fails the named preimage condition during setup validation
    assert code == EXIT_COMPUTE


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
        (["conjugate", "--config", "@" + json.dumps({"kappa": "0.3+0.2i", "Q": "x"}),
          "--samples", POINTS], "Q"),
        (["conjugate", "--kappa", "0.3+0.2i", "--Q", "nan", "--samples", POINTS], "Q"),
        (["render", "--map", ZEXP, "--window=-4,4,-4,4", "--escape-radius", "nan"],
         "escape_radius"),
        (["semiconj", "--tol", "nan"], "tol"),
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
        (["report", "--input", "@1"], "input"),
        (["report", "--input", "@" + json.dumps({"summary": 1})], "input.summary"),
        (["report", "--input", "@" + json.dumps({"setup": [1]})], "input.setup"),
        (["report", "--input", "@" + json.dumps({"summary": {}, "samples": 1})],
         "input.samples"),
    ],
    ids=["malformed_map_json", "map_missing_param", "short_window", "model_without_map",
         "resolution_one_value", "resolution_not_integer", "non_numeric_point",
         "short_kappa", "text_Q", "nan_Q", "nan_escape_radius", "nan_semiconj_tol",
         "map_three_entries", "map_boolean", "map_nan_entry", "map_overflow_text",
         "model_text_R", "model_nan_R", "model_text_Q", "semiconj_samples_model",
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
