"""End-to-end tests of the command-line interface and its exit codes."""

import json

import pytest

from tractlab.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, main


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
    assert main(["report", "--input", str(tmp_path / "missing.json")]) == EXIT_COMPUTE


def test_verify_suite_exit_code():
    assert main(["verify", "--suite", "all"]) == EXIT_OK


@pytest.mark.parametrize(
    "argv, field",
    [
        (["render", "--map", '{"family": ', "--window=-4,4,-4,4"], "map"),
        (["render", "--map", '{"family": "sinh"}', "--window=-4,4,-4,4"], "map.lambda"),
        (["render", "--map", '{"family": "zexp"}', "--window=-4,4"], "window"),
        (["conjugate", "--kappa", "0.3+0.2i", "--Q", "2", "--samples", "SAMPLES"], "map"),
    ],
    ids=["malformed_map_json", "map_missing_param", "short_window", "model_without_map"],
)
def test_config_errors_name_the_field(tmp_path, capsys, argv, field):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({
        "model": {"family": "lifted_entire"}, "points": [[3.5, 0.0]],
    }))
    argv = [str(samples) if a == "SAMPLES" else a for a in argv]
    code = main(argv + ["--out", str(tmp_path / "out.pgm")])
    assert code == EXIT_CONFIG
    assert f"config error: {field}: " in capsys.readouterr().err
