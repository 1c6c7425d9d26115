"""Command-line entry point.

Subcommands: render, conjugate, semiconj, verify, report.  Flags mirror
the JSON config one-to-one and a flag always overrides the config file.
All numeric preconditions are validated before any computation starts,
with the failing field named.  Exit codes: 0 success, 1 config error,
2 computation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import conjugacy, gridkernel, semiconj, verify
from .errors import ConfigError, TractlabError
from .gridkernel import Window
from .models import _complex, _positive, _real, model_from_json, plane_map_from_json

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3


def _points(raw, field: str) -> list[complex]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{field}: expected a non-empty list of points")
    return [_complex(p, f"{field}[{i}]") for i, p in enumerate(raw)]


def _resolution(raw) -> tuple[int, int]:
    parts = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(parts, list) or len(parts) != 2:
        raise ConfigError(f"resolution: expected width,height, got {raw!r}")
    return tuple(_positive(v, "resolution", int) for v in parts)


def _window(raw) -> Window:
    if isinstance(raw, str):
        raw = [_real(v, "window") for v in raw.split(",")]
    try:
        window = Window.from_json(raw)
        if all(map(math.isfinite, window.to_json())):
            return window
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(
        f"window: expected xmin,xmax,ymin,ymax with xmin < xmax and "
        f"ymin < ymax, got {raw!r}"
    )


def _read_json(path: str, field: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{field}: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{field}: invalid JSON in {path}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    return cfg


def _setting(args_value, cfg: dict, key: str, default=None):
    if args_value is not None:
        return args_value
    return cfg.get(key, default)


def _load_samples(path: str | None, cfg: dict, key: str, default=None):
    """(field, model descriptor or None, points) from the --samples file,
    else config ``key``, else ``default``: a bare list of points or an
    object with ``points`` and an optional ``model``."""
    field, raw = key, cfg.get(key)
    if path is not None:
        field, raw = "samples", _read_json(path, "samples")
    elif raw is None:
        raw = default
    model = None
    if isinstance(raw, dict):
        model, raw = raw.get("model"), raw.get("points")
    return field, model, _points(raw, field)


# -- render ------------------------------------------------------------

def _cmd_render(args) -> int:
    cfg = _load_config(args.config)
    map_desc = cfg.get("map")
    if args.map is not None:
        try:
            map_desc = json.loads(args.map)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"map: invalid JSON: {exc}") from exc
    if map_desc is None:
        raise ConfigError("map: no plane-map descriptor given")
    map_spec = plane_map_from_json(map_desc)

    window_desc = _setting(args.window, cfg, "window")
    if window_desc is None:
        raise ConfigError("window: missing")
    window = _window(window_desc)
    width, height = _resolution(
        _setting(args.resolution, cfg, "resolution", [256, 256])
    )
    escape_radius = _positive(
        _setting(args.escape_radius, cfg, "escape_radius", 50.0), "escape_radius"
    )
    horizon = _positive(_setting(args.horizon, cfg, "horizon", 30), "horizon", int)

    grid = gridkernel.classify_window(
        map_spec, window, (width, height), escape_radius, horizon
    )
    out = args.out
    if out.endswith(".png"):
        gridkernel.write_png(out, grid)
    else:
        gridkernel.write_pgm(out, grid)
    gridkernel.write_sidecar(
        out + ".json", map_spec, window, (width, height), escape_radius, horizon
    )
    print(f"wrote {out} and {out}.json")
    return EXIT_OK


# -- conjugate ---------------------------------------------------------

def _cmd_conjugate(args) -> int:
    cfg = _load_config(args.config)
    kappa_raw = _setting(args.kappa, cfg, "kappa")
    if kappa_raw is None:
        raise ConfigError("kappa: missing")
    kappa = _complex(kappa_raw, "kappa")
    Q = _real(_setting(args.Q, cfg, "Q", 2.0), "Q")
    tol = _positive(_setting(args.tol, cfg, "tol", 1e-9), "tol")
    if not Q > 2.0 * abs(kappa) + 1.0:
        raise ConfigError(
            f"Q: must exceed 2|kappa|+1 = {2.0 * abs(kappa) + 1.0:g}, got {Q:g}"
        )
    _, model_desc, points = _load_samples(args.samples, cfg, "samples")
    if model_desc is None:
        model_desc = {"family": "shifted_exp"}  # F(z) = e^z - 10
    model = model_from_json(model_desc)

    samples = [conjugacy.theta_limit(model, kappa, z, tol, Q) for z in points]
    crosscheck = conjugacy.uniqueness_crosscheck(
        model, kappa, points[: min(10, len(points))], tol, Q
    )
    holo = [
        conjugacy.holomorphy_in_kappa(model, z, kappa, 1e-3, Q)
        for z in points[: min(5, len(points))]
    ]
    residuals = [s.residual for s in samples if not math.isnan(s.residual)]
    summary = {
        "kappa": [kappa.real, kappa.imag],
        "Q": Q,
        "tol": tol,
        "count": len(samples),
        "max_residual": max(residuals) if residuals else None,
        "max_displacement": max(s.displacement() for s in samples),
        "displacement_bound": 2.0 * abs(kappa),
        "uniqueness_crosscheck": crosscheck,
        "holomorphy_residuals_h1e-3": holo,
        "dilatation_ceiling": None
        if Q <= 1.0
        else conjugacy.motion_dilatation_ceiling(kappa, Q),
    }
    conjugacy.write_sample_report(args.out, samples, summary)
    if args.csv:
        conjugacy.write_sample_csv(args.csv, samples)
    print(f"wrote {args.out} ({len(samples)} samples)")
    return EXIT_OK


# -- semiconj ----------------------------------------------------------

def _cmd_semiconj(args) -> int:
    cfg = _load_config(args.config)
    lam_raw = _setting(args.lam, cfg, "lambda", "0.5")
    lam = _complex(lam_raw, "lambda")
    r_U = _real(_setting(args.r_U, cfg, "r_U", 0.7), "r_U")
    K = _real(_setting(args.K, cfg, "K", 2.0), "K")
    R = _real(_setting(args.R, cfg, "R", 11.0), "R")
    tol = _positive(_setting(args.tol, cfg, "tol", 1e-6), "tol")
    setup = semiconj.build_setup(lam, r_U, K, R)

    # small imaginary parts keep the g-orbits escaping
    default = [[25.0, 0.0], [40.0, 0.0], [30.0, 0.1], [35.0, -0.05]]
    field, model_desc, points = _load_samples(args.samples, cfg, "points", default)
    if model_desc is not None:
        raise ConfigError(f"{field}.model: semiconj takes no model")

    C = semiconj.expansion_certificate(setup)
    samples = [semiconj.semiconj_limit(setup, z, tol, C) for z in points]
    semiconj.write_report(args.out, setup, samples)
    print(
        f"wrote {args.out} ({len(samples)} samples, certified C = {C:.6g}, "
        f"mu = {semiconj.mu_constant(setup):.6g})"
    )
    return EXIT_OK


# -- verify / report ---------------------------------------------------

def _cmd_verify(args) -> int:
    failures = verify.run_suite(args.suite)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_report(args) -> int:
    payload = _read_json(args.input, "input")
    if not isinstance(payload, dict):
        raise ConfigError("input: top level must be a JSON object")
    reports = (("summary", "conjugacy report"), ("setup", "semiconjugacy report"))
    for block, title in reports:
        if block not in payload:
            continue
        if not isinstance(payload[block], dict):
            raise ConfigError(f"input.{block}: must be a JSON object")
        samples = payload.get("samples", [])
        if not isinstance(samples, list):
            raise ConfigError("input.samples: must be a JSON list")
        print(title)
        for key, val in payload[block].items():
            print(f"  {key}: {val}")
        print(f"  samples: {len(samples)}")
        return EXIT_OK
    if "map" in payload:
        print("render sidecar")
        for key, val in payload.items():
            print(f"  {key}: {val}")
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


# -- parser ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tractlab",
        description="Logarithmic-coordinate dynamics toolkit: escape-time "
        "rendering, pullback conjugacies, and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_render = sub.add_parser("render", help="escape-time image of a catalog map")
    p_render.add_argument("--config", help="JSON config file")
    p_render.add_argument("--map", help="inline JSON plane-map descriptor")
    p_render.add_argument("--window", help="xmin,xmax,ymin,ymax")
    p_render.add_argument("--resolution", help="width,height")
    p_render.add_argument("--escape-radius", dest="escape_radius", type=float)
    p_render.add_argument("--horizon", type=int)
    p_render.add_argument("--out", required=True, help="output .pgm or .png path")
    p_render.set_defaults(func=_cmd_render)

    p_conj = sub.add_parser("conjugate", help="pullback conjugacy on samples")
    p_conj.add_argument("--config", help="JSON config file")
    p_conj.add_argument("--kappa", help="complex, e.g. 0.3+0.2i")
    p_conj.add_argument("--Q", type=float)
    p_conj.add_argument("--tol", type=float)
    p_conj.add_argument("--samples", help="JSON sample file")
    p_conj.add_argument("--out", required=True, help="output JSON report")
    p_conj.add_argument("--csv", help="optional CSV batch summary")
    p_conj.set_defaults(func=_cmd_conjugate)

    p_semi = sub.add_parser("semiconj", help="hyperbolic-map semiconjugacy")
    p_semi.add_argument("--config", help="JSON config file")
    p_semi.add_argument("--lambda", dest="lam", help="complex, |lambda| < 1")
    p_semi.add_argument("--r-U", dest="r_U", type=float)
    p_semi.add_argument("--K", type=float)
    p_semi.add_argument("--R", type=float)
    p_semi.add_argument("--tol", type=float)
    p_semi.add_argument("--samples", help="JSON sample file")
    p_semi.add_argument("--out", required=True, help="output JSON report")
    p_semi.set_defaults(func=_cmd_semiconj)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument(
        "--suite",
        default="all",
        choices=["all", *verify.SUITES],
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("report", help="summarize a JSON artifact")
    p_rep.add_argument("--input", required=True)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to config error
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TractlabError, OverflowError, OSError, ValueError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
