"""Command-line entry point.

Subcommands: render, conjugate, semiconj, verify, report.  Flags mirror
the JSON config one-to-one and a flag always overrides the config file.
All numeric preconditions are validated before any computation starts,
with the failing field named.  Exit codes: 0 success, 1 config error,
2 computation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter

from . import conjugacy, gridkernel, semiconj, verify
from .errors import ConfigError, RangeError, TractlabError
from .gridkernel import Window
from .models import (
    _complex,
    _positive,
    _real,
    model_from_json,
    model_to_json,
    plane_map_from_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3
# the errors that refuse one computation; a conjugate or semiconj batch
# records them per sample, and any of them that ends a run exits with
# EXIT_COMPUTE
REFUSALS = (TractlabError, OverflowError, ValueError)


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
        return Window.from_json(raw)
    except RangeError as exc:  # four numbers; Window names the rule they break
        raise ConfigError(f"window: {exc}, got {raw!r}") from exc
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

    config = (map_spec, window, (width, height), escape_radius, horizon)
    out = args.out
    if out.lower().endswith(".png"):
        gridkernel.render_png(out, *config)
    else:
        gridkernel.write_pgm(out, gridkernel.classify_window(*config))
    gridkernel.write_sidecar(out + ".json", *config)
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

    samples, refused = [], Counter()
    for z in points:
        try:
            samples.append(conjugacy.theta_limit(model, kappa, z, tol, Q))
        except REFUSALS as exc:
            samples.append(conjugacy.RefusedSample(z, exc))
            refused[type(exc).__name__] += 1
    held = [s for s in samples if isinstance(s, conjugacy.ConjugacySample)]
    residuals = [s.residual for s in held if not math.isnan(s.residual)]
    summary = {
        "model": model_to_json(model),
        "kappa": [kappa.real, kappa.imag],
        "Q": Q,
        "tol": tol,
        "count": len(samples),
        "certified": len(held),
        # certified samples whose orbit saturated short of the tower's depth
        "saturated": sum(s.proved_steps < s.depth for s in held),
        "refused": dict(sorted(refused.items())),
        # statistics of the certified samples, null when there are none
        "bound_held": sum(s.tail_bound <= tol for s in held) if held else None,
        "max_tail_over_tol": max((s.tail_bound / tol for s in held), default=None),
        "max_residual": max(residuals, default=None),
        "max_displacement": max((s.displacement() for s in held), default=None),
        "displacement_bound": conjugacy.displacement_bound(model, kappa, Q),
    }
    conjugacy.write_sample_report(args.out, samples, summary)
    print(f"wrote {args.out} ({len(samples)} samples, {len(held)} certified)")
    return _batch_exit(samples, held)


def _batch_exit(samples: list, held: list) -> int:
    """EXIT_OK when a batch certified any sample, else EXIT_COMPUTE with
    the first sample's error."""
    if held:
        return EXIT_OK
    print(
        f"computation error: no sample certified; the first: {samples[0].error}",
        file=sys.stderr,
    )
    return EXIT_COMPUTE


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
    samples = []
    for z in points:
        try:
            samples.append(semiconj.semiconj_limit(setup, z, tol, C))
        except REFUSALS as exc:
            samples.append(conjugacy.RefusedSample(z, exc))
    semiconj.write_report(args.out, setup, samples, tol, C)
    held = [s for s in samples if isinstance(s, semiconj.SemiconjSample)]
    print(
        f"wrote {args.out} ({len(samples)} samples, {len(held)} certified, "
        f"C = {C:.6g}, mu = {semiconj.mu_constant(setup):.6g})"
    )
    return _batch_exit(samples, held)


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
    p_render.add_argument("--escape-radius", dest="escape_radius")
    p_render.add_argument("--horizon")
    p_render.add_argument("--out", required=True, help="output .pgm or .png path")
    p_render.set_defaults(func=_cmd_render)

    p_conj = sub.add_parser("conjugate", help="pullback conjugacy on samples")
    p_conj.add_argument("--config", help="JSON config file")
    p_conj.add_argument("--kappa", help="complex, e.g. 0.3+0.2i")
    p_conj.add_argument("--Q")
    p_conj.add_argument("--tol")
    p_conj.add_argument("--samples", help="JSON sample file")
    p_conj.add_argument("--out", required=True, help="output JSON report")
    p_conj.set_defaults(func=_cmd_conjugate)

    p_semi = sub.add_parser("semiconj", help="hyperbolic-map semiconjugacy")
    p_semi.add_argument("--config", help="JSON config file")
    p_semi.add_argument("--lambda", dest="lam", help="complex, |lambda| < 1")
    p_semi.add_argument("--r-U", dest="r_U")
    p_semi.add_argument("--K")
    p_semi.add_argument("--R")
    p_semi.add_argument("--tol")
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


# one parser per process: building it costs about 15 times a parse
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to config error
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (*REFUSALS, OSError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
