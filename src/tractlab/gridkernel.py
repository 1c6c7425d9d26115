"""Escape-time grid classification and image output.

``classify_window`` is the single entry point; the NumPy kernel in
``_gridpy`` does the iteration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _gridpy
from .errors import RangeError
from .models import EntireMapSpec, plane_map_from_json, plane_map_to_json

# classification codes
IN_JR_HORIZON = 0
ESCAPED_SMALL = 1
OVERFLOWED_LARGE = 2


@dataclass(frozen=True)
class Window:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise RangeError("window must have positive extent")

    @staticmethod
    def from_json(v) -> "Window":
        if isinstance(v, dict):
            return Window(v["xmin"], v["xmax"], v["ymin"], v["ymax"])
        xmin, xmax, ymin, ymax = v
        return Window(xmin, xmax, ymin, ymax)

    def to_json(self) -> list[float]:
        return [self.xmin, self.xmax, self.ymin, self.ymax]


def classify_window(
    map_spec: EntireMapSpec,
    window: Window,
    resolution: tuple[int, int],
    escape_radius: float,
    horizon: int,
) -> np.ndarray:
    """Per-pixel orbit classification; deterministic for a fixed config.

    Pixel centers are iterated; row 0 is the top of the window.
    """
    width, height = resolution
    if width <= 0 or height <= 0:
        raise RangeError("resolution must be positive")
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    if escape_radius <= 0:
        raise RangeError("escape_radius must be positive")
    return _gridpy.classify(
        map_spec,
        window.xmin,
        window.xmax,
        window.ymin,
        window.ymax,
        width,
        height,
        escape_radius,
        horizon,
    )


def _select(_backend=None):
    # perfbench/worker.py records _select(None).__name__ as its grid kernel
    return _gridpy


def black_mask(grid: np.ndarray) -> np.ndarray:
    """Pixels rendered black: stayed large up to the horizon, or overflowed."""
    return grid != ESCAPED_SMALL


def write_pgm(path, grid: np.ndarray) -> None:
    """P5 image: 0 = black (stayed large / overflowed), 255 = escaped."""
    height, width = grid.shape
    pixels = np.where(black_mask(grid), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_png(path, grid: np.ndarray) -> None:
    """Minimal grayscale PNG writer (no external imaging dependency)."""
    import struct
    import zlib

    height, width = grid.shape
    pixels = np.where(black_mask(grid), 0, 255).astype(np.uint8)
    raw = b"".join(b"\x00" + pixels[i].tobytes() for i in range(height))

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data))
        )

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(chunk(b"IHDR", ihdr))
        fh.write(chunk(b"IDAT", zlib.compress(raw, 9)))
        fh.write(chunk(b"IEND", b""))


def write_sidecar(
    path,
    map_spec: EntireMapSpec,
    window: Window,
    resolution: tuple[int, int],
    escape_radius: float,
    horizon: int,
) -> None:
    """JSON sidecar sufficient to reproduce the image exactly."""
    meta = {
        "map": plane_map_to_json(map_spec),
        "window": window.to_json(),
        "resolution": list(resolution),
        "escape_radius": escape_radius,
        "horizon": horizon,
        "finite_horizon_proxy": True,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def read_sidecar(path) -> dict:
    with open(path) as fh:
        meta = json.load(fh)
    meta["map_spec"] = plane_map_from_json(meta["map"])
    meta["window_obj"] = Window.from_json(meta["window"])
    return meta
