"""Escape-time grid classification and image output.

``classify_window`` iterates every pixel center of a window under a plane
map, evaluated through its ``PLANE_FAMILIES`` row with ``m = numpy``; the
scalar ``EntireMapSpec`` path over the same row is its reference.  The
flat pixel array is iterated in blocks of ``BLOCK`` pixels, so that a
block's temporaries stay in cache; orbits are independent, so the
blocking changes no code.  Within a block the values still iterating are
compacted, with an array of their positions in the block, only on the
steps where a pixel finishes or crosses the overflow guard.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .models import EXP_OVERFLOW_GUARD, EntireMapSpec, plane_map_to_json, write_json

# classification codes
IN_JR_HORIZON = 0
ESCAPED_SMALL = 1
OVERFLOWED_LARGE = 2

_HUGE = 1e300

# pixels per block: 256 KiB of complex128, so a block's temporaries stay in L2
BLOCK = 16384


@dataclass(frozen=True)
class Window:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        extents = (self.xmax - self.xmin, self.ymax - self.ymin)
        if not all(map(math.isfinite, (*self.to_json(), *extents))):
            # an infinite bound or pixel size makes every pixel nan: all black
            raise RangeError("window bounds and extents must be finite")
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
    if not escape_radius > 0:
        raise RangeError("escape_radius must be positive")
    dx = (window.xmax - window.xmin) / width
    dy = (window.ymax - window.ymin) / height
    x = window.xmin + (np.arange(width) + 0.5) * dx
    y = window.ymax - (np.arange(height) + 0.5) * dy  # row 0 is the top
    z = (x[None, :] + 1j * y[:, None]).ravel()

    out = np.zeros(z.size, dtype=np.uint8)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, z.size, BLOCK):
            block = slice(start, start + BLOCK)
            _classify_block(
                map_spec.row, map_spec.params, z[block], out[block],
                escape_radius, horizon,
            )
    return out.reshape(height, width)


def _classify_block(row, params, z, out, escape_radius, horizon) -> None:
    """Write the code of every orbit starting at z into out (a view)."""
    idx = None  # position in the block of each value in z; None: all, in order
    for _ in range(horizon):
        re = np.abs(z.real) if row.two_sided else z.real
        guarded = re > EXP_OVERFLOW_GUARD
        if guarded.any():
            if idx is None:
                idx = np.arange(z.size)
            out[idx[guarded]] = OVERFLOWED_LARGE
            live = ~guarded
            z, idx = z[live], idx[live]
            if idx.size == 0:
                return
        w = row.f(np, params, z)
        mag = np.abs(w)
        # nan and inf fail both comparisons, so they finish as overflowed
        keep = (mag >= escape_radius) & (mag <= _HUGE)
        if keep.all():
            z = w
            continue
        if idx is None:
            idx = np.arange(z.size)
        done = ~keep
        m = mag[done]
        out[idx[done]] = np.where(
            (m < escape_radius) & (m <= _HUGE), ESCAPED_SMALL, OVERFLOWED_LARGE
        )
        z, idx = w[keep], idx[keep]
        if idx.size == 0:
            return


def _select(_backend=None):
    # perfbench/worker.py records _select(None).__name__ as its grid kernel
    return sys.modules[__name__]


def black_mask(grid: np.ndarray) -> np.ndarray:
    """Pixels rendered black: stayed large up to the horizon, or overflowed."""
    return grid != ESCAPED_SMALL


def _pixels(grid: np.ndarray) -> np.ndarray:
    """Gray levels: 0 = black (stayed large / overflowed), 255 = escaped."""
    return np.where(black_mask(grid), np.uint8(0), np.uint8(255))


def write_pgm(path, grid: np.ndarray) -> None:
    """P5 image: 0 = black (stayed large / overflowed), 255 = escaped."""
    height, width = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(_pixels(grid).tobytes())


def write_png(path, grid: np.ndarray) -> None:
    """Minimal grayscale PNG writer (no external imaging dependency)."""
    import struct
    import zlib

    height, width = grid.shape
    # each scanline is filter byte 0 followed by its pixels
    raw = np.pad(_pixels(grid), ((0, 0), (1, 0))).tobytes()

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
    write_json(path, meta)
