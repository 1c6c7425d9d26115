"""Escape-time grid classification and image output.

``classify_window`` iterates every pixel center of a window under a plane
map, evaluated through its ``PLANE_FAMILIES`` row with ``m = numpy``; the
scalar ``EntireMapSpec`` path over the same row is its reference.

Before f, a step finishes every pixel whose modulus ceiling, the row's
``abs_ceiling``, lies below the smaller of the escape radius and
``_HUGE``: such a pixel is ``ESCAPED_SMALL`` without a complex exp.  The
ceiling bounds the |f| that the kernel would compute, not only the exact
one: f's rounding is a few units in the last place of the ceiling's
terms, far inside the ceiling's relative slack of ``LOG_FLOOR_SLACK``,
so where the ceiling is below the threshold so is ``np.abs(f(z))``, and
the code is the one f would give.  The ``_HUGE`` in the threshold keeps
a pixel with 1e300 < |f| < radius overflowed.  Where a huge parameter
makes the ceiling inf, the comparison fails and f runs.

Step 1's overflow guard and ceiling test run once per column, before any
band starts (``_first_step_columns``).  The guard and four rows'
ceilings read only Re z, which a column's pixels share bit for bit;
zexp's ceiling does not decrease as |Im z| grows, so its value at the
row farthest from the real axis bounds the whole column.  A column that
these tests finish is written at once, and only the other, live columns
are iterated, in bands of whole rows, ``max(1, BLOCK // live)`` rows to
a band for ``live`` live columns, so that a band's temporaries stay in
cache; orbits are independent, so the banding changes no code.  A band
still runs step 1's tests on each of its pixels.  Within a band the
values still iterating are compacted, with an array of their positions
in the band, only on the steps where a pixel finishes or crosses the
overflow guard.  Each band builds its own pixel centres, by the whole
grid's expression over its rows and live columns, and writes their codes
at their positions in its rows of the grid, so no array of the whole
window's centres exists.

A window of more than one band is classified on one module-level thread
pool with one worker per usable CPU (``os.sched_getaffinity``), through
its in-order ``map`` (``_in_order``); the calling thread classifies no
band of its own and only reads the bands in row order.  NumPy releases
the GIL inside its ufuncs, so the bands' array work runs on every core.
Each band writes only its own rows of the output, so the codes, and the
image bytes, are those of one thread.  The pool is built on the first
call that needs it and again in a forked child; with one band or one
usable CPU the calling thread classifies every band and no thread
starts, and a window without live columns has no band at all.
Concurrent callers in one process share the pool's first-in first-out
queue, so one call's bands can wait behind another's.

``render_png`` deflates the PNG's scanlines on the calling thread, in row
order: as soon as a band is done, it goes through one
``zlib.compressobj(9)`` while the pool classifies the bands below.  zlib
releases the GIL while it compresses, so the deflate of the top rows
overlaps the classification of the rows below.  Fed without flushes, the
stream gives the bytes of ``zlib.compress(raw, 9)`` over the whole image,
so the file is byte-identical to ``write_png``'s.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .models import EXP_OVERFLOW_GUARD, EntireMapSpec, plane_map_to_json, write_json

# classification codes
IN_JR_HORIZON = 0
ESCAPED_SMALL = 1
OVERFLOWED_LARGE = 2

_HUGE = 1e300

# pixels per band, at least one row: 256 KiB of complex128, so a band's
# temporaries stay in L2
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
    return _classify(map_spec, window, resolution, escape_radius, horizon)


def render_png(
    path,
    map_spec: EntireMapSpec,
    window: Window,
    resolution: tuple[int, int],
    escape_radius: float,
    horizon: int,
) -> np.ndarray:
    """``classify_window``'s codes, written to path as ``write_png`` writes
    them; each band of rows is deflated while the bands below it are
    classified.  The file is opened only after the last band."""
    png = _PngStream()
    grid = _classify(map_spec, window, resolution, escape_radius, horizon, png.feed)
    png.write(path, grid.shape)
    return grid


def _classify(map_spec, window, resolution, escape_radius, horizon, rows=None):
    """The codes of classify_window; rows, if given, is called on the
    calling thread with each band of rows, top to bottom, as soon as the
    band is done."""
    width, height = resolution
    if width <= 0 or height <= 0:
        raise RangeError("resolution must be positive")
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    if not escape_radius > 0:
        raise RangeError("escape_radius must be positive")
    x, y = _axes(window, width, height)
    grid = np.zeros((height, width), dtype=np.uint8)
    live = _first_step_columns(map_spec, x, y, escape_radius, grid)
    if not live.size:
        if rows is not None:
            rows(grid)
        return grid
    x = x[live]
    step = max(1, BLOCK // live.size)
    # the positions of a full band's live pixels in its rows of grid; a
    # short last band takes the first of them
    at = (np.arange(step)[:, None] * width + live).ravel()

    def classify(top: int) -> np.ndarray:
        band = slice(top, top + step)
        out = grid[band]
        # errstate is a context variable, which pool threads do not inherit
        with np.errstate(over="ignore", invalid="ignore"):
            # the whole grid's centres x[None, :] + 1j * y[:, None] on the
            # band's rows and live columns; no name here holds them, so the
            # band frees them as soon as its first step is done
            _classify_band(map_spec.row, map_spec.params, (x + 1j * y[band, None]).ravel(),
                           out.reshape(-1), at[:len(out) * x.size], escape_radius, horizon)
        return out

    for band in _in_order(classify, range(0, height, step)):
        if rows is not None:
            rows(band)
    return grid


def _first_step_columns(map_spec, x, y, escape_radius, grid) -> np.ndarray:
    """Step 1's tests before f, once per column, with the ceiling taken at
    the row farthest from the real axis: write the code of every column
    they finish into grid and return the indices of the others."""
    row = map_spec.row
    far = max(y[0], y[-1], key=abs)
    with np.errstate(over="ignore", invalid="ignore"):
        ceiling = row.abs_ceiling(map_spec.params, x + 1j * far)
    guarded = (np.abs(x) if row.two_sided else x) > EXP_OVERFLOW_GUARD
    small = ~guarded & (ceiling < min(escape_radius, _HUGE))
    grid[:, guarded] = OVERFLOWED_LARGE
    grid[:, small] = ESCAPED_SMALL
    return np.flatnonzero(~(guarded | small))


def _axes(window: Window, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """The real parts of the pixel centres of each column and their
    imaginary parts on each row; row 0 is the top."""
    dx = (window.xmax - window.xmin) / width
    dy = (window.ymax - window.ymin) / height
    x = window.xmin + (np.arange(width) + 0.5) * dx
    y = window.ymax - (np.arange(height) + 0.5) * dy
    return x, y


_pool = None  # the band pool, a ThreadPoolExecutor once built
_pool_lock = threading.Lock()


def _in_order(fn, items):
    """fn over items, its results in input order.  More than one item runs
    on the band pool, one worker per usable CPU, built on first use; one
    item, or one usable CPU, runs on the calling thread as the results are
    read, and no thread starts.  A failing item's exception reaches the
    reader, and the items not yet started are cancelled after it, or when
    the reader stops early."""
    global _pool
    if len(items) > 1:
        with _pool_lock:
            if _pool is None:
                affinity = getattr(os, "sched_getaffinity", None)
                workers = len(affinity(0)) if affinity else os.cpu_count() or 1
                if workers > 1:
                    from concurrent.futures import ThreadPoolExecutor

                    _pool = ThreadPoolExecutor(workers, thread_name_prefix="gridkernel")
            pool = _pool
        if pool is not None:
            return pool.map(fn, items)
    return map(fn, items)


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _classify_band(row, params, z, out, idx, escape_radius, horizon) -> None:
    """Write the code of every orbit starting at z into out (a view), at
    the positions idx."""
    # a modulus ceiling below this proves |f(z)| < escape_radius and |f(z)| <= _HUGE
    small_below = min(escape_radius, _HUGE)
    for _ in range(horizon):
        re = np.abs(z.real) if row.two_sided else z.real
        guarded = re > EXP_OVERFLOW_GUARD
        if guarded.any():
            z, idx = _finish(z, idx, out, guarded, OVERFLOWED_LARGE)
            if idx.size == 0:
                return
        small = row.abs_ceiling(params, z) < small_below
        if small.any():
            z, idx = _finish(z, idx, out, small, ESCAPED_SMALL)
            if idx.size == 0:
                return
        w = row.f(np, params, z)
        mag = np.abs(w)
        # nan and inf fail both comparisons, so they finish as overflowed
        keep = (mag >= escape_radius) & (mag <= _HUGE)
        if keep.all():
            z = w
            continue
        done = ~keep
        m = mag[done]
        code = np.where((m < escape_radius) & (m <= _HUGE), ESCAPED_SMALL, OVERFLOWED_LARGE)
        z, idx = _finish(w, idx, out, done, code)
        if idx.size == 0:
            return


def _finish(z, idx, out, done, code):
    """Write code at the band positions of the values marked done; return
    the other values and their positions."""
    out[idx[done]] = code
    live = ~done
    return z[live], idx[live]


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
    png = _PngStream()
    png.feed(grid)
    png.write(path, grid.shape)


class _PngStream:
    """The IDAT of a grayscale PNG, deflated band by band of rows.

    One ``compressobj(9)`` fed without flushes gives the bytes of
    ``zlib.compress`` over all the scanlines at once; only the compressed
    bytes are kept.
    """

    def __init__(self):
        self._deflate = zlib.compressobj(9)
        self._idat = []

    def feed(self, codes: np.ndarray) -> None:
        # each scanline is filter byte 0 followed by its pixels
        raw = np.pad(_pixels(codes), ((0, 0), (1, 0))).tobytes()
        self._idat.append(self._deflate.compress(raw))

    def write(self, path, shape: tuple[int, int]) -> None:
        height, width = shape
        self._idat.append(self._deflate.flush())
        ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
        with open(path, "wb") as fh:
            fh.write(b"\x89PNG\r\n\x1a\n")
            fh.write(_chunk(b"IHDR", ihdr))
            fh.write(_chunk(b"IDAT", b"".join(self._idat)))
            fh.write(_chunk(b"IEND", b""))


def _chunk(tag: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))


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
