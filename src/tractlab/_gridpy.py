"""NumPy escape-time classification kernel.

Each pixel center is iterated under the plane map, evaluated through its
``PLANE_FAMILIES`` row with ``m = numpy``; the scalar ``EntireMapSpec``
path over the same row is the kernel's reference.
"""

from __future__ import annotations

import numpy as np

from .models import EXP_OVERFLOW_GUARD, EntireMapSpec

_HUGE = 1e300


def classify(
    map_spec: EntireMapSpec,
    xmin: float,
    xmax: float,
    ymin: float,
    ymax: float,
    width: int,
    height: int,
    escape_radius: float,
    horizon: int,
) -> np.ndarray:
    row = map_spec.row
    params = map_spec.params
    dx = (xmax - xmin) / width
    dy = (ymax - ymin) / height
    x = xmin + (np.arange(width) + 0.5) * dx
    y = ymax - (np.arange(height) + 0.5) * dy  # row 0 is the top
    z = (x[None, :] + 1j * y[:, None]).astype(np.complex128)

    out = np.zeros((height, width), dtype=np.uint8)
    active = np.ones((height, width), dtype=bool)
    for _ in range(horizon):
        if row.two_sided:
            guarded = np.abs(z.real) > EXP_OVERFLOW_GUARD
        else:
            guarded = z.real > EXP_OVERFLOW_GUARD
        hit_guard = active & guarded
        out[hit_guard] = 2
        active &= ~guarded

        idx = np.nonzero(active)
        if idx[0].size == 0:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            w = row.f(np, params, z[idx])
        mag = np.abs(w)
        bad = ~np.isfinite(w) | (mag > _HUGE)
        small = ~bad & (mag < escape_radius)
        rows, cols = idx
        out[rows[bad], cols[bad]] = 2
        out[rows[small], cols[small]] = 1
        keep = ~bad & ~small
        active[rows[~keep], cols[~keep]] = False
        z[rows[keep], cols[keep]] = w[keep]
    return out
