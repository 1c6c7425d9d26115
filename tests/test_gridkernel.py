"""Unit tests for the escape-time grid kernel and image writers."""

import json
import math
import os
import signal
import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from tractlab import gridkernel
from tractlab.errors import RangeError
from tractlab.gridkernel import Window
from tractlab.models import EntireMapSpec, plane_map_from_json
from tractlab.verify import _ORACLE_CASES, _grid_exit_steps, _scalar_exit

SPECS = [
    EntireMapSpec.exp_affine(2.0 + 0.5j, 1.0 - 0.25j),
    EntireMapSpec.lambda_expm1(0.5),
    EntireMapSpec.zexp(),
    EntireMapSpec.sinh(0.575),
    EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j),
]
WIN = Window(-4.0, 4.0, -4.0, 4.0)


def test_window_validation():
    with pytest.raises(RangeError):
        Window(1.0, 1.0, 0.0, 2.0)
    # an infinite bound or extent made every pixel nan: a silently black image
    for bounds in [
        (0.0, math.inf, 0.0, 1.0),
        (-math.inf, 0.0, 0.0, 1.0),
        (0.0, 1.0, math.nan, 1.0),
        (-1e308, 1e308, 0.0, 1.0),
    ]:
        with pytest.raises(RangeError, match="finite"):
            Window(*bounds)
    assert Window.from_json([0, 1, 0, 1]) == Window(0.0, 1.0, 0.0, 1.0)
    assert Window.from_json(
        {"xmin": 0, "xmax": 1, "ymin": 0, "ymax": 1}
    ).to_json() == [0, 1, 0, 1]


def test_classify_window_argument_checks():
    spec = SPECS[0]
    with pytest.raises(RangeError):
        gridkernel.classify_window(spec, WIN, (0, 8), 50.0, 10)
    with pytest.raises(RangeError):
        gridkernel.classify_window(spec, WIN, (8, 8), 50.0, 0)
    with pytest.raises(RangeError):
        gridkernel.classify_window(spec, WIN, (8, 8), -1.0, 10)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_codes_and_determinism(spec):
    g1 = gridkernel.classify_window(spec, WIN, (32, 32), 50.0, 12)
    g2 = gridkernel.classify_window(spec, WIN, (32, 32), 50.0, 12)
    assert g1.shape == (32, 32)
    assert (g1 == g2).all()
    assert set(np.unique(g1)).issubset({0, 1, 2})


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_pixel_centers_and_row_order(spec):
    # small-grid oracle: iterate the scalar map at the pixel centers directly
    exit_steps = _grid_exit_steps(spec)
    assert sorted(exit_steps) == ["guard", "horizon", "huge", "small"]
    assert all(len(steps) >= 2 for steps in exit_steps.values()), exit_steps


# the oracle cases, plus a radius past 1e300: where 1e300 < |F| < radius
# the pixel still overflows, it does not escape
BLOCK_CASES = [*_ORACLE_CASES, (Window(689.0, 695.0, -2.0, 3.0), (13, 5), 1e301, 12)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_blocks_change_no_code(monkeypatch, spec):
    # every oracle grid fits in one block of the default size, so shrink it:
    # blocks of one pixel, blocks that end mid-row, and one block per grid
    for win, (width, height), radius, horizon in BLOCK_CASES:
        dx = (win.xmax - win.xmin) / width
        dy = (win.ymax - win.ymin) / height
        expected = np.array(
            [
                [
                    _scalar_exit(
                        spec,
                        complex(win.xmin + (col + 0.5) * dx, win.ymax - (row + 0.5) * dy),
                        radius,
                        horizon,
                    )[0]
                    for col in range(width)
                ]
                for row in range(height)
            ],
            dtype=np.uint8,
        )
        for block in (1, 7, width * height):
            monkeypatch.setattr(gridkernel, "BLOCK", block)
            grid = gridkernel.classify_window(spec, win, (width, height), radius, horizon)
            # equal to the scalar codes, hence equal to each other
            assert (grid == expected).all(), (win, radius, block)


# 300 x 200 pixels in blocks of 4096: fifteen blocks, the last one short
POOL_CASE = (SPECS[3], WIN, (300, 200), 50.0, 30)


# a multiplier of 1e300 overflows a e^z inside the guard, and the kernel
# ignores that overflow: under filterwarnings = error a pool thread that
# did not enter the errstate itself raises a RuntimeWarning
OVERFLOW_CASE = (EntireMapSpec.exp_affine(1e300, 0.0), Window(-4.0, 20.0, -3.0, 3.0),
                 (300, 200), 50.0, 20)


def test_pool_blocks_ignore_overflow_as_one_block_does(monkeypatch):
    expected = gridkernel.classify_window(*OVERFLOW_CASE)
    assert set(np.unique(expected)) == {1, 2}
    monkeypatch.setattr(gridkernel, "BLOCK", 4096)
    assert (gridkernel.classify_window(*OVERFLOW_CASE) == expected).all()


@pytest.mark.parametrize("thread", ["calling", "pool"])
def test_a_block_error_reaches_the_caller_and_the_pool_survives(monkeypatch, thread):
    expected = gridkernel.classify_window(*POOL_CASE)  # one block, inline
    monkeypatch.setattr(gridkernel, "BLOCK", 4096)
    assert (gridkernel.classify_window(*POOL_CASE) == expected).all()
    pool = gridkernel._pool
    if thread == "pool" and pool is None:
        pytest.skip("one usable CPU: no pool thread")
    classify_block, caller = gridkernel._classify_block, threading.current_thread()
    once = threading.Lock()  # the first matching block takes it and fails
    boom = RuntimeError(f"a block in the {thread} thread failed")

    def failing(*args):
        in_caller = threading.current_thread() is caller
        if in_caller == (thread == "calling") and once.acquire(blocking=False):
            raise boom
        if in_caller and thread == "pool":
            time.sleep(0.005)  # leave blocks to the pool
        classify_block(*args)

    monkeypatch.setattr(gridkernel, "_classify_block", failing)
    with pytest.raises(RuntimeError) as excinfo:
        gridkernel.classify_window(*POOL_CASE)
    assert excinfo.value is boom
    monkeypatch.setattr(gridkernel, "_classify_block", classify_block)
    assert (gridkernel.classify_window(*POOL_CASE) == expected).all()
    assert gridkernel._pool is pool


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    expected = gridkernel.classify_window(*POOL_CASE)
    monkeypatch.setattr(gridkernel, "BLOCK", 4096)
    monkeypatch.setattr(gridkernel, "_pool", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def no_thread(self):
        raise AssertionError(f"thread {self.name} started on one usable CPU")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert (gridkernel.classify_window(*POOL_CASE) == expected).all()
    assert gridkernel._pool is None


def test_concurrent_first_calls_build_one_pool(monkeypatch):
    import concurrent.futures

    case = (SPECS[3], WIN, (16, 16), 50.0, 30)
    expected = gridkernel.classify_window(*case)
    monkeypatch.setattr(gridkernel, "BLOCK", 64)
    monkeypatch.setattr(gridkernel, "_pool", None)
    built = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(20):
            gridkernel._pool = None
            built.clear()
            grids = [None] * 8
            start = threading.Barrier(len(grids))

            def render(i):
                start.wait(timeout=60)  # every caller asks for the pool at once
                grids[i] = gridkernel.classify_window(*case)

            callers = [threading.Thread(target=render, args=(i,)) for i in range(len(grids))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in callers)
            assert all((grid == expected).all() for grid in grids)
            assert len(built) == (gridkernel._pool is not None)
            for pool in built:
                pool.shutdown()
    finally:
        sys.setswitchinterval(switch)


# Python 3.12 warns on a fork of a process with threads, as this one is
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_renders_on_its_own_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(gridkernel, "BLOCK", 4096)
    expected = gridkernel.classify_window(*POOL_CASE)  # the parent's pool runs
    codes = tmp_path / "child.codes"
    pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        status = 1
        try:
            codes.write_bytes(gridkernel.classify_window(*POOL_CASE).tobytes())
            status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's render hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(waited[1]) == 0
    assert codes.read_bytes() == expected.tobytes()


def test_black_mask_merges_large_codes():
    grid = np.array([[0, 1], [2, 1]], dtype=np.uint8)
    mask = gridkernel.black_mask(grid)
    assert mask.tolist() == [[True, False], [True, False]]


def test_pgm_roundtrip(tmp_path):
    grid = gridkernel.classify_window(SPECS[4], WIN, (32, 16), 50.0, 10)
    out = tmp_path / "img.pgm"
    gridkernel.write_pgm(out, grid)
    data = out.read_bytes()
    header, rest = data.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"32 16"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(16, 32)
    assert ((img == 0) == gridkernel.black_mask(grid)).all()


def test_png_roundtrip(tmp_path):
    grid = gridkernel.classify_window(SPECS[3], WIN, (16, 16), 50.0, 10)
    out = tmp_path / "img.png"
    gridkernel.write_png(out, grid)
    data = out.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    w, h = struct.unpack(">II", data[16:24])
    assert (w, h) == (16, 16)
    idat_start = data.index(b"IDAT") + 4
    idat_len = struct.unpack(">I", data[idat_start - 8 : idat_start - 4])[0]
    raw = zlib.decompress(data[idat_start : idat_start + idat_len])
    rows = [raw[i * 17 + 1 : (i + 1) * 17] for i in range(16)]
    img = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(16, 16)
    assert ((img == 0) == gridkernel.black_mask(grid)).all()


def _old_write_pgm(path, grid):
    # the writers as they were before their pixels were built as uint8 and
    # the PNG scanlines in one pad: the oracle for their bytes
    height, width = grid.shape
    pixels = np.where(gridkernel.black_mask(grid), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _old_write_png(path, grid):
    height, width = grid.shape
    pixels = np.where(gridkernel.black_mask(grid), 0, 255).astype(np.uint8)
    raw = b"".join(b"\x00" + pixels[i].tobytes() for i in range(height))

    def chunk(tag, data):
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


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (17, 16), (64, 33)])
@pytest.mark.parametrize(
    "write, old_write",
    [(gridkernel.write_pgm, _old_write_pgm), (gridkernel.write_png, _old_write_png)],
    ids=["pgm", "png"],
)
def test_writer_bytes_are_pinned(tmp_path, shape, write, old_write):
    grid = np.random.default_rng(sum(shape)).integers(0, 3, size=shape, dtype=np.uint8)
    write(tmp_path / "new", grid)
    old_write(tmp_path / "old", grid)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


def test_sidecar_roundtrip(tmp_path):
    out = tmp_path / "img.json"
    gridkernel.write_sidecar(out, SPECS[3], WIN, (64, 32), 50.0, 20)
    meta = json.loads(out.read_text())
    spec = plane_map_from_json(meta["map"])
    window = Window.from_json(meta["window"])
    assert meta["finite_horizon_proxy"] is True
    assert spec == SPECS[3]
    assert window == WIN
    assert meta["resolution"] == [64, 32]
    # the sidecar is enough to reproduce the classification exactly
    again = gridkernel.classify_window(
        spec,
        window,
        tuple(meta["resolution"]),
        meta["escape_radius"],
        meta["horizon"],
    )
    first = gridkernel.classify_window(SPECS[3], WIN, (64, 32), 50.0, 20)
    assert (again == first).all()


def test_horizon_nesting_of_black_sets():
    spec = SPECS[4]
    masks = [
        gridkernel.black_mask(gridkernel.classify_window(spec, WIN, (64, 64), 50.0, hz))
        for hz in (5, 10, 20)
    ]
    assert (masks[1] <= masks[0]).all()
    assert (masks[2] <= masks[1]).all()
