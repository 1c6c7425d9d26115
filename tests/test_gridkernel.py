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

from tractlab import cli, gridkernel
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
BLOCK_DEFAULT = gridkernel.BLOCK


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


# exp_affine(1, 0) has |f| = e^x, on which the modulus ceiling is exact:
# on columns within 1e-13 of log 50 it proves nothing and the computed |f|
# decides, on either side of 50; about 1e-11 below, it decides every pixel
EXACT_CEILING = EntireMapSpec.exp_affine(1.0, 0.0)
LOG_50 = math.log(50.0)
THRESHOLD_CASES = [
    (Window(LOG_50 - 1e-13, LOG_50 + 1e-13, -3.0, 3.0), (9, 7), 50.0, 3),
    (Window(LOG_50 - 1.1e-11, LOG_50 - 0.9e-11, -3.0, 3.0), (9, 7), 50.0, 3),
]

# the oracle cases, a radius past 1e300 (where 1e300 < |F| < radius the
# pixel still overflows, it does not escape) and the ceiling's threshold
BLOCK_CASES = [
    *_ORACLE_CASES,
    (Window(689.0, 695.0, -2.0, 3.0), (13, 5), 1e301, 12),
    *THRESHOLD_CASES,
]


def _grid_centres(win, resolution):
    # every pixel centre at once, as the kernel built them before its
    # bands built their own
    x, y = gridkernel._axes(win, *resolution)
    return (x[None, :] + 1j * y[:, None]).ravel()


def _assert_blocks_give_scalar_codes(monkeypatch, spec, cases):
    # every case fits in one band of the default size, so shrink BLOCK:
    # bands of one row (BLOCK below the width), of two rows, the last one
    # short where the height is odd, and one band per grid
    for win, (width, height), radius, horizon in cases:
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
        for block in (1, 7, 2 * width, width * height):
            monkeypatch.setattr(gridkernel, "BLOCK", block)
            grid = gridkernel.classify_window(spec, win, (width, height), radius, horizon)
            # equal to the scalar codes, hence equal to each other
            assert (grid == expected).all(), (win, radius, block)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_blocks_change_no_code(monkeypatch, spec):
    _assert_blocks_give_scalar_codes(monkeypatch, spec, BLOCK_CASES)


# every family has dead and live columns here: step 1's column test
# finishes a column where the row's ceiling at the bottom row, the one
# farthest from the real axis, is below 50; zexp's ceiling grows with
# |Im z|, so some pixels of its live columns have their own ceiling below
# 50 and step 1 in the band finishes them
DEAD_COLUMNS_CASE = (Window(-8.0, 8.5, -9.0, 2.0), (23, 12), 50.0, 12)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_a_window_with_dead_columns_gives_the_scalar_codes(monkeypatch, spec):
    win, resolution, radius, _ = DEAD_COLUMNS_CASE
    x, y = gridkernel._axes(win, *resolution)
    dead = spec.row.abs_ceiling(spec.params, x + 1j * y[-1]) < radius
    assert dead.any() and not dead.all()
    if spec.family == "zexp":
        pixels = x[~dead] + 1j * y[:, None]
        assert (spec.row.abs_ceiling(spec.params, pixels) < radius).any()
    _assert_blocks_give_scalar_codes(monkeypatch, spec, [DEAD_COLUMNS_CASE])


def test_a_guarded_column_overflows_where_its_ceiling_is_small(monkeypatch):
    # |1e-305 e^z| < 50 up to Re z = 708, past the guard at 700: step 1
    # tests the guard first, so the columns right of 700 overflow and the
    # others escape, all without a band
    spec = EntireMapSpec.exp_affine(1e-305, 0.0)
    case = (Window(694.0, 706.0, -1.0, 1.0), (6, 3), 50.0, 5)
    grid = gridkernel.classify_window(spec, *case)
    assert (grid[:, :3] == gridkernel.ESCAPED_SMALL).all()
    assert (grid[:, 3:] == gridkernel.OVERFLOWED_LARGE).all()
    _assert_blocks_give_scalar_codes(monkeypatch, spec, [case])


def test_orbits_through_underflowing_exps_keep_their_codes(monkeypatch):
    # e^z + kappa sends pixels near Im z = pi to Re z < -700, where the
    # ceiling's e^Re z would underflow; it is taken at Re z = -700 there
    spec = SPECS[4]
    case = (Window(4.5, 8.0, -3.0, 3.0), (24, 18), 50.0, 40)
    win, resolution, radius, horizon = case
    x, y = gridkernel._axes(win, *resolution)
    exits = [_scalar_exit(spec, complex(a, b), radius, horizon) for b in y for a in x]
    assert min(last.real for _, exit_, _, last in exits if exit_ == "small") < -700.0
    _assert_blocks_give_scalar_codes(monkeypatch, spec, [case])


def test_codes_at_the_ceiling_threshold(monkeypatch):
    params, row = EXACT_CEILING.params, EXACT_CEILING.row
    z_near, z_below = (_grid_centres(win, res) for win, res, *_ in THRESHOLD_CASES)
    assert (row.abs_ceiling(params, z_near) >= 50.0).all()
    mag = np.abs(row.f(np, params, z_near))
    assert (mag < 50.0).any() and (mag >= 50.0).any()
    assert (row.abs_ceiling(params, z_below) < 50.0).all()
    _assert_blocks_give_scalar_codes(monkeypatch, EXACT_CEILING, THRESHOLD_CASES)


def test_block_centres_are_the_whole_grid_centres_byte_for_byte(monkeypatch):
    # windows whose middle column and row are zero.  The intermediate
    # 1j * y holds -0.0 in its real part where y < 0, but no centre can:
    # x + (-0.0) is x, and an axis's zero is a sum a + (-a) = +0.0.  With
    # |f| = e^x and a radius of 1/2, step 1's column test finishes the
    # columns left of log(1/2) and the bands carry the others, the zero
    # column among them.  One usable CPU, so the bands are classified in
    # order on the calling thread
    _one_usable_cpu(monkeypatch)
    centres = []
    classify_band = gridkernel._classify_band

    def recording(row, params, z, *rest):
        centres.append(z.copy())
        classify_band(row, params, z, *rest)

    monkeypatch.setattr(gridkernel, "_classify_band", recording)
    for win, (width, height) in [
        (Window(-1.5, 1.5, -1.5, 1.5), (3, 3)),
        (Window(-2.0, 2.0, -1.0, 1.0), (5, 7)),
        (Window(-200.5, 200.5, -1.5, 1.5), (401, 3)),
    ]:
        whole = _grid_centres(win, (width, height)).reshape(height, width)
        live = whole[0].real >= math.log(0.5)
        assert not live.all() and (whole[:, live].real == 0).any()
        whole = whole[:, live].ravel()
        assert (whole.imag == 0).any()
        zeros = np.concatenate([whole.real[whole.real == 0], whole.imag[whole.imag == 0]])
        assert not np.signbit(zeros).any()
        # a live row wider than BLOCK, one row per band, two and three rows
        # per band, the last one short where they do not divide the
        # height, and one band
        cols = int(live.sum())
        for block in (1, cols - 1, cols, 2 * cols, 3 * cols + 1, whole.size, BLOCK_DEFAULT):
            monkeypatch.setattr(gridkernel, "BLOCK", block)
            centres.clear()
            gridkernel.classify_window(EXACT_CEILING, win, (width, height), 0.5, 1)
            rows = max(1, block // cols)
            assert [z.size for z in centres] == [
                cols * min(rows, height - top) for top in range(0, height, rows)
            ], (win, block)
            assert np.concatenate(centres).tobytes() == whole.tobytes(), (win, block)


# 300 x 200 pixels, of which step 1's column test finishes the columns
# with 0.575 cosh(Re z) < 50, |Re z| < 5.16 (no centre is near it): the
# other 153 are classified in bands of 4096 // 153 = 26 rows, eight
# bands, the last one short
POOL_CASE = (SPECS[3], Window(-9.0, 12.0, -2.0, 3.0), (300, 200), 50.0, 30)


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


def _raise_in_one_band(monkeypatch, thread, call):
    """Run call with the first band of the named thread failing; the
    caller must raise that error within a bounded time.  The calling
    thread runs bands only on the inline path; a pool band fails late,
    once the caller waits for it."""
    classify_band = gridkernel._classify_band
    once = threading.Lock()  # the first matching band takes it and fails
    boom = RuntimeError(f"a band in the {thread} thread failed")

    def failing(*args):
        in_caller = threading.current_thread() is runner
        if in_caller == (thread == "calling") and once.acquire(blocking=False):
            if not in_caller:
                time.sleep(0.2)
            raise boom
        classify_band(*args)

    raised = []

    def run():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    monkeypatch.setattr(gridkernel, "_classify_band", failing)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "the caller never saw the failed band"
    monkeypatch.setattr(gridkernel, "_classify_band", classify_band)
    assert len(raised) == 1 and raised[0] is boom


@pytest.mark.parametrize("thread", ["calling", "pool"])
def test_a_block_error_reaches_the_caller_and_the_pool_survives(monkeypatch, thread):
    expected = gridkernel.classify_window(*POOL_CASE)
    monkeypatch.setattr(gridkernel, "BLOCK", 4096)
    if thread == "calling":
        _usable_cpus(monkeypatch, 1)  # the inline path: the caller runs every band
    assert (gridkernel.classify_window(*POOL_CASE) == expected).all()
    pool = gridkernel._pool
    if thread == "pool" and pool is None:
        pytest.skip("one usable CPU: no pool thread")
    _raise_in_one_band(monkeypatch, thread, lambda: gridkernel.classify_window(*POOL_CASE))
    assert (gridkernel.classify_window(*POOL_CASE) == expected).all()
    assert gridkernel._pool is pool


SINH = '{"family": "sinh", "lambda": [0.575, 0]}'  # POOL_CASE's map


def _render_png(out, resolution, window="-9,12,-2,3"):  # POOL_CASE's window
    width, height = resolution
    return cli.main([
        "render", "--map", SINH, f"--window={window}",
        "--resolution", f"{width},{height}", "--horizon", "30", "--out", str(out),
    ])


@pytest.mark.parametrize("thread", ["calling", "pool"])
def test_a_block_error_in_a_png_render_writes_no_file(monkeypatch, tmp_path, thread):
    resolution = POOL_CASE[2]
    _old_write_png(tmp_path / "old.png", gridkernel.classify_window(*POOL_CASE))
    monkeypatch.setattr(gridkernel, "BLOCK", 4096)
    if thread == "calling":
        _usable_cpus(monkeypatch, 1)  # the inline path: the caller runs every band
    out = tmp_path / "x.png"
    assert _render_png(out, resolution) == cli.EXIT_OK
    out.unlink()
    pool = gridkernel._pool
    if thread == "pool" and pool is None:
        pytest.skip("one usable CPU: no pool thread")
    _raise_in_one_band(monkeypatch, thread, lambda: _render_png(out, resolution))
    assert not out.exists()
    assert _render_png(out, resolution) == cli.EXIT_OK
    assert out.read_bytes() == (tmp_path / "old.png").read_bytes()
    assert gridkernel._pool is pool


# the README window: sinh's ceiling 0.575 cosh(Re z) is below 50 on every
# column, so step 1's column test finishes every pixel
DEAD_CASE = (SPECS[3], WIN, (300, 200), 50.0, 30)


def test_an_all_dead_window_classifies_no_band_and_starts_no_thread(monkeypatch, tmp_path):
    def no_band(*args):
        raise AssertionError("a band was classified")

    def no_thread(fn, items):
        raise AssertionError("the band scheduler was given bands")

    monkeypatch.setattr(gridkernel, "BLOCK", 64)  # 200 bands of whole rows
    monkeypatch.setattr(gridkernel, "_classify_band", no_band)
    monkeypatch.setattr(gridkernel, "_in_order", no_thread)
    grid = gridkernel.classify_window(*DEAD_CASE)
    assert (grid == gridkernel.ESCAPED_SMALL).all()
    gridkernel.write_png(tmp_path / "whole.png", grid)
    assert _render_png(tmp_path / "x.png", DEAD_CASE[2], window="-4,4,-4,4") == cli.EXIT_OK
    assert (tmp_path / "x.png").read_bytes() == (tmp_path / "whole.png").read_bytes()


def _usable_cpus(monkeypatch, cpus):
    """Build the band pool anew, for this many usable CPUs."""
    monkeypatch.setattr(gridkernel, "_pool", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def _no_thread_starts(monkeypatch):
    def no_thread(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)


def _one_usable_cpu(monkeypatch):
    _usable_cpus(monkeypatch, 1)
    _no_thread_starts(monkeypatch)


@pytest.fixture(params=[2])
def cpus(request, monkeypatch):
    """A band pool built anew for request.param usable CPUs, shut down
    after the test."""
    _usable_cpus(monkeypatch, request.param)
    yield request.param
    if gridkernel._pool is not None:
        gridkernel._pool.shutdown()


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    expected = gridkernel.classify_window(*POOL_CASE)
    monkeypatch.setattr(gridkernel, "BLOCK", 4096)
    _one_usable_cpu(monkeypatch)
    assert (gridkernel.classify_window(*POOL_CASE) == expected).all()
    assert gridkernel._pool is None


def test_a_one_band_window_starts_no_thread_on_two_cpus(monkeypatch, tmp_path):
    # 40 x 25 pixels of POOL_CASE's window have live and dead columns, and
    # the live ones fit one band of BLOCK pixels
    spec, win, _, radius, horizon = POOL_CASE
    case = (spec, win, (40, 25), radius, horizon)
    expected = gridkernel.classify_window(*case)
    _old_write_png(tmp_path / "old.png", expected)
    _usable_cpus(monkeypatch, 2)
    _no_thread_starts(monkeypatch)
    classify_band = gridkernel._classify_band
    sizes = []

    def counted(row, params, z, *rest):
        sizes.append(z.size)
        classify_band(row, params, z, *rest)

    monkeypatch.setattr(gridkernel, "_classify_band", counted)
    assert (gridkernel.classify_window(*case) == expected).all()
    assert _render_png(tmp_path / "x.png", case[2]) == cli.EXIT_OK
    assert (tmp_path / "x.png").read_bytes() == (tmp_path / "old.png").read_bytes()
    assert len(sizes) == 2 and sizes[0] == sizes[1]  # one band per call
    assert 0 < sizes[0] < 40 * 25
    assert gridkernel._pool is None


# the scheduler alone, over trivial functions


def test_in_order_keeps_the_input_order_on_the_pool(cpus):
    caller = threading.current_thread()

    def later_first(i):
        time.sleep(0.002 * (8 - i))  # the later items finish first
        return i * i, threading.current_thread()

    results = list(gridkernel._in_order(later_first, range(8)))
    assert [value for value, _ in results] == [i * i for i in range(8)]
    assert all(thread is not caller for _, thread in results)
    assert gridkernel._pool._max_workers == cpus


@pytest.mark.parametrize("cpus, items", [(2, [7]), (1, range(6))], indirect=["cpus"])
def test_one_item_or_one_usable_cpu_runs_inline(monkeypatch, cpus, items):
    _no_thread_starts(monkeypatch)
    caller = threading.current_thread()

    def square(i):
        assert threading.current_thread() is caller
        return i * i

    assert list(gridkernel._in_order(square, items)) == [i * i for i in items]
    assert gridkernel._pool is None


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
def test_a_failing_items_own_error_reaches_the_reader(cpus):
    boom = RuntimeError("item 3 failed")

    def fail_third(i):
        if i == 3:
            raise boom
        return i

    with pytest.raises(RuntimeError) as failed:
        list(gridkernel._in_order(fail_third, range(8)))
    assert failed.value is boom
    assert (gridkernel._pool is None) == (cpus == 1)


class _StopReading(Exception):
    pass


def test_items_not_started_are_cancelled_and_the_pool_is_reused(cpus):
    # each worker holds one item until the gate opens, so at most the
    # first item and one item per worker start before the reader stops
    gate = threading.Event()
    ran = []
    boom = RuntimeError("item 0 failed")

    def fail_first(i):
        ran.append(i)
        if i == 0:
            raise boom
        gate.wait(timeout=30)
        return i

    with pytest.raises(RuntimeError) as failed:
        list(gridkernel._in_order(fail_first, range(20)))
    assert failed.value is boom
    pool = gridkernel._pool
    gate.set()
    # the pool runs its queue in order, so this map's items run after
    # every item of the first one has started or been cancelled
    assert list(gridkernel._in_order(str, range(4))) == ["0", "1", "2", "3"]
    assert 0 in ran and set(ran) <= set(range(1 + cpus))

    def first_free(i):
        ran.append(i)
        if i:
            gate.wait(timeout=30)
        return i

    gate.clear()
    ran.clear()
    # a reader that stops as _classify's loop does, by an exception
    with pytest.raises(_StopReading):
        for i in gridkernel._in_order(first_free, range(20)):
            assert i == 0
            raise _StopReading
    gate.set()
    assert list(gridkernel._in_order(str, range(4))) == ["0", "1", "2", "3"]
    assert 0 in ran and set(ran) <= set(range(1 + cpus))
    assert gridkernel._pool is pool


def test_concurrent_first_calls_build_one_pool(monkeypatch):
    import concurrent.futures

    case = (SPECS[3], POOL_CASE[1], (16, 16), 50.0, 30)  # 8 live columns
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


# (BLOCK, resolution) on POOL_CASE's window: 102 live columns, more than
# BLOCK, so one row per band; 15 live columns in bands of 46 rows, the
# last one short; 29 in bands of two rows; one band
STREAM_CASES = [(64, (200, 30)), (700, (30, 50)), (70, (60, 14)), (BLOCK_DEFAULT, (40, 25))]


@pytest.mark.parametrize("cpus", ["all", "one"])
@pytest.mark.parametrize("block, resolution", STREAM_CASES)
def test_streamed_png_bytes_equal_the_oracle(monkeypatch, tmp_path, block, resolution, cpus):
    spec, win, _, radius, horizon = POOL_CASE
    _old_write_png(
        tmp_path / "old.png", gridkernel.classify_window(spec, win, resolution, radius, horizon)
    )
    if cpus == "one":
        _one_usable_cpu(monkeypatch)
    monkeypatch.setattr(gridkernel, "BLOCK", block)
    assert _render_png(tmp_path / "x.png", resolution) == cli.EXIT_OK
    assert (tmp_path / "x.png").read_bytes() == (tmp_path / "old.png").read_bytes()


@pytest.mark.parametrize("block", [64, 700, 4096, BLOCK_DEFAULT])
def test_bands_are_final_rows_fed_in_order(monkeypatch, block):
    width, height = POOL_CASE[2]
    expected = gridkernel.classify_window(*POOL_CASE)
    monkeypatch.setattr(gridkernel, "BLOCK", block)
    bands = []
    grid = gridkernel._classify(*POOL_CASE, rows=lambda band: bands.append(band.copy()))
    assert (grid == expected).all()
    # each band is fed once, in order, as max(1, BLOCK // live) whole rows,
    # the last one short, where live counts the columns that step 1's
    # column test leaves to the bands; the copies taken when each band was
    # fed hold its final codes
    x, _ = gridkernel._axes(POOL_CASE[1], width, height)
    live = np.count_nonzero(0.575 * np.cosh(x) >= 50.0)
    assert live == 153
    rows = max(1, block // live)
    tops = range(0, height, rows)
    assert len(bands) == len(tops)
    for top, band in zip(tops, bands):
        assert np.array_equal(band, expected[top:top + rows]), (block, top)


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
