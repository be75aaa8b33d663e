import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maskdet import kernels, model as model_module
from maskdet.kernels import (ConvParams, activate, add_scaled,
                             concat_channels, conv2d, conv_output_extent,
                             global_pool, linear, pool2d, sigmoid,
                             upsample_nearest)
from maskdet.model import (ModelConfig, build_model, init_reference_weights,
                           model_forward)
from maskdet.oracles import naive_conv2d, naive_pool2d, naive_upsample
from maskdet.selftest import random_conv_case


def rand(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)


# ---------------------------------------------------------------- conv2d

def test_conv_1x1_identity_over_channels():
    x = rand((1, 3, 5, 5), seed=1)
    kernel = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
    out = conv2d(x, ConvParams(kernel, np.zeros(3, dtype=np.float32)))
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_conv_constant_input_all_ones_kernel():
    c, v = 4, 0.7
    x = np.full((1, c, 6, 6), v, dtype=np.float32)
    kernel = np.ones((1, c, 3, 3), dtype=np.float32)
    out = conv2d(x, ConvParams(kernel))
    np.testing.assert_allclose(out, 9 * c * v, rtol=1e-6)
    assert out.shape == (1, 1, 4, 4)


NAIVE_CASES = [
    ((1, 3, 5, 5), (2, 3, 3, 3), (2, 2), (1, 1), 1),   # spec example geometry
    ((1, 1, 4, 4), (1, 1, 1, 1), (1, 1), (0, 0), 1),
    ((2, 4, 6, 7), (3, 4, 3, 2), (1, 2), (0, 1), 1),
    ((1, 6, 8, 8), (6, 1, 3, 3), (1, 1), (1, 1), 6),   # depthwise
    ((1, 4, 5, 5), (4, 1, 3, 3), (2, 2), (1, 1), 4),   # strided depthwise
    ((1, 4, 6, 6), (6, 2, 3, 3), (1, 1), (1, 1), 2),   # grouped, general
    ((1, 2, 7, 6), (5, 2, 2, 3), (3, 2), (2, 0), 1),
    ((2, 4, 6, 6), (6, 2, 3, 3), (1, 1), (1, 1), 2),   # batch 2, grouped
    ((2, 5, 7, 6), (5, 1, 3, 3), (2, 2), (1, 1), 5),   # batch 2, strided dw
    ((1, 3, 5, 5), (6, 1, 3, 3), (2, 2), (1, 1), 3),   # dw, multiplier 2
    ((1, 6, 4, 4), (9, 2, 1, 1), (1, 1), (0, 0), 3),   # grouped 1x1
]


def assert_conv_matches_naive(shape, kshape, stride, padding, groups):
    x = rand(shape, seed=hash((shape, kshape)) % 2**32)
    kernel = rand(kshape, seed=5)
    bias = rand((kshape[0],), seed=6)
    got = conv2d(x, ConvParams(kernel, bias, stride=stride, padding=padding,
                               groups=groups))
    want = naive_conv2d(x.astype(np.float64), kernel.astype(np.float64),
                        bias.astype(np.float64), stride, padding, groups)
    assert np.abs(got - want).max() <= 1e-5


@pytest.mark.parametrize("shape,kshape,stride,padding,groups", NAIVE_CASES)
def test_conv_matches_naive_reference(shape, kshape, stride, padding, groups):
    assert_conv_matches_naive(shape, kshape, stride, padding, groups)


def test_conv_linearity():
    x = rand((1, 3, 6, 6), seed=2)
    y = rand((1, 3, 6, 6), seed=3)
    kernel = rand((4, 3, 3, 3), seed=4)
    params = ConvParams(kernel, padding=(1, 1))
    a, b = 1.7, -0.4
    lhs = conv2d((a * x + b * y).astype(np.float32), params)
    rhs = a * conv2d(x, params) + b * conv2d(y, params)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)


def test_conv_depthwise_ones_is_identity():
    x = rand((1, 5, 4, 4), seed=7)
    kernel = np.ones((5, 1, 1, 1), dtype=np.float32)
    out = conv2d(x, ConvParams(kernel, groups=5))
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_conv_zero_bias_default_and_bias_add():
    x = rand((1, 2, 3, 3), seed=8)
    kernel = rand((2, 2, 1, 1), seed=9)
    bias = np.array([1.0, -2.0], dtype=np.float32)
    plain = conv2d(x, ConvParams(kernel))
    biased = conv2d(x, ConvParams(kernel, bias))
    np.testing.assert_allclose(biased, plain + bias[None, :, None, None],
                               rtol=1e-6, atol=1e-6)


def test_conv_channel_mismatch_names_dimension():
    x = rand((1, 3, 4, 4))
    with pytest.raises(ValueError, match="channels"):
        conv2d(x, ConvParams(rand((2, 4, 3, 3))))


def test_conv_groups_must_divide():
    x = rand((1, 3, 4, 4))
    with pytest.raises(ValueError, match="divisible by groups"):
        conv2d(x, ConvParams(rand((2, 1, 3, 3)), groups=2))
    with pytest.raises(ValueError, match="not divisible"):
        ConvParams(rand((3, 1, 3, 3)), groups=2)


def test_conv_kernel_does_not_fit():
    x = rand((1, 1, 2, 2))
    with pytest.raises(ValueError, match="does not fit"):
        conv2d(x, ConvParams(rand((1, 1, 3, 3))))


@pytest.mark.parametrize("kshape", [(0, 2, 3, 3), (2, 0, 3, 3),
                                    (2, 2, 0, 3), (2, 2, 3, 0)])
def test_conv_params_reject_zero_kernel_extent(kshape):
    with pytest.raises(ValueError, match=re.escape(
            f"kernel extents must be positive, got shape {kshape}")):
        ConvParams(np.zeros(kshape, dtype=np.float32))


@pytest.mark.parametrize("extent,kernel,stride,pad", [
    (h, k, s, p) for h in (4, 7, 9) for k in (1, 2, 3) for s in (1, 2, 3)
    for p in (0, 1, 2)
])
def test_conv_output_shape_formula(extent, kernel, stride, pad):
    expected = conv_output_extent(extent, kernel, stride, pad)
    if expected < 1:
        return
    x = rand((1, 1, extent, extent), seed=extent)
    out = conv2d(x, ConvParams(rand((1, 1, kernel, kernel)), stride=stride,
                               padding=pad))
    assert out.shape == (1, 1, expected, expected)


def test_conv_finite_on_finite_inputs():
    x = rand((1, 4, 8, 8), seed=10, scale=100.0)
    out = conv2d(x, ConvParams(rand((4, 4, 3, 3), seed=11, scale=100.0),
                               padding=(1, 1)))
    assert np.isfinite(out).all()


# ------------------------------------------------ banded conv2d lowering

TINY_BANDS = 256       # bytes: every call below runs one output row per band
ONE_BAND = 1 << 62     # bytes: every call runs as a single band


def conv_with_budget(x, params, band_bytes):
    with mock.patch.object(kernels, "BAND_BYTES", band_bytes):
        return conv2d(x, params)


@pytest.fixture(scope="module")
def reference_conv_calls():
    """One (input, params) pair per distinct conv2d call of a 640 forward
    pass of the reference model."""
    config = ModelConfig()
    model = build_model(config, init_reference_weights(config, seed=3))
    calls = {}

    def record(x, params):
        key = (x.shape, params.kernel.shape, params.stride, params.padding,
               params.groups)
        calls.setdefault(key, (x, params))
        return conv2d(x, params)

    with mock.patch.object(model_module, "conv2d", record):
        model_forward(model, rand((1, 3, 640, 640), seed=21, scale=50.0))
    return list(calls.values())


def test_conv_bands_match_one_band_on_reference_layers(reference_conv_calls):
    assert len(reference_conv_calls) >= 20
    for x, params in reference_conv_calls:
        one = conv_with_budget(x, params, ONE_BAND)
        assert np.array_equal(conv_with_budget(x, params, TINY_BANDS), one)


ODD_BAND_CASES = [
    ((1, 4, 10, 9), (3, 4, 3, 3), 1, 1, 1, 3),         # bands 3, 3, 3, 1
    ((1, 5, 13, 11), (5, 1, 3, 3), 2, 1, 5, 2),        # stride 2, odd height
    ((1, 3, 15, 12), (4, 3, 7, 7), 1, 3, 1, 2),        # padding spans bands
    ((1, 6, 9, 7), (9, 2, 3, 3), (2, 1), 1, 3, 2),     # grouped
    ((2, 4, 11, 8), (6, 4, 3, 3), 2, 1, 1, 4),         # batch 2
    ((1, 3, 5, 6), (2, 3, 1, 1), 1, 2, 1, 2),          # rows of zeros only
]


def odd_band_case(shape, kshape, stride, padding, groups):
    x = rand(shape, seed=31)
    params = ConvParams(rand(kshape, seed=32), rand((kshape[0],), seed=33),
                        stride=stride, padding=padding, groups=groups)
    return x, params


@pytest.mark.parametrize("shape,kshape,stride,padding,groups,rows",
                         ODD_BAND_CASES)
def test_conv_bands_match_one_band(shape, kshape, stride, padding, groups,
                                   rows):
    x, params = odd_band_case(shape, kshape, stride, padding, groups)
    one = conv_with_budget(x, params, ONE_BAND)
    out_h, out_w = one.shape[2:]
    assert out_h % rows != 0      # the last band is shorter than the rest
    # float64 column tile plus float64 accumulator per output row
    row_bytes = 8 * shape[0] * out_w * (shape[1] * kshape[2] * kshape[3]
                                        + kshape[0])
    for band_bytes in (TINY_BANDS, rows * row_bytes, (rows + 1) * row_bytes - 1):
        assert np.array_equal(conv_with_budget(x, params, band_bytes), one)


def test_conv_empty_batch():
    x = np.zeros((0, 4, 9, 7), dtype=np.float32)
    params = ConvParams(rand((6, 2, 3, 3)), rand((6,)), stride=2, padding=1,
                        groups=2)
    for band_bytes in (TINY_BANDS, ONE_BAND):
        out = conv_with_budget(x, params, band_bytes)
        assert out.shape == (0, 6, 5, 4) and out.dtype == np.float32


@pytest.mark.parametrize("shape,kshape,stride,padding,groups", NAIVE_CASES)
def test_conv_matches_naive_reference_in_tiny_bands(shape, kshape, stride,
                                                    padding, groups):
    with mock.patch.object(kernels, "BAND_BYTES", TINY_BANDS):
        assert_conv_matches_naive(shape, kshape, stride, padding, groups)


BOUNDED_LAYERS = [
    ((1, 16, 320, 320), (16, 1, 3, 3), 2, 16),     # backbone.stage2.dw
    ((1, 64, 80, 80), (64, 64, 3, 3), 1, 1),       # fpn.smooth0
]


def conv_peak_bytes(shape, kshape, stride, groups):
    # a single-band float64 im2col of either layer alone takes 29.5 MB
    x = rand(shape, seed=41)
    params = ConvParams(rand(kshape, seed=42), rand((kshape[0],), seed=43),
                        stride=stride, padding=1, groups=groups)
    tracemalloc.start()
    try:
        conv2d(x, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape,kshape,stride,groups", BOUNDED_LAYERS)
def test_conv_working_memory_is_bounded(shape, kshape, stride, groups):
    assert conv_peak_bytes(shape, kshape, stride, groups) <= 12e6


@pytest.mark.parametrize("shape,kshape,stride,groups", BOUNDED_LAYERS)
def test_conv_working_memory_is_bounded_on_two_workers(shape, kshape, stride,
                                                       groups):
    # at most one band per worker is in flight, and each band fits BAND_BYTES
    with mock.patch.object(kernels, "_band_workers", lambda: 2):
        assert conv_peak_bytes(shape, kshape, stride, groups) <= 12e6


@pytest.mark.parametrize("shape,kshape,stride,groups", BOUNDED_LAYERS)
def test_conv_working_memory_is_bounded_on_four_workers(shape, kshape, stride,
                                                        groups):
    # one band per worker in flight: four bands of at most 2 MiB each
    with mock.patch.object(kernels, "_band_workers", lambda: 4):
        assert conv_peak_bytes(shape, kshape, stride, groups) <= 16e6


# ------------------------------------------------- conv2d bands on workers

DEFAULT_BANDS = kernels.BAND_BYTES
WIDE_BANDS = 4 << 20   # bytes: twice the default, so fewer and taller bands


def conv_on_workers(x, params, band_bytes, workers):
    with mock.patch.object(kernels, "_band_workers", lambda: workers):
        return conv_with_budget(x, params, band_bytes)


def test_band_geometry_does_not_depend_on_the_worker_count(
        reference_conv_calls):
    # bands may run on helpers, so each call's band tops are compared sorted
    real_band_rows = kernels._band_rows
    tops = []

    def record_top(x, top, count, pad_w):
        tops.append(top)
        return real_band_rows(x, top, count, pad_w)

    splits = {}
    with mock.patch.object(kernels, "_band_rows", record_top):
        for workers in (1, 2, 3, 8):
            splits[workers] = []
            for x, params in reference_conv_calls:
                tops.clear()
                conv_on_workers(x, params, DEFAULT_BANDS, workers)
                splits[workers].append(sorted(tops))
    assert any(len(split) > 1 for split in splits[1])
    assert splits[2] == splits[1]
    assert splits[3] == splits[1]
    assert splits[8] == splits[1]


@pytest.mark.parametrize("band_bytes", [TINY_BANDS, DEFAULT_BANDS,
                                        WIDE_BANDS])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pooled_conv_matches_serial_on_reference_layers(reference_conv_calls,
                                                        workers, band_bytes):
    for x, params in reference_conv_calls:
        serial = conv_on_workers(x, params, band_bytes, 1)
        assert np.array_equal(conv_on_workers(x, params, band_bytes, workers),
                              serial)


@pytest.mark.parametrize("band_bytes", [TINY_BANDS, DEFAULT_BANDS,
                                        WIDE_BANDS])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("shape,kshape,stride,padding,groups,rows",
                         ODD_BAND_CASES)
def test_pooled_conv_matches_serial(shape, kshape, stride, padding, groups,
                                    rows, workers, band_bytes):
    x, params = odd_band_case(shape, kshape, stride, padding, groups)
    serial = conv_on_workers(x, params, ONE_BAND, 1)
    assert np.array_equal(conv_on_workers(x, params, band_bytes, workers),
                          serial)
    if workers > 1 and band_bytes == TINY_BANDS:
        assert kernels._pool[:2] == (os.getpid(), workers - 1)


def test_pooled_conv_error_reaches_caller_after_every_band_stops():
    x, params = odd_band_case(*ODD_BAND_CASES[0][:5])
    serial = conv_on_workers(x, params, ONE_BAND, 1)
    real_band_rows = kernels._band_rows
    lock = threading.Lock()
    calls, in_band = [], []

    def third_band_fails(*args):
        with lock:
            calls.append(args)
            index = len(calls) - 1
            in_band.append(index)
        try:
            time.sleep(0.02)
            if index == 2:
                raise RuntimeError("band 3 failed")
            return real_band_rows(*args)
        finally:
            with lock:
                in_band.remove(index)

    with mock.patch.object(kernels, "_band_rows", third_band_fails):
        with pytest.raises(RuntimeError, match="band 3 failed"):
            conv_on_workers(x, params, TINY_BANDS, 3)
        assert in_band == []
        claimed = len(calls)
        time.sleep(0.1)
        assert len(calls) == claimed        # no band starts any more
    assert np.array_equal(conv_on_workers(x, params, TINY_BANDS, 3), serial)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pooled_conv_runs_every_band_exactly_once(workers):
    # a band run both by a helper and by the caller would still give the
    # right output, so count the bands' input rows instead
    x, params = odd_band_case(*ODD_BAND_CASES[0][:5])
    real_band_rows = kernels._band_rows
    tops = []

    def record_top(x, top, count, pad_w):
        tops.append(top)
        return real_band_rows(x, top, count, pad_w)

    with mock.patch.object(kernels, "_band_rows", record_top):
        for _ in range(50):
            tops.clear()
            conv_on_workers(x, params, TINY_BANDS, workers)
            assert sorted(tops) == list(range(-1, 9))


def test_pooled_conv_from_many_threads_at_once():
    # four callers share one pool of three helpers on more workers than
    # CPUs, switching threads as often as the interpreter allows; the band
    # budget is patched once, here, since patches entered and left on
    # several threads at once can restore one another's value
    cases = [odd_band_case(*case[:5]) for case in ODD_BAND_CASES[:4]]
    serial = [conv_on_workers(x, params, ONE_BAND, 1) for x, params in cases]
    results = [[] for _ in cases]

    def call(i):
        x, params = cases[i]
        for _ in range(20):
            results[i].append(conv2d(x, params))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(kernels, "_band_workers", lambda: 4), \
                mock.patch.object(kernels, "BAND_BYTES", TINY_BANDS):
            callers = [threading.Thread(target=call, args=(i,))
                       for i in range(len(cases))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for got, want in zip(results, serial):
        assert len(got) == 20
        assert all(np.array_equal(out, want) for out in got)


def test_blas_thread_probe_reads_the_environment():
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    read = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", "from maskdet import kernels; "
             "print(kernels._blas_threads())"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        read.append(out.stdout.strip())
    if read == ["None", "None"]:
        pytest.skip("numpy does not bundle OpenBLAS here")
    assert read == ["1", "2"]


def _pooled_conv_into(queue, x, params):
    queue.put(conv_on_workers(x, params, TINY_BANDS, 2))


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded"
                            ":DeprecationWarning")
def test_pooled_conv_runs_in_a_forked_child():
    x, params = odd_band_case(*ODD_BAND_CASES[1][:5])
    serial = conv_on_workers(x, params, ONE_BAND, 1)
    # the parent's pool now has a helper thread, which a forked child lacks
    assert np.array_equal(conv_on_workers(x, params, TINY_BANDS, 2), serial)
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_pooled_conv_into, args=(queue, x, params))
    child.start()
    try:
        got = queue.get(timeout=60)
        child.join(timeout=10)
        assert not child.is_alive()
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert np.array_equal(got, serial)


def test_pooled_conv_called_on_a_helper_thread():
    # a conv2d running on the only helper offers it a band loop, which must
    # not wait behind the call that the helper is running
    x, params = odd_band_case(*ODD_BAND_CASES[0][:5])
    serial = conv_on_workers(x, params, ONE_BAND, 1)
    with mock.patch.object(kernels, "_band_workers", lambda: 2):
        with mock.patch.object(kernels, "BAND_BYTES", TINY_BANDS):
            future = kernels._helper_pool(1).submit(conv2d, x, params)
            got = future.result(timeout=10)
    assert np.array_equal(got, serial)


# ------------------------------------------------------------ side_by_side

def side_by_side_on(workers, *calls):
    with mock.patch.object(kernels, "_band_workers", lambda: workers):
        return kernels.side_by_side(*calls)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_side_by_side_returns_results_in_call_order(workers):
    def call(i, delay):
        def run():
            time.sleep(delay)
            return i
        return run

    # the first call is the slowest, so helpers start the others
    calls = [call(i, delay) for i, delay in enumerate((0.05, 0.02, 0, 0.01))]
    assert side_by_side_on(workers, *calls) == [0, 1, 2, 3]
    assert side_by_side_on(workers) == []
    assert side_by_side_on(workers, calls[3]) == [3]


def test_side_by_side_runs_in_order_on_the_caller_with_one_worker():
    ran = []

    def call(i):
        def run():
            ran.append((i, threading.get_ident()))
            return i
        return run

    assert side_by_side_on(1, call(0), call(1), call(2)) == [0, 1, 2]
    assert ran == [(i, threading.get_ident()) for i in range(3)]


@pytest.mark.parametrize("failing", [0, 1])
def test_side_by_side_error_reaches_caller_after_the_other_call_stops(failing):
    other_started = threading.Event()
    other_done = []

    def fails():
        other_started.wait(timeout=10)
        raise RuntimeError("call failed")

    def other():
        other_started.set()
        time.sleep(0.05)
        other_done.append(True)

    calls = (fails, other) if failing == 0 else (other, fails)
    with pytest.raises(RuntimeError, match="call failed"):
        side_by_side_on(2, *calls)
    assert other_done == [True]


def test_side_by_side_runs_no_call_after_an_error():
    # one helper: it runs the second call while the first fails, so the
    # third is never started, and it stays cancelled
    lock = threading.Lock()
    started, running = [], []
    second_started = threading.Event()

    def call(i):
        def run():
            with lock:
                started.append(i)
                running.append(i)
            try:
                if i == 0:
                    second_started.wait(timeout=10)
                    raise RuntimeError("first call failed")
                second_started.set()
                time.sleep(0.05)
            finally:
                with lock:
                    running.remove(i)
        return run

    with pytest.raises(RuntimeError, match="first call failed"):
        side_by_side_on(2, call(0), call(1), call(2))
    assert running == []
    time.sleep(0.1)
    assert sorted(started) == [0, 1]


@pytest.fixture(scope="module")
def reference_model_and_image():
    config = ModelConfig()
    model = build_model(config, init_reference_weights(config, seed=3))
    return model, rand((1, 3, 640, 640), seed=22, scale=50.0)


@pytest.mark.parametrize("workers", [2, 3])
def test_heads_side_by_side_match_heads_in_turn(reference_model_and_image,
                                                workers):
    # with 3 workers the heads take one helper and conv2d's bands the other
    model, image = reference_model_and_image
    with mock.patch.object(kernels, "_band_workers", lambda: 1):
        want = model_forward(model, image)
    real_head = model_module.context_attention_forward
    head_started = [threading.Event() for _ in range(3)]
    head_threads = {}

    def head(model, feature, level):
        head_threads[level] = threading.current_thread()
        head_started[level].set()
        if level == 0:       # head 1 must start on a helper meanwhile
            assert head_started[1].wait(timeout=10)
        return real_head(model, feature, level)

    with mock.patch.object(model_module, "context_attention_forward", head):
        with mock.patch.object(kernels, "_band_workers", lambda: workers):
            got = model_forward(model, image)
    assert head_threads[0] is threading.current_thread()
    assert head_threads[1] is head_threads[2] is not head_threads[0]
    assert np.array_equal(got.loc, want.loc)
    assert np.array_equal(got.cls, want.cls)


# ---------------------------------------------------------------- pooling

def test_pool_max_2x2_fixture():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
    out = pool2d(x, "max", (2, 2), (2, 2))
    np.testing.assert_array_equal(out, [[[[4.0]]]])


def test_pool_avg_full_window_is_global_mean():
    x = rand((1, 3, 4, 5), seed=12)
    out = pool2d(x, "avg", (4, 5), (1, 1))
    np.testing.assert_allclose(out[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-6)


def test_pool_constant_input_both_modes():
    x = np.full((1, 2, 5, 5), 3.25, dtype=np.float32)
    for mode in ("max", "avg"):
        out = pool2d(x, mode, (2, 2), (1, 1))
        np.testing.assert_allclose(out, 3.25, rtol=1e-7)


def test_pool_window_larger_than_input():
    with pytest.raises(ValueError, match="larger than input"):
        pool2d(rand((1, 1, 2, 2)), "max", (3, 3), (1, 1))


@pytest.mark.parametrize("window,stride,name,value", [
    (2, -1, "stride", (-1, -1)),
    (2, 0, "stride", (0, 0)),
    (2, (1, -2), "stride", (1, -2)),
    (0, 1, "window", (0, 0)),
    ((2, 0), 1, "window", (2, 0)),
])
def test_pool_rejects_non_positive_window_and_stride(window, stride, name, value):
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} must be positive, got {value}")):
        pool2d(rand((1, 1, 4, 4)), "avg", window, stride)


def test_pool_bad_mode():
    with pytest.raises(ValueError, match="mode"):
        pool2d(rand((1, 1, 4, 4)), "median", (2, 2), (1, 1))


@pytest.mark.parametrize("mode", ["max", "avg"])
@pytest.mark.parametrize("window,stride", [((2, 2), (2, 2)), ((3, 2), (1, 2)),
                                           ((1, 1), (2, 1))])
def test_pool_matches_naive_reference(mode, window, stride):
    x = rand((2, 3, 7, 6), seed=13)
    got = pool2d(x, mode, window, stride)
    want = naive_pool2d(x.astype(np.float64), mode, window, stride)
    assert np.abs(got - want).max() <= 1e-5


def test_global_pool_constant_channel():
    x = np.full((1, 2, 3, 3), 7.0, dtype=np.float32)
    for mode in ("max", "avg"):
        np.testing.assert_array_equal(global_pool(x, mode),
                                      np.full((1, 2, 1, 1), 7.0))


def test_global_pool_hand_values():
    x = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 1, 1, 4)
    assert global_pool(x, "max")[0, 0, 0, 0] == 4.0
    assert global_pool(x, "avg")[0, 0, 0, 0] == 2.5


def test_global_pool_agrees_with_full_window_pool():
    x = rand((1, 4, 5, 6), seed=14)
    for mode in ("max", "avg"):
        np.testing.assert_allclose(global_pool(x, mode),
                                   pool2d(x, mode, (5, 6), (1, 1)), atol=1e-6)


# ------------------------------------------------------------- activations

def test_relu_fixture():
    x = np.array([-1.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 2)
    np.testing.assert_array_equal(activate(x, "relu").ravel(), [0.0, 2.0])


def test_sigmoid_at_zero():
    assert activate(np.zeros((1, 1, 1, 1), dtype=np.float32), "sigmoid")[0, 0, 0, 0] == 0.5


@given(st.floats(min_value=-60.0, max_value=60.0, allow_nan=False))
def test_sigmoid_odd_symmetry(x):
    s = sigmoid(np.array([x, -x]))
    assert abs(float(s[0]) + float(s[1]) - 1.0) <= 1e-6


def test_sigmoid_finite_for_extreme_inputs():
    x = np.array([-1e6, -100.0, 0.0, 100.0, 1e6], dtype=np.float32)
    s = sigmoid(x)
    assert np.isfinite(s).all()
    assert s[0] == 0.0 and s[-1] == 1.0


def test_sigmoid_equals_per_branch_formula():
    """exp(-|x|) serves both branches: each value is the float64 formula of
    its sign's branch, rounded to float32 (NaN stays NaN)."""
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e3, -1e3, 745.2, -745.2]
    x64 = np.concatenate([special, rand((3996,), seed=5, scale=30.0)])
    for x in (x64, x64.astype(np.float32), x64.reshape(1, -1, 3, 3)):
        v = x.astype(np.float64)
        want = np.empty_like(v)
        pos = v >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        neg = np.exp(v[~pos])
        want[~pos] = neg / (1.0 + neg)
        got = sigmoid(x)
        assert got.dtype == np.float32 and got.shape == x.shape
        np.testing.assert_array_equal(got, want.astype(np.float32))


def test_activate_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        activate(rand((1, 1, 1, 1)), "tanh")


# ------------------------------------------------------------- row softmax

def softmax_by_reductions(logits):
    """Softmax and log softmax by numpy's max and sum over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=-1, keepdims=True),
            z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))


def assert_same_bits(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


LOGIT_EXTREMES = (0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, np.nan)


@settings(max_examples=300, deadline=None)
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
       width=st.sampled_from([3, 1, 2, 4, 5, 6, 7]), float32=st.booleans(),
       data=st.data())
def test_row_softmax_matches_axis_reductions(lead, width, float32, data):
    # (n, 3) is every caller's shape, 1-D vectors are cross_entropy's; numpy
    # sums up to seven values left to right, as the column-wise form does
    values = st.one_of(st.floats(-60, 60), st.sampled_from(LOGIT_EXTREMES),
                       st.floats())
    logits = data.draw(hnp.arrays(np.float64, lead + (width,), elements=values))
    with np.errstate(all="ignore"):
        if float32:
            logits = logits.astype(np.float32)
        want_p, want_log = softmax_by_reductions(logits)
        assert_same_bits(kernels.softmax_rows(logits), want_p)
        assert_same_bits(kernels.log_softmax(logits), want_log)


# --------------------------------------------------------------- upsample

def test_upsample_factor_one_is_identity():
    x = rand((1, 2, 3, 3), seed=15)
    np.testing.assert_array_equal(upsample_nearest(x, 1), x)


def test_upsample_replicates_blocks():
    x = np.array([[[[5.0]]]], dtype=np.float32)
    np.testing.assert_array_equal(upsample_nearest(x, 2),
                                  np.full((1, 1, 2, 2), 5.0))


def test_upsample_strided_sampling_left_inverse():
    x = rand((2, 3, 4, 5), seed=16)
    for f in (2, 3):
        up = upsample_nearest(x, f)
        np.testing.assert_array_equal(up[:, :, ::f, ::f], x)
        np.testing.assert_array_equal(up, naive_upsample(x, f))


def test_upsample_bad_factor():
    with pytest.raises(ValueError, match="factor"):
        upsample_nearest(rand((1, 1, 2, 2)), 0)


# -------------------------------------------------------------- add_scaled

def test_add_scaled_coeff_zero_annihilates():
    a, b = rand((1, 1, 2, 2), seed=17), rand((1, 1, 2, 2), seed=18)
    np.testing.assert_array_equal(add_scaled(a, b, 0.0), a)


def test_add_scaled_doubling():
    a = rand((1, 2, 2, 2), seed=19)
    np.testing.assert_allclose(add_scaled(a, a, 1.0), 2 * a, rtol=1e-7)


def test_add_scaled_hand_case():
    a = np.array([1.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 2)
    b = np.array([10.0, 20.0], dtype=np.float32).reshape(1, 1, 1, 2)
    np.testing.assert_array_equal(add_scaled(a, b, 0.5).ravel(), [6.0, 12.0])


def test_add_scaled_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        add_scaled(rand((1, 1, 2, 2)), rand((1, 1, 2, 3)), 1.0)


# ---------------------------------------------------------------- concat

def test_concat_single_input_identity():
    x = rand((1, 3, 2, 2), seed=20)
    np.testing.assert_array_equal(concat_channels([x]), x)


def test_concat_shapes_and_order():
    a = rand((1, 2, 4, 4), seed=21)
    b = rand((1, 3, 4, 4), seed=22)
    out = concat_channels([a, b])
    assert out.shape == (1, 5, 4, 4)
    np.testing.assert_array_equal(out[:, :2], a)
    np.testing.assert_array_equal(out[:, 2:], b)


def test_concat_slice_back_round_trip():
    rng = np.random.default_rng(23)
    parts = [rng.standard_normal((2, c, 3, 3)).astype(np.float32)
             for c in (1, 4, 2)]
    out = concat_channels(parts)
    start = 0
    for part in parts:
        np.testing.assert_array_equal(out[:, start:start + part.shape[1]], part)
        start += part.shape[1]


def test_concat_spatial_mismatch():
    with pytest.raises(ValueError, match="spatial mismatch"):
        concat_channels([rand((1, 1, 2, 2)), rand((1, 1, 3, 2))])


def test_concat_empty_list():
    with pytest.raises(ValueError, match="at least one"):
        concat_channels([])


# ---------------------------------------------------------------- linear

def test_linear_identity():
    x = np.array([3.0, -1.0], dtype=np.float32)
    out = linear(x, np.eye(2, dtype=np.float32), np.zeros(2, dtype=np.float32))
    np.testing.assert_array_equal(out, x)


def test_linear_zero_weights_gives_bias():
    bias = np.array([0.5, -0.5, 2.0], dtype=np.float32)
    out = linear(np.array([1.0, 2.0], dtype=np.float32),
                 np.zeros((2, 3), dtype=np.float32), bias)
    np.testing.assert_array_equal(out, bias)


def test_linear_hand_case():
    out = linear(np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 2.0]]),
                 np.array([0.0, 1.0]))
    np.testing.assert_array_equal(out, [1.0, 5.0])
    rows = linear(np.array([[1.0, 2.0], [-1.0, 0.5]]),
                  np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0.0, 1.0]))
    np.testing.assert_array_equal(rows, [[1.0, 5.0], [-1.0, 2.0]])


def test_linear_dimension_mismatch():
    with pytest.raises(ValueError, match="weight shape"):
        linear(np.ones(3), np.ones((2, 2)), np.ones(2))
    with pytest.raises(ValueError, match="bias shape"):
        linear(np.ones(2), np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError, match="1-D or 2-D"):
        linear(np.ones((1, 1, 2)), np.ones((2, 2)), np.ones(2))


# ----------------------------------------------- randomized oracle sweep

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_conv_random_small_tensors_vs_naive(seed):
    rng = np.random.default_rng(seed)
    x, params, want = random_conv_case(rng, bool(rng.integers(0, 2)))
    got = conv2d(x, params)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_conv_random_small_tensors_vs_naive_in_tiny_bands(seed):
    rng = np.random.default_rng(seed)
    x, params, want = random_conv_case(rng, bool(rng.integers(0, 2)))
    got = conv_with_budget(x, params, TINY_BANDS)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-5
