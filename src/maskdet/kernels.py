"""Dense NCHW tensor kernels.

Every architecture block in this package is composed from the forward-only
kernels in this module.  A "tensor" is a plain ``numpy.ndarray`` with four
axes in (batch, channels, height, width) order, stored as 32-bit floats and
row-major over those axes.  Kernels may accumulate in 64-bit internally but
always return float32; given finite inputs they produce finite outputs.
The row-wise softmax helpers work on logit arrays of any shape and return
float64.

Convolution here is cross-correlation (no kernel flip), padding is always
zero-padding, and there is no autodiff: the network is inference-only.
All functions are pure and safe to call from multiple threads.

Work is shared with the process's helper threads by one rule,
:func:`side_by_side`: a caller offers calls to the helpers, runs the first
call itself, then takes back and runs every offered call that no helper has
started, and waits only for the calls that a helper is already running.
``conv2d`` shares its bands this way, and the model runs detection heads
side by side this way.  No thread ever waits for a call still queued for a
helper, only for one that a helper is running, and that call in turn waits
only for calls that it offered itself.  So calls nested inside offered
calls cannot deadlock on the helpers, even when a helper thread makes them
while every helper is busy.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

Tensor = np.ndarray


def _as_pair(value, name: str) -> tuple[int, int]:
    if isinstance(value, (int, np.integer)):
        value = (int(value), int(value))
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be an int or a pair, got {value!r}")
    return pair


def _require_nchw(x: np.ndarray, name: str = "input") -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ValueError(f"{name} must be a 4-D (n, c, h, w) array, got "
                         f"{getattr(x, 'shape', type(x))}")


@dataclass
class ConvParams:
    """Parameters of a 2-D convolution.

    ``kernel`` has shape (out_channels, in_channels // groups, kh, kw).
    ``groups == 1`` is a standard convolution; ``groups == in_channels ==
    out_channels`` is a depthwise convolution.  ``stride`` and ``padding``
    accept an int or an (h, w) pair.
    """

    kernel: np.ndarray
    bias: np.ndarray | None = None
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    groups: int = 1

    def __post_init__(self):
        if self.kernel.ndim != 4:
            raise ValueError(f"kernel must be 4-D (out_c, in_c/groups, kh, kw), "
                             f"got shape {self.kernel.shape}")
        if 0 in self.kernel.shape:
            raise ValueError(f"kernel extents must be positive, got shape "
                             f"{self.kernel.shape}")
        self.stride = _as_pair(self.stride, "stride")
        self.padding = _as_pair(self.padding, "padding")
        if self.stride[0] < 1 or self.stride[1] < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if self.padding[0] < 0 or self.padding[1] < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")
        if self.groups < 1:
            raise ValueError(f"groups must be positive, got {self.groups}")
        out_c = self.kernel.shape[0]
        if out_c % self.groups != 0:
            raise ValueError(f"out_channels {out_c} not divisible by "
                             f"groups {self.groups}")
        if self.bias is not None and self.bias.shape != (out_c,):
            raise ValueError(f"bias must have shape ({out_c},), got "
                             f"{self.bias.shape}")


def conv_output_extent(extent: int, kernel: int, stride: int, pad: int) -> int:
    """Output extent of a convolution along one spatial axis."""
    return (extent + 2 * pad - kernel) // stride + 1


# Bytes that the bands of one conv2d call in flight together may use for
# their float64 column tiles plus their float64 accumulators.
BAND_BYTES = 4 << 20


def _band_rows(x: np.ndarray, top: int, count: int, pad_w: int) -> np.ndarray:
    """Rows ``top .. top + count - 1`` of ``x`` with ``pad_w`` zero columns on
    each side, in ``x``'s dtype; rows outside ``x`` read as zeros.  A view of
    ``x`` when no zero is needed."""
    n, c, h, w = x.shape
    lo = max(top, 0)
    hi = max(lo, min(top + count, h))
    if lo == top and hi == top + count and pad_w == 0:
        return x[:, :, lo:hi]
    out = np.zeros((n, c, count, w + 2 * pad_w), dtype=x.dtype)
    out[:, :, lo - top:hi - top, pad_w:pad_w + w] = x[:, :, lo:hi]
    return out


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """The read-only ``(n, c, h', w', kh, kw)`` view of every ``kh`` x ``kw``
    window of the padded input ``x`` at strides ``(sh, sw)``; the caller
    checks that one window fits."""
    n, c, h, w = x.shape
    s_n, s_c, s_h, s_w = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, c, (h - kh) // sh + 1, (w - kw) // sw + 1, kh, kw),
        (s_n, s_c, s_h * sh, s_w * sw, s_h, s_w), writeable=False)


@functools.cache
def _blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded runs a matmul on, or None when
    no such library is found.  numpy's wheels keep it in ``numpy.libs``;
    opening it again returns the copy already loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if "openblas" in f)
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        # numpy 2 wheels, then numpy 1 wheels
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def _band_workers() -> int:
    """Threads that share one conv2d call's bands, the caller included: every
    CPU this process may use when BLAS runs one thread, else 1, because BLAS
    threads would already fill the CPUs."""
    if _blas_threads() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_pool = None           # (pid, threads, executor), made on first use
_pool_lock = threading.Lock()


def _helper_pool(threads: int):
    """The process's executor of ``threads`` conv2d helper threads.  It is
    made on first use, and made again in a forked child, which inherits the
    parent's executor but none of its threads."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[:2] != (os.getpid(), threads):
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), threads,
                     ThreadPoolExecutor(threads, thread_name_prefix="conv2d"))
        return _pool[2]


def side_by_side(*calls) -> list:
    """Run the argument-less ``calls`` and return their results in call order.

    When conv2d's bands have more than one worker, every call but the first
    is offered to the helper pool.  The caller runs the first call, then
    each offered call that no helper has started: it cancels that offer and
    runs the call itself.  Last, it waits for the calls that helpers are
    running.  When a call raises, every offer that no helper has started is
    cancelled and never runs, and the error reaches the caller only after
    every started call has stopped.  With one worker the calls run in order
    on the caller.
    """
    workers = _band_workers()
    if workers == 1 or len(calls) < 2:
        return [call() for call in calls]
    pool = _helper_pool(workers - 1)
    futures = [pool.submit(call) for call in calls[1:]]
    results = [None] * len(calls)
    try:
        results[0] = calls[0]()
        for i, future in enumerate(futures, start=1):
            if future.cancel():
                results[i] = calls[i]()
    finally:
        # cancel every offer before waiting, so that none starts meanwhile
        started = [future for future in futures if not future.cancel()]
        for future in started:
            future.exception()         # waits: no call outlives this one
    for i, future in enumerate(futures, start=1):
        if not future.cancelled():
            results[i] = future.result()
    return results


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """2-D cross-correlation of an NCHW tensor with a weight kernel.

    Output extents follow h' = floor((h + 2*pad - kh) / stride) + 1 and must
    be at least 1.  Every group count takes the same lowering, run over
    bands of output rows.  A band has as many rows as fit its float64
    im2col tile plus its float64 accumulator in ``BAND_BYTES`` divided by
    the number of workers (at least one row).  For each band, only the
    input rows it reads are zero-padded, in the input's dtype (a band that
    needs no zero is a view of the input); their window view is written
    once, cast to float64, into the band's own per-group column tile; the
    tile is multiplied by the per-group kernel matrices in one batched
    matmul; and the bias is added to the accumulator before it is stored
    into the band's rows of one preallocated float32 output.

    Each band is one call, and the call hands them all to
    :func:`side_by_side`.  When BLAS runs one thread, the workers are the
    caller plus a helper thread for each further CPU this process may use,
    and an idle worker takes the next band that no one has started; at most
    one band per worker runs at a time, so at most ``workers`` tiles and
    accumulators exist at once.  Otherwise the caller runs every band in
    order.  The call returns or raises only once all its bands have stopped,
    and an error in any band reaches the caller.  Bands split only the
    columns of the matmul, but OpenBLAS's dgemm may sum in another order
    when a call's column count changes, and at narrow output widths band
    splits were measured to change float64 values in the last bits.  The
    float32 output rounds such a difference away except with a chance of
    about 2**-28 per value, so the output bytes matched across
    ``BAND_BYTES`` and worker counts in every measured case; that rests on
    float32 rounding, not on construction.
    """
    _require_nchw(x)
    n, c, h, w = x.shape
    out_c, in_c_per_group, kh, kw = params.kernel.shape
    g = params.groups
    if c % g != 0:
        raise ValueError(f"input channels {c} not divisible by groups {g}")
    if in_c_per_group != c // g:
        raise ValueError(f"kernel expects {in_c_per_group} channels per group "
                         f"but input provides {c // g} (in_channels={c}, "
                         f"groups={g})")
    sh, sw = params.stride
    ph, pw = params.padding
    out_h = conv_output_extent(h, kh, sh, ph)
    out_w = conv_output_extent(w, kw, sw, pw)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"kernel {kh}x{kw} with stride {params.stride} and "
                         f"padding {params.padding} does not fit input "
                         f"{h}x{w} (output would be {out_h}x{out_w})")

    # (g, og, cg*kh*kw) kernels times (n, g, cg*kh*kw, rows*w') im2col tiles
    cg, og = c // g, out_c // g
    taps = cg * kh * kw
    kernel = params.kernel.astype(np.float64).reshape(g, og, taps)
    bias = (None if params.bias is None
            else params.bias.astype(np.float64)[None, :, None, None])
    row_bytes = 8 * n * out_w * (g * taps + out_c)
    workers = _band_workers()
    band = min(out_h, max(1, BAND_BYTES // workers // max(row_bytes, 1)))
    out = np.empty((n, out_c, out_h, out_w), dtype=np.float32)

    def run_band(top):
        rows = min(band, out_h - top)
        win = _windows(_band_rows(x, top * sh - ph, (rows - 1) * sh + kh, pw),
                       kh, kw, sh, sw)
        tile = np.empty((n, g, cg, kh, kw, rows, out_w))
        tile[...] = (win.reshape(n, g, cg, rows, out_w, kh, kw)
                     .transpose(0, 1, 2, 5, 6, 3, 4))
        acc = np.matmul(kernel, tile.reshape(n, g, taps, rows * out_w))
        acc = acc.reshape(n, out_c, rows, out_w)
        if bias is not None:
            acc += bias
        out[:, :, top:top + rows] = acc

    side_by_side(*[functools.partial(run_band, top)
                   for top in range(0, out_h, band)])
    return out


def pool2d(x: Tensor, mode: str, window, stride) -> Tensor:
    """Max or average pooling with the conv2d output-extent formula (no padding)."""
    _require_nchw(x)
    if mode not in ("max", "avg"):
        raise ValueError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    wh, ww = _as_pair(window, "window")
    sh, sw = _as_pair(stride, "stride")
    if wh < 1 or ww < 1:
        raise ValueError(f"pool window must be positive, got {(wh, ww)}")
    if sh < 1 or sw < 1:
        raise ValueError(f"pool stride must be positive, got {(sh, sw)}")
    n, c, h, w = x.shape
    if wh > h or ww > w:
        raise ValueError(f"pool window {wh}x{ww} larger than input {h}x{w}")
    win = _windows(x, wh, ww, sh, sw)
    if mode == "max":
        out = win.max(axis=(4, 5))
    else:
        out = win.mean(axis=(4, 5), dtype=np.float64)
    return out.astype(np.float32)


def global_pool(x: Tensor, mode: str) -> Tensor:
    """Per-channel max or mean over all spatial positions; output (n, c, 1, 1)."""
    _require_nchw(x)
    if mode not in ("max", "avg"):
        raise ValueError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    n, c, h, w = x.shape
    if h < 1 or w < 1:
        raise ValueError(f"global_pool needs non-empty spatial extents, got {h}x{w}")
    if mode == "max":
        out = x.max(axis=(2, 3), keepdims=True)
    else:
        out = x.mean(axis=(2, 3), keepdims=True, dtype=np.float64)
    return out.astype(np.float32)


def activate(x: Tensor, kind: str) -> Tensor:
    """Elementwise relu or sigmoid; shape preserved."""
    if kind == "relu":
        return np.maximum(x, 0).astype(np.float32, copy=False)
    if kind == "sigmoid":
        return sigmoid(x)
    raise ValueError(f"activation kind must be 'relu' or 'sigmoid', got {kind!r}")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, float32 result.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise, in
    float64; exp(-|x|) is the exponential of both branches.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return (np.where(x >= 0, 1.0, e) / (1.0 + e)).astype(np.float32)


# The row helpers below reduce over the last axis one column at a time, with
# elementwise float64 ufuncs over all rows: numpy's max and sum over a short
# last axis cost far more per row.  The maximum is exact in any order.  The
# sum adds the columns left to right, which is the order of numpy's
# ``sum(axis=-1)`` for rows of up to seven values, so for those widths both
# give the same bits.

def _max_shifted(logits: np.ndarray) -> np.ndarray:
    """float64 logits minus their last-axis maximum, so exp cannot overflow."""
    z = np.asarray(logits, dtype=np.float64)
    top = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    return z - top[..., None]


def _row_sums(e: np.ndarray) -> np.ndarray:
    """Last-axis sums of ``e``, kept as a trailing axis of length 1."""
    total = e[..., 0].copy()
    for j in range(1, e.shape[-1]):
        total += e[..., j]
    return total[..., None]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, float64 result."""
    e = np.exp(_max_shifted(logits))
    return e / _row_sums(e)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log softmax over the last axis, float64 result."""
    z = _max_shifted(logits)
    return z - np.log(_row_sums(np.exp(z)))


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each spatial value into a factor x factor block."""
    _require_nchw(x)
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")
    if factor == 1:
        return x.astype(np.float32)
    out = np.repeat(np.repeat(x, factor, axis=2), factor, axis=3)
    return out.astype(np.float32)


def add_scaled(a: Tensor, b: Tensor, coeff: float) -> Tensor:
    """Elementwise a + coeff * b; shapes must match exactly."""
    if a.shape != b.shape:
        raise ValueError(f"add_scaled shape mismatch: {a.shape} vs {b.shape}")
    return (a.astype(np.float64) + float(coeff) * b.astype(np.float64)).astype(np.float32)


def concat_channels(inputs) -> Tensor:
    """Stack tensors along the channel axis in input order."""
    inputs = list(inputs)
    if not inputs:
        raise ValueError("concat_channels needs at least one input")
    first = inputs[0]
    _require_nchw(first)
    for i, t in enumerate(inputs[1:], start=1):
        _require_nchw(t, f"input {i}")
        if (t.shape[0], t.shape[2], t.shape[3]) != (first.shape[0], first.shape[2], first.shape[3]):
            raise ValueError(f"concat_channels spatial mismatch: input 0 has "
                             f"shape {first.shape}, input {i} has {t.shape}")
    return np.concatenate(inputs, axis=1, dtype=np.float32)


def linear(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map ``x @ weights + bias`` of a length-k vector or (m, k) rows.

    ``weights`` is a (k, j) matrix and ``bias`` a length-j vector.
    """
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise ValueError(f"linear expects a 1-D or 2-D input, got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[0] != x.shape[-1]:
        raise ValueError(f"linear weight shape {weights.shape} incompatible "
                         f"with input length {x.shape[-1]}")
    if bias.shape != (weights.shape[1],):
        raise ValueError(f"linear bias shape {bias.shape} incompatible with "
                         f"output length {weights.shape[1]}")
    out = x.astype(np.float64) @ weights.astype(np.float64) + bias.astype(np.float64)
    return out.astype(np.float32)
