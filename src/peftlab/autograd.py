"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array. An op with an operand that needs a gradient
records a node on its output Tensor: the gradient flowing into that output,
the graph vertices of those operands (their nodes, or the trainable leaves
themselves) and a backward closure. Calling ``backward()`` on a scalar (or
any tensor, with an explicit output gradient) walks the nodes in reverse
topological order and accumulates gradients into every leaf with
``requires_grad=True``.

The tape keeps only what backward reads. A node references no Tensor but
trainable leaves, so graph edges never pin an activation's array, and each
closure keeps only the arrays its own gradient formulas read, chosen when
the op is recorded from which operands need a gradient: matmul keeps ``a``
only if ``b`` needs a gradient and ``b`` only if ``a`` does; add, scale,
reshape, transpose, concat and split keep only shapes; layer_norm keeps the
normalised input, not the input; attention keeps no score-sized array, only
q, k, v, its output and two row statistics per head and query, and its
backward recomputes the exps group by group, bit for bit, so q, k and v must
not change between the forward and the backward. An activation is therefore
freed as soon as the forward code drops it, unless some backward reads it.
Because the choice is made at record time, changing ``requires_grad`` after
the forward can only remove gradients: a leaf frozen before ``backward()``
gets none, and a leaf that was frozen during the forward gets none either.

Backward computes only gradients that are kept: an op skips every operand
that needs no gradient, so frozen weights cost no weight-gradient work. Only
attention computes all three gradients, as models train q, k and v together,
and hands on each that is needed. A node or a leaf adopts the first gradient
array it is handed, and several may share one (``add(a, b)`` hands ``a`` and
``b`` the same array), so ``.grad`` arrays are read-only: no op mutates a
gradient in place, and accumulation always builds a new array. Only the
root's explicit output gradient is copied, because the caller keeps it. Each
node drops its gradient once its backward has run, so after ``backward()``
only leaves hold gradients (an output Tensor's own ``.grad`` stays None).

Every operand is a Tensor; ids and targets are plain integer arrays. Every op
takes optional leading batch axes, so one graph serves a whole mini-batch: a
single example is a batch with no leading axis. ``add`` broadcasts over
leading axes only, so one operand's shape must end the other's (a bias [N], a
position table [L, H]). Only the operations the encoder, adapter, and
convolutional heads need are provided, plus softmax and transpose, which no
model calls (they stay for the bench tracer and gradcheck).
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


BLOCK = 1 << 15  # elements per block: 256 KiB of float64, sized for L2
LAYER_NORM_EPS = 1e-12  # added to the variance, as in BERT


try:  # OpenBLAS's thread-count setter (0.3.27+) in the library numpy loaded
    with open("/proc/self/maps", encoding="utf-8") as _maps:
        _blas = next(line.split()[-1] for line in _maps if "openblas" in line)
    _set_blas_threads = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)(
        ("openblas_set_num_threads_local", ctypes.CDLL(_blas)))
except (OSError, StopIteration, AttributeError):  # another BLAS, not Linux
    _set_blas_threads = None


@contextmanager
def _one_blas_thread():
    """Run the block's BLAS calls on one thread, restoring the count after: the
    process's in numpy's pthreads OpenBLAS, the thread's under OpenMP."""
    prev = _set_blas_threads(1) if _set_blas_threads else 0
    try:
        yield
    finally:
        if prev:
            _set_blas_threads(prev)


def blockwise(kernel, arrays, outputs=0, scratch=0):
    """Run an elementwise ``kernel`` over matching blocks of same-size arrays.

    ``kernel(*arrays, *outs, *scratch)`` is called once per block of at most
    BLOCK elements, in flat order, with a view of each array, a view of each
    of the ``outputs`` result arrays to fill and ``scratch`` buffers of the
    block's length; it may also update its array views in place, and such
    an array must be C-contiguous. Arrays of one block or less (0-d ones
    aside, which numpy ops would turn into scalars) are passed whole with
    None for every output and scratch slot, so the kernel allocates them
    itself and a small array costs no extra numpy call; the kernel returns
    its outputs either way. Returns the outputs.
    """
    n = arrays[0].size
    if n <= BLOCK and arrays[0].ndim:
        return kernel(*arrays, *(None,) * (outputs + scratch))
    outs = [np.empty(arrays[0].shape) for _ in range(outputs)]
    bufs = [np.empty(min(n, BLOCK)) for _ in range(scratch)]
    flat = [np.reshape(a, -1) for a in arrays + tuple(outs)]
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        kernel(*(f[lo:hi] for f in flat), *(b[:hi - lo] for b in bufs))
    return tuple(outs)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """The graph vertex of a recorded op's output: everything but its array."""

    __slots__ = ("grad", "_parents", "_backward")
    requires_grad = True

    def __init__(self, parents, backward):
        self.grad = None
        self._parents = parents
        self._backward = backward


class Tensor:
    """A dense n-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None  # set when a recorded op made this tensor

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None):
        """Accumulate gradients of this tensor w.r.t. every reachable leaf."""
        if grad is None:
            if self.data.ndim != 0:
                raise ShapeError(
                    f"backward() without an explicit gradient requires a scalar, "
                    f"got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=np.float64)  # the caller keeps theirs
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"output gradient shape {grad.shape} does not match tensor "
                f"shape {self.data.shape}"
            )

        root = self._node or self
        order = _toposort(root)
        _accumulate(root, grad)
        for vertex in order:
            if vertex._backward is not None and vertex.grad is not None:
                vertex._backward(vertex.grad)
                vertex.grad = None  # read by no other backward


def _toposort(root):
    """Reverse topological order (root first), iterative to spare the stack."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def _vertex(tensor):
    """Where a gradient for ``tensor`` goes: the node of the op that made it,
    the tensor itself if it is a trainable leaf, else (or under ``no_grad``)
    None."""
    if not _grad_enabled:
        return None
    if tensor._node is not None:
        return tensor._node
    return tensor if tensor.requires_grad else None


def _needs_grad(vertex):
    """True for a node or a leaf that is still trainable: its gradient is used."""
    return vertex is not None and vertex.requires_grad


def _accumulate(vertex, grad):
    if vertex.requires_grad:
        vertex.grad = grad if vertex.grad is None else vertex.grad + grad


def _node(data, parents, backward):
    """Wrap ``data``; record ``backward`` if a parent vertex needs a gradient."""
    out = Tensor(data)
    parents = tuple(p for p in parents if _needs_grad(p))
    if _grad_enabled and parents:
        out.requires_grad = True
        out._node = _Node(parents, backward)
    return out


def _unbroadcast(grad, shape):
    """Sum ``grad`` over the leading axes that ``shape`` lacks."""
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra))) if extra else grad


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a, b):
    """a + b, where the shorter shape must end the longer one."""
    a_shape, b_shape = a.data.shape, b.data.shape
    n = min(len(a_shape), len(b_shape))
    if a_shape[len(a_shape) - n:] != b_shape[len(b_shape) - n:]:
        raise ShapeError(f"add: neither of {a_shape} and {b_shape} ends the other")
    data = a.data + b.data
    va, vb = _vertex(a), _vertex(b)

    def backward(g):
        if _needs_grad(va):
            _accumulate(va, _unbroadcast(g, a_shape))
        if _needs_grad(vb):
            _accumulate(vb, _unbroadcast(g, b_shape))

    return _node(data, (va, vb), backward)


def scale(x, c):
    c = float(c)
    vx = _vertex(x)

    def backward(g):
        _accumulate(vx, g * c)

    return _node(x.data * c, (vx,), backward)


def gelu(x):
    """Gaussian error linear unit, tanh approximation.

    Forward and backward run in place over blocks of at most BLOCK elements
    (``blockwise``). Per element they keep the operation order of

        t = tanh(√(2/π)·(v + 0.044715·v·v·v));  out = 0.5·v·(1 + t)
        dx = 0.5·(1 + t) + 0.5·v·(1 − t·t)·√(2/π)·(1 + 3·0.044715·v·v)

    so the results are bitwise those of the unblocked expressions. The
    forward keeps ``t`` for the backward, so it holds two input-sized arrays.
    """
    v = x.data
    t, out = blockwise(_gelu_forward, (v,), outputs=2, scratch=1)
    vx = _vertex(x)

    def backward(g):
        gx, = blockwise(_gelu_backward, (g, v, t), outputs=1, scratch=2)
        _accumulate(vx, gx)

    return _node(out, (vx,), backward)


def _gelu_forward(v, t, out, u):
    t = np.multiply(v, v, out=t)
    t *= v
    t *= _GELU_C
    t += v
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    out = np.multiply(v, 0.5, out=out)
    u = np.add(t, 1.0, out=u)
    out *= u
    return t, out


def _gelu_backward(g, v, t, gx, dinner, d):
    dinner = np.multiply(v, 3.0 * _GELU_C, out=dinner)
    dinner *= v
    dinner += 1.0
    dinner *= _SQRT_2_OVER_PI
    d = np.multiply(t, t, out=d)
    np.subtract(1.0, d, out=d)
    gx = np.multiply(v, 0.5, out=gx)
    gx *= d
    gx *= dinner
    np.add(t, 1.0, out=d)
    d *= 0.5
    d += gx                      # dx
    np.multiply(g, d, out=gx)
    return (gx,)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old_shape = x.data.shape
    vx = _vertex(x)

    def backward(g):
        _accumulate(vx, g.reshape(old_shape))

    return _node(x.data.reshape(shape), (vx,), backward)


def transpose(x):
    """Reverse every axis, as numpy's ``.T``."""
    vx = _vertex(x)

    def backward(g):
        _accumulate(vx, g.T)

    return _node(x.data.T, (vx,), backward)


def concat(tensors):
    """Concatenate along the last axis."""
    try:
        data = np.concatenate([t.data for t in tensors], axis=-1)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}")
    offsets = np.cumsum([0] + [t.data.shape[-1] for t in tensors])
    vertices = [_vertex(t) for t in tensors]

    def backward(g):
        for vt, lo, hi in zip(vertices, offsets[:-1], offsets[1:]):
            if _needs_grad(vt):
                _accumulate(vt, g[..., lo:hi])

    return _node(data, vertices, backward)


def split(x, sizes):
    """Split the last axis into chunks of the given sizes."""
    x_shape = x.data.shape
    if sum(sizes) != x_shape[-1]:
        raise ShapeError(f"split: sizes {sizes} do not sum to {x_shape}[-1]")
    vx = _vertex(x)
    outs = []
    lo = 0
    for size in sizes:
        hi = lo + size

        def backward(g, lo=lo, hi=hi):
            full = np.zeros(x_shape)
            full[..., lo:hi] = g
            _accumulate(vx, full)

        outs.append(_node(x.data[..., lo:hi], (vx,), backward))
        lo = hi
    return outs


# ---------------------------------------------------------------------------
# linear algebra and normalization
# ---------------------------------------------------------------------------

def matmul(a, b):
    """[..., M, K] @ [K, N]: a 2-D weight shared by every leading row."""
    if (a.data.ndim < 2 or b.data.ndim != 2
            or a.data.shape[-1] != b.data.shape[0]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    k, n = b.data.shape
    data = (a.data.reshape(-1, k) @ b.data).reshape(a.data.shape[:-1] + (n,))
    va, vb = _vertex(a), _vertex(b)
    a_data = a.data if vb is not None else None  # b's gradient reads a
    b_data = b.data if va is not None else None  # a's gradient reads b

    def backward(g):
        if _needs_grad(va):
            _accumulate(va, g @ b_data.T)
        if _needs_grad(vb):
            _accumulate(vb, a_data.reshape(-1, k).T @ g.reshape(-1, n))

    return _node(data, (va, vb), backward)


# no model calls softmax, because attention fuses its own; the op stays for
# the benchmark tracer, which patches it by name, and as the unfused
# reference the attention tests compare against
def softmax(x, axis):
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    vx = _vertex(x)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(vx, y * (g - dot))

    return _node(y, (vx,), backward)


def attention(q, k, v, num_heads, scale):
    """Multi-head scaled dot-product attention, softmax(q @ kᵀ * scale) @ v.

    q is [..., L, H]; k and v are [..., L', H] with the same leading axes,
    N rows in all. Each is split into A = ``num_heads`` heads as the view
    [N, A, L, d] of [N, L, A, d] (Vaswani et al. 2017), and the output and
    the gradients are written through such views, so nothing is copied
    between layouts. The heads are walked in groups of max(1, BLOCK //
    (L·L')), so one group's scores stay in cache; a group never spans two
    leading rows, so every group of q, k and v is a view. Per group,
    ``scale`` is applied to q, not to the scores, and the scores fill one
    group-sized buffer that every group reuses: shifted by their row max m
    and exponentiated to e = exp(s − m), they give one row sum z per query
    and the output (e @ v) / z, so the probabilities e / z are never
    formed. A recorded op keeps no score-sized array, only q, k, v, the
    output, m and z. Its backward walks the same groups and recomputes each
    group's exps with the same numpy calls on the same operands, so bit for
    bit; q, k and v must therefore not change between the forward and the
    backward. It computes all three gradients and hands on each that is
    needed. The softmax correction rowsum(dP∘P) is taken as rowsum(dO∘O)
    per head (Dao et al. 2022, FlashAttention). Each head's arithmetic, and
    so its result, is the same at every group size.
    """
    if (q.data.ndim < 2 or k.data.shape != v.data.shape
            or q.data.shape[:-2] != k.data.shape[:-2]
            or q.data.shape[-1] != k.data.shape[-1]
            or num_heads < 1 or q.data.shape[-1] % num_heads):
        raise ShapeError(f"attention: incompatible q {q.shape}, k {k.shape}, "
                         f"v {v.shape} for {num_heads} heads")
    (L, H), Lk, A = q.data.shape[-2:], k.data.shape[-2], int(num_heads)
    d, scale = H // A, float(scale)
    group = max(1, BLOCK // max(1, L * Lk))

    def heads(a):  # [..., L, H] -> [N, A, L, d], a view of [N, L, A, d]
        return np.swapaxes(a.reshape(-1, a.shape[-2], A, d), 1, 2)

    vq, vk, vv = _vertex(q), _vertex(k), _vertex(v)
    qf, kf, vf = heads(q.data), heads(k.data), heads(v.data)
    N = qf.shape[0]
    slices = [(b, slice(lo, lo + group))
              for b in range(N) for lo in range(0, A, group)]

    def scores(sl, qs, s):  # group sl's (q·scale) @ kᵀ, in buffers qs and s
        qg = np.multiply(qf[sl], scale, out=qs[:len(qf[sl])])
        return np.matmul(qg, np.swapaxes(kf[sl], -1, -2), out=s[:len(qg)])

    n = min(group, A)
    qs, s_buf = np.empty((n, L, d)), np.empty((n, L, Lk))
    m, z = np.empty((N, A, L, 1)), np.empty((N, A, L, 1))
    out = heads(np.empty(q.data.shape))
    with _one_blas_thread():  # per-head gemms: a hand-off costs more
        for sl in slices:
            s = scores(sl, qs, s_buf)
            s -= s.max(axis=-1, keepdims=True, out=m[sl])
            np.exp(s, out=s)
            s.sum(axis=-1, keepdims=True, out=z[sl])
            np.matmul(s, vf[sl], out=out[sl])
    rows = np.swapaxes(out, 1, 2)  # memory order, so no ufunc buffering
    rows /= np.swapaxes(z, 1, 2)
    q_shape, kv_shape = q.data.shape, k.data.shape

    def backward(g):
        g = heads(g)
        gq, gv = heads(np.empty(q_shape)), heads(np.empty(kv_shape))
        # k's gradient is made transposed, as [N, A, d, L']; taken directly
        # as gsᵀ @ q, it would round differently
        gkt = np.empty((N, A, d, Lk))
        qs, e_buf, gs_buf = np.empty((n, L, d)), *np.empty((2, n, L, Lk))
        with _one_blas_thread():
            for sl in slices:
                es = scores(sl, qs, e_buf)
                es -= m[sl]
                np.exp(es, out=es)
                gz = g[sl] / z[sl]                      # dO / z
                np.matmul(np.swapaxes(es, -1, -2), gz, out=gv[sl])
                dot = (gz * out[sl]).sum(axis=-1, keepdims=True)  # rowsum(dP∘P)/z
                gs = gs_buf[:len(es)]
                np.matmul(gz, np.swapaxes(vf[sl], -1, -2), out=gs)
                gs -= dot
                gs *= es                                # d (scaled) scores
                np.matmul(gs, kf[sl], out=gq[sl])
                np.matmul(np.swapaxes(qf[sl], -1, -2), gs, out=gkt[sl])
        gq *= scale
        gkt *= scale
        for vt, grad, shape in ((vq, gq, q_shape),
                                (vk, np.swapaxes(gkt, -1, -2), kv_shape),
                                (vv, gv, kv_shape)):
            if _needs_grad(vt):  # [N, L, A, d] reshapes without a copy
                _accumulate(vt, np.swapaxes(grad, 1, 2).reshape(shape))

    return _node(rows.reshape(q_shape), (vq, vk, vv), backward)


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    h = x.data.shape[-1]
    if gain.data.shape != (h,) or bias.data.shape != (h,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} must be ({h},)"
        )
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)  # centred once
    var = np.square(xhat).mean(axis=-1, keepdims=True)  # as x.var computes it
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv_std
    out = xhat * gain.data + bias.data
    vx, vgain, vbias = _vertex(x), _vertex(gain), _vertex(bias)
    gain_data = gain.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if _needs_grad(vgain):
            _accumulate(vgain, (g * xhat).sum(axis=lead))
        if _needs_grad(vbias):
            _accumulate(vbias, g.sum(axis=lead))
        if not _needs_grad(vx):
            return
        dxhat = g * gain_data
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accumulate(vx, dx)

    return _node(out, (vx, vgain, vbias), backward)


def conv1d(x, filters, padding):
    """Cross-correlation of x [..., L, C] with filters [K, w, C] -> [..., L', K].

    Filters of shape [..., K, w, C], with the leading axes of x, are
    per-sample: each leading index is convolved with its own filters.
    ``padding`` is "same" (zero padded, extra pad on the right for even
    widths, L' = L) or "valid" (L' = L - w + 1).
    """
    lead = x.data.shape[:-2]
    if (x.data.ndim < 2 or filters.data.ndim < 3
            or filters.data.shape[:-3] not in ((), lead)):
        raise ShapeError(
            f"conv1d: expected x [...,L,C] and filters [K,w,C] or [...,K,w,C], "
            f"got {x.shape} and {filters.shape}"
        )
    per_sample = filters.data.ndim > 3
    length, channels = x.data.shape[-2:]
    n_filters, width, f_channels = filters.data.shape[-3:]
    if channels != f_channels:
        raise ShapeError(
            f"conv1d: channel mismatch, x has {channels}, filters have {f_channels}"
        )
    if padding == "same":
        pad_left = (width - 1) // 2
        pad_right = width - 1 - pad_left
    elif padding == "valid":
        if width > length:
            raise ShapeError(
                f"conv1d: filter width {width} exceeds length {length} with "
                f"valid padding"
            )
        pad_left = pad_right = 0
    else:
        raise ValueError(f"conv1d: unknown padding {padding!r}")

    xp = np.pad(x.data, [(0, 0)] * len(lead) + [(pad_left, pad_right), (0, 0)])
    out_len = xp.shape[-2] - width + 1
    # accumulate tap by tap in (offset, channel) order; this keeps the
    # summation order identical to a naive sliding-window loop, so results
    # are reproducible bit-for-bit against simple reference code
    data = np.zeros(lead + (out_len, n_filters))
    for j in range(width):
        for c in range(channels):
            data += xp[..., j:j + out_len, c, None] * filters.data[..., None, :, j, c]
    vx, vf = _vertex(x), _vertex(filters)
    f_shape, xp_shape = filters.data.shape, xp.shape
    flat_filters = filters.data.reshape(f_shape[:-2] + (-1,))

    def backward(g):
        if _needs_grad(vf):
            windows = np.swapaxes(np.lib.stride_tricks.sliding_window_view(
                xp, width, axis=-2), -1, -2).reshape(
                    lead + (out_len, width * channels))
            if per_sample:
                gf = np.swapaxes(g, -1, -2) @ windows
            else:  # one gemm over every leading row
                gf = (g.reshape(-1, n_filters).T
                      @ windows.reshape(-1, width * channels))
            _accumulate(vf, gf.reshape(f_shape))
        if not _needs_grad(vx):
            return
        gwin = (g @ flat_filters).reshape(lead + (out_len, width, channels))
        gxp = np.zeros(xp_shape)
        for j in range(width):
            gxp[..., j:j + out_len, :] += gwin[..., j, :]
        _accumulate(vx, gxp[..., pad_left:pad_left + length, :])

    return _node(data, (vx, vf), backward)


def max_reduce(x):
    """Maximum over axis -2; gradient goes to the first argmax."""
    if x.data.ndim < 2:
        raise ShapeError(f"max_reduce: expected at least 2-d input, got {x.shape}")
    idx = np.expand_dims(x.data.argmax(axis=-2), -2)  # first max on ties
    data = np.take_along_axis(x.data, idx, axis=-2).squeeze(-2)
    vx, x_shape = _vertex(x), x.data.shape

    def backward(g):
        gx = np.zeros(x_shape)
        np.put_along_axis(gx, idx, np.expand_dims(g, -2), axis=-2)
        _accumulate(vx, gx)

    return _node(data, (vx,), backward)


def embedding_lookup(table, ids):
    """Gather rows of table [V, H] at integer positions ids [...] -> [..., H]."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(
            f"embedding_lookup: expected table [V,H], got {table.shape}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding_lookup: id out of range [0, {table.data.shape[0]})"
        )

    vt, t_shape = _vertex(table), table.data.shape

    def backward(g):
        if not _needs_grad(vt):  # a frozen table gets no dense gradient
            return
        gt = np.zeros(t_shape)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, t_shape[1]))
        _accumulate(vt, gt)

    return _node(table.data[ids], (vt,), backward)


def cross_entropy_from_logits(logits, target_index):
    """Summed negative log softmax probability of the targets; scalar output.

    ``logits`` is [..., n]; ``target_index`` is an int, or an int array
    shaped like the leading axes, one target per row.
    """
    if logits.data.ndim < 1:
        raise ShapeError(f"cross_entropy: expected [..., n] logits, got {logits.shape}")
    n = logits.data.shape[-1]
    try:
        targets = np.broadcast_to(np.asarray(target_index, dtype=np.int64),
                                  logits.data.shape[:-1])
    except ValueError:
        raise ShapeError(
            f"cross_entropy: targets {np.shape(target_index)} do not match "
            f"logits {logits.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        raise IndexError(f"cross_entropy: target out of range [0, {n})")
    rows = (np.arange(targets.size), targets.reshape(-1))
    m = logits.data.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits.data - m).sum(axis=-1, keepdims=True))
    loss = (lse.reshape(-1) - logits.data.reshape(-1, n)[rows]).sum()
    vx, logit_data = _vertex(logits), logits.data

    def backward(g):
        p = np.exp(logit_data - lse)
        p.reshape(-1, n)[rows] -= 1.0
        _accumulate(vx, float(g) * p)

    return _node(loss, (vx,), backward)
