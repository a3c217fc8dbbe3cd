"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array and remembers the operations that produced it.
Calling ``backward()`` on a scalar (or any tensor, with an explicit output
gradient) walks the recorded graph in reverse topological order and
accumulates gradients into every leaf with ``requires_grad=True``.

Backward computes only gradients that are kept: an op skips every operand
that is neither a trainable leaf nor a recorded node, so frozen weights cost
no weight-gradient work. Interior nodes adopt the gradient array they are
handed, and several nodes may share one array. That is safe because no op
mutates a ``.grad`` in place; accumulation always builds a new array. Leaves
(and the root's explicit output gradient) take a private copy, so a leaf's
``.grad`` never aliases another array.

Every op takes optional leading batch axes, so one graph serves a whole
mini-batch: a single example is a batch with no leading axis. Only the
operations the encoder, adapter, and convolutional heads need are provided,
plus softmax (see the note above it); there is no general broadcasting
beyond what those layers use.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


BLOCK = 1 << 15  # elements per block: 256 KiB of float64, sized for L2
LAYER_NORM_EPS = 1e-12  # added to the variance, as in BERT


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


class Tensor:
    """A dense n-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

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

        order = _toposort(self)
        _accumulate(self, grad)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


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


def _needs_grad(tensor):
    """True for a trainable leaf or a recorded node: its gradient is used."""
    return tensor.requires_grad or tensor._backward is not None


def _accumulate(tensor, grad):
    if not _needs_grad(tensor):
        return
    if tensor.grad is None:
        if tensor._backward is None:  # a leaf keeps a private copy
            grad = np.array(grad, dtype=np.float64)
        tensor.grad = grad
    else:
        tensor.grad = tensor.grad + grad


def _node(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(_needs_grad(p) for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def scale(x, c):
    x = _as_tensor(x)
    c = float(c)

    def backward(g):
        _accumulate(x, g * c)

    return _node(x.data * c, (x,), backward)


def gelu(x):
    """Gaussian error linear unit, tanh approximation.

    Forward and backward run in place over blocks of at most BLOCK elements
    (``blockwise``). Per element they keep the operation order of

        t = tanh(√(2/π)·(v + 0.044715·v·v·v));  out = 0.5·v·(1 + t)
        dx = 0.5·(1 + t) + 0.5·v·(1 − t·t)·√(2/π)·(1 + 3·0.044715·v·v)

    so the results are bitwise those of the unblocked expressions. The
    forward keeps ``t`` for the backward, so it holds two input-sized arrays.
    """
    x = _as_tensor(x)
    v = x.data
    t, out = blockwise(_gelu_forward, (v,), outputs=2, scratch=1)

    def backward(g):
        gx, = blockwise(_gelu_backward, (g, v, t), outputs=1, scratch=2)
        _accumulate(x, gx)

    return _node(out, (x,), backward)


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
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old_shape = x.data.shape

    def backward(g):
        _accumulate(x, g.reshape(old_shape))

    return _node(x.data.reshape(shape), (x,), backward)


def transpose(x, axes=None):
    x = _as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    axes = tuple(axes)
    inv = np.argsort(axes)

    def backward(g):
        _accumulate(x, g.transpose(inv))

    return _node(x.data.transpose(axes), (x,), backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}"
        )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if not _needs_grad(t):
                continue
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(data, tuple(tensors), backward)


def split(x, sizes, axis=0):
    """Split along ``axis`` into chunks of the given sizes."""
    x = _as_tensor(x)
    if sum(sizes) != x.data.shape[axis]:
        raise ShapeError(
            f"split: sizes {sizes} do not sum to axis length "
            f"{x.data.shape[axis]} of shape {x.shape}"
        )
    outs = []
    lo = 0
    for size in sizes:
        hi = lo + size
        idx = [slice(None)] * x.data.ndim
        idx[axis] = slice(lo, hi)
        idx = tuple(idx)

        def backward(g, idx=idx):
            full = np.zeros_like(x.data)
            full[idx] = g
            _accumulate(x, full)

        outs.append(_node(x.data[idx], (x,), backward))
        lo = hi
    return outs


# ---------------------------------------------------------------------------
# linear algebra and normalization
# ---------------------------------------------------------------------------

def matmul(a, b):
    """[..., M, K] @ [K, N] (a shared weight) or [..., M, K] @ [..., K, N]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.data.ndim < 2 or b.data.ndim < 2
            or a.data.shape[-1] != b.data.shape[-2]
            or b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    k = a.data.shape[-1]
    shared = b.data.ndim == 2
    if shared:  # one gemm over every leading row
        n = b.data.shape[1]
        data = (a.data.reshape(-1, k) @ b.data).reshape(a.data.shape[:-1] + (n,))
    else:
        data = a.data @ b.data

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        if not _needs_grad(b):
            return
        if shared:
            _accumulate(b, a.data.reshape(-1, k).T @ g.reshape(-1, n))
        else:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _node(data, (a, b), backward)


# no model calls softmax, because attention fuses its own; the op stays for
# the benchmark tracer, which patches it by name, and as the unfused
# reference the attention tests compare against
def softmax(x, axis):
    x = _as_tensor(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _node(y, (x,), backward)


def attention(q, k, v, scale):
    """Scaled dot-product attention, softmax(q @ kᵀ * scale) @ v.

    q is [..., L, d]; k and v are [..., L', d] with the same leading axes
    (for multi-head attention, [B, A, L, d]). The heads are walked in groups
    of max(1, BLOCK // (L·L')), so one group's scores stay in cache; a group
    never spans two indices of the axes before the last leading one, so every
    group of q, k and v is a view, also of the encoder's head-transposed
    arrays. ``scale`` is applied to q, not to the scores. The only
    score-sized array the op keeps is the unnormalised exps
    e = exp(s − rowmax s), plus one row sum z per query: the output is
    (e @ v) / z, so the probabilities e / z are never formed. The backward
    takes the softmax correction rowsum(dP∘P) as rowsum(dO∘O) on [..., L, d]
    (Dao et al. 2022, FlashAttention), not on the scores. Each head's
    arithmetic, and so its result, is the same at every group size.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.data.ndim < 2 or k.data.shape != v.data.shape
            or q.data.shape[:-2] != k.data.shape[:-2]
            or q.data.shape[-1] != k.data.shape[-1]):
        raise ShapeError(
            f"attention: incompatible q {q.shape}, k {k.shape}, v {v.shape}")
    scale = float(scale)
    L, d = q.data.shape[-2:]
    Lk = k.data.shape[-2]
    group = max(1, BLOCK // max(1, L * Lk))

    def heads(a):  # [..., A, L, d] -> [N, A, L, d]
        a = a[(None,) * max(0, 3 - a.ndim)]
        return a.reshape((-1,) + a.shape[-3:])

    qs = heads(q.data * scale)
    kf, vf = heads(k.data), heads(v.data)
    N, A = qs.shape[:2]
    slices = [(b, slice(lo, lo + group))
              for b in range(N) for lo in range(0, A, group)]
    e = np.empty((N, A, L, Lk))
    z = np.empty((N, A, L, 1))
    out = np.empty((N, A, L, d))
    for sl in slices:
        s = e[sl]
        np.matmul(qs[sl], np.swapaxes(kf[sl], -1, -2), out=s)
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s.sum(axis=-1, keepdims=True, out=z[sl])
        np.matmul(s, vf[sl], out=out[sl])
    out /= z

    def backward(g):
        gz = heads(g) / z                           # dO / z
        qf = heads(q.data)
        gq = np.empty((N, A, L, d)) if _needs_grad(q) else None
        gkt = np.empty((N, A, d, Lk)) if _needs_grad(k) else None
        gv = np.empty((N, A, Lk, d)) if _needs_grad(v) else None
        if gq is not None or gkt is not None:
            dot = (gz * out).sum(axis=-1, keepdims=True)  # rowsum(dP∘P) / z
            gs_buf = np.empty((min(group, A), L, Lk))
        for sl in slices:
            es = e[sl]
            if gv is not None:
                np.matmul(np.swapaxes(es, -1, -2), gz[sl], out=gv[sl])
            if gq is None and gkt is None:
                continue
            gs = gs_buf[:es.shape[0]]
            np.matmul(gz[sl], np.swapaxes(vf[sl], -1, -2), out=gs)
            gs -= dot[sl]
            gs *= es                                # d (scaled) scores
            if gq is not None:
                np.matmul(gs, kf[sl], out=gq[sl])
            if gkt is not None:
                np.matmul(np.swapaxes(qf[sl], -1, -2), gs, out=gkt[sl])
        for grad in (gq, gkt):
            if grad is not None:
                grad *= scale
        # k's gradient is made transposed, as [..., d, L']: its swapped view
        # then reshapes to the encoder's [..., L', H] layout without a copy
        gk = None if gkt is None else np.swapaxes(gkt, -1, -2)
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            if grad is not None:
                _accumulate(t, grad.reshape(t.shape))

    return _node(out.reshape(q.data.shape), (q, k, v), backward)


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    h = x.data.shape[-1]
    if gain.data.shape != (h,) or bias.data.shape != (h,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} must be ({h},)"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)  # population variance
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv_std
    out = xhat * gain.data + bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if _needs_grad(gain):
            _accumulate(gain, (g * xhat).sum(axis=lead))
        if _needs_grad(bias):
            _accumulate(bias, g.sum(axis=lead))
        if not _needs_grad(x):
            return
        dxhat = g * gain.data
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accumulate(x, dx)

    return _node(out, (x, gain, bias), backward)


def conv1d(x, filters, padding):
    """Cross-correlation of x [..., L, C] with filters [K, w, C] -> [..., L', K].

    Filters of shape [..., K, w, C], with the leading axes of x, are
    per-sample: each leading index is convolved with its own filters.
    ``padding`` is "same" (zero padded, extra pad on the right for even
    widths, L' = L) or "valid" (L' = L - w + 1).
    """
    x, filters = _as_tensor(x), _as_tensor(filters)
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
    flat_filters = filters.data.reshape(filters.data.shape[:-2] + (-1,))

    def backward(g):
        if _needs_grad(filters):
            windows = np.swapaxes(np.lib.stride_tricks.sliding_window_view(
                xp, width, axis=-2), -1, -2).reshape(
                    lead + (out_len, width * channels))
            if per_sample:
                gf = np.swapaxes(g, -1, -2) @ windows
            else:  # one gemm over every leading row
                gf = (g.reshape(-1, n_filters).T
                      @ windows.reshape(-1, width * channels))
            _accumulate(filters, gf.reshape(filters.data.shape))
        if not _needs_grad(x):
            return
        gwin = (g @ flat_filters).reshape(lead + (out_len, width, channels))
        gxp = np.zeros_like(xp)
        for j in range(width):
            gxp[..., j:j + out_len, :] += gwin[..., j, :]
        _accumulate(x, gxp[..., pad_left:pad_left + length, :])

    return _node(data, (x, filters), backward)


def max_reduce(x, axis=-2):
    """Maximum over ``axis``; gradient goes to the first argmax."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"max_reduce: expected at least 2-d input, got {x.shape}")
    idx = np.expand_dims(x.data.argmax(axis=axis), axis)  # first max on ties
    data = np.take_along_axis(x.data, idx, axis=axis).squeeze(axis)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis=axis)
        _accumulate(x, gx)

    return _node(data, (x,), backward)


def embedding_lookup(table, ids):
    """Gather rows of table [V, H] at integer positions ids [...] -> [..., H]."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(
            f"embedding_lookup: expected table [V,H], got {table.shape}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding_lookup: id out of range [0, {table.data.shape[0]})"
        )

    def backward(g):
        if not _needs_grad(table):  # a frozen table gets no dense gradient
            return
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, gt)

    return _node(table.data[ids], (table,), backward)


def cross_entropy_from_logits(logits, target_index):
    """Summed negative log softmax probability of the targets; scalar output.

    ``logits`` is [..., n]; ``target_index`` is an int, or an int array
    shaped like the leading axes, one target per row.
    """
    logits = _as_tensor(logits)
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

    def backward(g):
        p = np.exp(logits.data - lse)
        p.reshape(-1, n)[rows] -= 1.0
        _accumulate(logits, float(g) * p)

    return _node(loss, (logits,), backward)
