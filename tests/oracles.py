"""Independent brute-force reference implementations used only by tests.

These deliberately share no code with the library: plain Python loops over
numpy scalars, or textbook whole-array expressions, so they can serve as
oracles for the vectorized and in-place paths. The one exception is
``span_loss_split_readout``, the span loss on the library's own tape as it
was read out before the heads returned one [..., 2, L] tensor.
"""

import math

import numpy as np

from peftlab import autograd as ag
from peftlab import cacnn
from peftlab import encoder as enc
from peftlab.encoder import SEGMENT_TYPES


def conv1d_loops(x, filters, padding):
    """Triple-loop cross-correlation; x [L,C], filters [K,w,C] -> [L',K]."""
    L, C = x.shape
    K, w, _ = filters.shape
    if padding == "same":
        pad_left = (w - 1) // 2
        pad_right = w - 1 - pad_left
        xp = np.zeros((L + pad_left + pad_right, C))
        xp[pad_left:pad_left + L] = x
    else:
        xp = x
    out_len = xp.shape[0] - w + 1
    out = np.zeros((out_len, K))
    for i in range(out_len):
        for k in range(K):
            acc = 0.0
            for j in range(w):
                for c in range(C):
                    acc += xp[i + j, c] * filters[k, j, c]
            out[i, k] = acc
    return out


def cacnn_context_vector_loops(x, init_filters, init_bias, ctx_filters,
                               ctx_bias, K, w2, reduction="max"):
    """Step-by-step context-vector head: conv, reduce, conv, tile, conv."""
    maps = conv1d_loops(x, init_filters, "same") + init_bias
    if reduction == "max":
        context = maps.max(axis=0)
    else:
        context = maps.sum(axis=0)
    signal = context.reshape(-1, 1)
    ctx_maps = conv1d_loops(signal, ctx_filters, "valid") + ctx_bias
    flat = ctx_maps.reshape(-1)
    H = x.shape[1]
    needed = K * w2 * H
    tiled = np.concatenate([flat] * (-(-needed // flat.size)))[:needed]
    sample_filters = tiled.reshape(K, w2, H)
    return conv1d_loops(x, sample_filters, "same")


def cacnn_simplified_loops(x, init_filters, init_bias, K, w2):
    maps = conv1d_loops(x, init_filters, "same") + init_bias
    flat = maps.reshape(-1)
    H = x.shape[1]
    needed = K * w2 * H
    sample_filters = flat[:needed].reshape(K, w2, H)
    return conv1d_loops(x, sample_filters, "same")


def decode_span_enumeration(start_logits, end_logits, max_answer_len):
    """Exhaustive scoring of every candidate, null included."""
    L = len(start_logits)
    candidates = [((0, 0), start_logits[0] + end_logits[0])]
    for s in range(1, L):
        for e in range(s, L):
            if e - s < max_answer_len:
                candidates.append(((s, e), start_logits[s] + end_logits[e]))
    best_span, best_score = candidates[0]
    for span, sc in candidates[1:]:
        if sc > best_score:
            best_span, best_score = span, sc
    return best_span


def count_occurrences_loops(haystack, needle):
    """Start positions where every needle token matches, one scalar at a time."""
    n, k = len(haystack), len(needle)
    count = 0
    for i in range(n - k + 1):
        if all(haystack[i + j] == needle[j] for j in range(k)):
            count += 1
    return count


def adam_reference(data, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One textbook Adam step (Kingma & Ba); returns new (data, m, v)."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    return data - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def gelu_reference(v):
    """Unblocked tanh-approximation gelu as whole-array expressions.

    Returns (out, dx): the activation and its derivative with respect to v.
    """
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (v + 0.044715 * (v * v * v)))
    out = 0.5 * v * (1.0 + t)
    dinner = c * (1.0 + 3.0 * 0.044715 * v * v)
    dx = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
    return out, dx


def layer_norm_reference(x, gain, bias, g, eps=1e-12):
    """Layer norm over the last axis as whole-array expressions, with
    ``x.var`` taking the variance, and its gradients for the output
    gradient ``g``. Returns (out, dgain, dbias, dx)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    out = xhat * gain + bias
    lead = tuple(range(g.ndim - 1))
    dxhat = g * gain
    dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return out, (g * xhat).sum(axis=lead), g.sum(axis=lead), dx


def attention_stored_exps(q, k, v, g, scale, block=1 << 15):
    """Attention that stores every head's exps, forward and backward.

    The fused op as it was before its backward recomputed the exps: the
    forward scales the whole q, keeps e = exp(s − rowmax s) for all heads
    [N, A, L, L'] and walks the heads in groups of max(1, block // (L·L'));
    the backward reads the stored exps. q, k, v and g are per-head arrays
    [..., A, L, d] (k and v [..., A, L', d]), as the op took them before it
    split its own heads; pass the head views of ``autograd.attention``'s
    [..., L, H] operands, np.swapaxes(x.reshape(..., L, A, d), -3, -2), and
    compare the results through the same views. Returns (out, gq, gk, gv),
    each shaped like the operand it belongs to.
    """
    L, d = q.shape[-2:]
    Lk = k.shape[-2]
    group = max(1, block // max(1, L * Lk))

    def heads(a):
        a = a[(None,) * max(0, 3 - a.ndim)]
        return a.reshape((-1,) + a.shape[-3:])

    qs = heads(q * scale)
    qf, kf, vf = heads(q), heads(k), heads(v)
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

    gz = heads(g) / z
    gq, gkt, gv = (np.empty((N, A, L, d)), np.empty((N, A, d, Lk)),
                   np.empty((N, A, Lk, d)))
    dot = (gz * out).sum(axis=-1, keepdims=True)
    gs_buf = np.empty((min(group, A), L, Lk))
    for sl in slices:
        es = e[sl]
        np.matmul(np.swapaxes(es, -1, -2), gz[sl], out=gv[sl])
        gs = gs_buf[:es.shape[0]]
        np.matmul(gz[sl], np.swapaxes(vf[sl], -1, -2), out=gs)
        gs -= dot[sl]
        gs *= es
        np.matmul(gs, kf[sl], out=gq[sl])
        np.matmul(np.swapaxes(qf[sl], -1, -2), gs, out=gkt[sl])
    gq *= scale
    gkt *= scale
    gk = np.swapaxes(gkt, -1, -2)
    return (out.reshape(q.shape), gq.reshape(q.shape), gk.reshape(k.shape),
            gv.reshape(k.shape))


def _truncated_normal(rng, shape, std=0.02):
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def build_encoder_reference(config, seed, include_head=True):
    """The encoder layout written out by hand: [(name, values)] in order."""
    rng = np.random.default_rng(seed)
    params = []

    def add(name, values):
        params.append((name, np.asarray(values, dtype=np.float64)))

    H, I = config.hidden_size, config.intermediate_size
    add("embeddings.token", _truncated_normal(rng, (config.vocab_size, H)))
    add("embeddings.position", _truncated_normal(rng, (config.max_seq_len, H)))
    add("embeddings.segment", _truncated_normal(rng, (SEGMENT_TYPES, H)))
    add("embeddings.ln_gain", np.ones(H))
    add("embeddings.ln_bias", np.zeros(H))
    for i in range(config.num_layers):
        p = f"layer{i}"
        for proj in ("q", "k", "v", "o"):
            add(f"{p}.attn.{proj}_w", _truncated_normal(rng, (H, H)))
            add(f"{p}.attn.{proj}_b", np.zeros(H))
        add(f"{p}.ln1_gain", np.ones(H))
        add(f"{p}.ln1_bias", np.zeros(H))
        add(f"{p}.ffn.w1", _truncated_normal(rng, (H, I)))
        add(f"{p}.ffn.b1", np.zeros(I))
        add(f"{p}.ffn.w2", _truncated_normal(rng, (I, H)))
        add(f"{p}.ffn.b2", np.zeros(H))
        add(f"{p}.ln2_gain", np.ones(H))
        add(f"{p}.ln2_bias", np.zeros(H))
        if config.adapter is not None:
            a = config.adapter.adapter_size
            for slot in ("adapter_attn", "adapter_ffn"):
                add(f"{p}.{slot}.down_w", _truncated_normal(rng, (H, a)))
                add(f"{p}.{slot}.down_b", np.zeros(a))
                add(f"{p}.{slot}.up_w", np.zeros((a, H)))
                add(f"{p}.{slot}.up_b", np.zeros(H))
    if include_head:
        add("head.w", _truncated_normal(rng, (H, 2)))
        add("head.b", np.zeros(2))
    return params


def build_cacnn_reference(config, hidden_size, seed):
    """The CACNN head layout written out by hand: [(name, values)] in order."""
    rng = np.random.default_rng(seed)
    params = [
        ("cacnn.init_filters", _truncated_normal(
            rng, (config.initial_filters, config.initial_width, hidden_size))),
        ("cacnn.init_bias", np.zeros(config.initial_filters)),
    ]
    if config.variant == "context_vector":
        params += [
            ("cacnn.context_filters", _truncated_normal(
                rng, (config.context_filters, config.context_width, 1))),
            ("cacnn.context_bias", np.zeros(config.context_filters)),
        ]
    params += [("cacnn.head_w", _truncated_normal(rng, (config.sample_filters, 2))),
               ("cacnn.head_b", np.zeros(2))]
    return params


def span_loss_split_readout(model, batch):
    """The span loss with the head's [..., L, 2] product split into columns,
    each reshaped to [..., L], two cross-entropies added and scaled by
    0.5 / examples. Returns (start_logits, end_logits, loss) tensors."""
    reg = model.registry
    x = enc.forward(reg, model.config, batch.tokens, batch.segments)
    if model.head == enc.AFFINE_SPAN:
        w, b = reg["head.w"], reg["head.b"]
    else:
        x = cacnn.forward(x, reg, model.head)
        w, b = reg["cacnn.head_w"], reg["cacnn.head_b"]
    start, end = ag.split(ag.add(ag.matmul(x, w), b), [1, 1])
    lead = x.shape[:-1]
    start, end = ag.reshape(start, lead), ag.reshape(end, lead)
    gold = np.asarray(batch.gold_span)
    starts, ends = gold[..., 0], gold[..., 1]
    loss = ag.add(ag.cross_entropy_from_logits(start, starts),
                  ag.cross_entropy_from_logits(end, ends))
    return start, end, ag.scale(loss, 0.5 / starts.size)
