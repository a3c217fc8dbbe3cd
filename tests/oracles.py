"""Independent brute-force reference implementations used only by tests.

These deliberately share no code with the library: plain Python loops over
numpy scalars, or textbook whole-array expressions, so they can serve as
oracles for the vectorized and in-place paths.
"""

import numpy as np


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


def adam_reference(data, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One textbook Adam step (Kingma & Ba); returns new (data, m, v)."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    return data - lr * m_hat / (np.sqrt(v_hat) + eps), m, v
