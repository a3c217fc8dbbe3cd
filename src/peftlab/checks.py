"""Central finite-difference gradient checking, and the verification suite
that runs it over all ops and model composites."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import cacnn as cacnn_mod
from . import encoder as enc
from . import trainer
from .span import SpanExample

TOLERANCE = 1e-4


def numeric_gradient(fn, tensors, index, step=1e-5):
    """Central-difference gradient of scalar ``fn()`` w.r.t. tensors[index].

    ``fn`` must read the current ``.data`` of the given tensors each call.
    """
    t = tensors[index]
    grad = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = grad.reshape(-1)
    with ag.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(fn().data)
            flat[i] = orig - step
            lo = float(fn().data)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic, numeric):
    """Elementwise |a - n| / max(1, |a|, |n|), reduced with max."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(fn, tensors, step=1e-5):
    """Compare tape gradients of scalar ``fn()`` against finite differences.

    Returns the maximum relative error over all checked tensors.
    """
    def scalar_fn():
        out = fn()
        return out if out.data.ndim == 0 else ag.sum_all(out)

    for t in tensors:
        t.requires_grad = True
        t.zero_grad()
    scalar_fn().backward()
    worst = 0.0
    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(scalar_fn, tensors, i, step=step)
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst


def random_tensor(rng, shape, scale=1.0):
    return ag.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _op_checks(rng):
    a = random_tensor(rng, (3, 4))
    b = random_tensor(rng, (4, 2))
    yield "matmul", lambda: ag.matmul(a, b), [a, b]

    x = random_tensor(rng, (2, 5))
    w = random_tensor(rng, (2, 5))
    yield "add", lambda: ag.add(x, w), [x, w]
    yield "mul", lambda: ag.mul(x, w), [x, w]
    yield "scale", lambda: ag.scale(x, 1.7), [x]
    yield "gelu", lambda: ag.gelu(x), [x]
    yield "softmax", lambda: ag.sum_all(ag.mul(ag.softmax(x, 1), w)), [x]
    yield "reshape", lambda: ag.mul(ag.reshape(x, (5, 2)), ag.reshape(w, (5, 2))), [x]
    yield "transpose", lambda: ag.mul(ag.transpose(x), ag.transpose(w)), [x]
    yield "concat", lambda: ag.mul(ag.concat([x, w], 0),
                                   ag.concat([w, x], 0)), [x, w]
    yield "split", lambda: ag.mul(ag.split(x, [2, 3], 1)[0],
                                  ag.split(w, [2, 3], 1)[0]), [x]

    xl = random_tensor(rng, (3, 8))
    gain = random_tensor(rng, (8,))
    bias = random_tensor(rng, (8,))
    wl = random_tensor(rng, (3, 8))
    yield "layer_norm", lambda: ag.sum_all(
        ag.mul(ag.layer_norm(xl, gain, bias), wl)), [xl, gain, bias]

    xc = random_tensor(rng, (7, 3))
    fc = random_tensor(rng, (2, 3, 3))
    yield "conv1d_same", lambda: ag.conv1d(xc, fc, "same"), [xc, fc]
    yield "conv1d_valid", lambda: ag.conv1d(xc, fc, "valid"), [xc, fc]

    # distinct entries keep the max unique so the subgradient is exact
    xm = random_tensor(rng, (5, 3))
    xm.data = np.argsort(np.argsort(xm.data, axis=None)).reshape(5, 3) * 0.1 \
        + xm.data * 1e-3
    yield "max_reduce", lambda: ag.max_reduce(xm, 0), [xm]

    table = random_tensor(rng, (6, 4))
    ids = np.array([0, 3, 3, 5])
    wt = random_tensor(rng, (4, 4))
    yield "embedding_lookup", lambda: ag.mul(
        ag.embedding_lookup(table, ids), wt), [table]

    logits = random_tensor(rng, (7,))
    yield "cross_entropy_from_logits", lambda: ag.cross_entropy_from_logits(
        logits, 2), [logits]

    # leading batch axes; drawn last so the checks above keep their inputs
    a3 = random_tensor(rng, (2, 3, 4))
    yield "matmul_3d_shared", lambda: ag.matmul(a3, b), [a3, b]
    a4 = random_tensor(rng, (2, 2, 3, 4))
    b4 = random_tensor(rng, (2, 2, 4, 2))
    yield "matmul_4d", lambda: ag.matmul(a4, b4), [a4, b4]

    q, k, v = (random_tensor(rng, (2, 2, 3, 2)) for _ in range(3))
    wa = ag.Tensor(rng.standard_normal((2, 2, 3, 2)))
    yield "attention", lambda: ag.mul(ag.attention(q, k, v, 0.7), wa), [q, k, v]

    xb = random_tensor(rng, (2, 5, 3))
    fb = random_tensor(rng, (2, 2, 2, 3))
    wb = ag.Tensor(rng.standard_normal((2, 5, 2)))
    yield "conv1d_per_sample", lambda: ag.mul(
        ag.conv1d(xb, fb, "same"), wb), [xb, fb]
    batch_logits = random_tensor(rng, (3, 7))
    yield "cross_entropy_batched", lambda: ag.cross_entropy_from_logits(
        batch_logits, np.array([2, 0, 6])), [batch_logits]


def _composite_checks(rng):
    seed = int(rng.integers(0, 2**31))
    config = enc.EncoderConfig(vocab_size=12, hidden_size=8, num_layers=1,
                               num_heads=2, intermediate_size=12, max_seq_len=8,
                               adapter=enc.AdapterConfig(adapter_size=3))
    everything = enc.FreezePolicy(config.num_layers, embeddings_trainable=True)
    model = trainer.build_model(config, everything, enc.AFFINE_SPAN, seed)
    reg = model.registry
    # zero-init up-projections hide adapter gradients; perturb them
    for name in reg.names():
        if name.endswith("up_w"):
            reg[name].data += rng.standard_normal(reg[name].data.shape) * 0.05
    tokens = rng.integers(0, config.vocab_size, size=6)
    segments = np.array([0, 0, 0, 1, 1, 1])

    checked = ["layer0.attn.q_w", "layer0.ffn.w1", "layer0.adapter_attn.down_w",
               "layer0.adapter_ffn.up_w", "layer0.ln1_gain", "embeddings.token",
               "head.w"]
    tensors = [reg[n] for n in checked]
    weights = rng.standard_normal((6, 8))

    def encoder_fn():
        out = enc.forward(reg, config, tokens, segments)
        return ag.sum_all(ag.mul(out, ag.Tensor(weights)))

    yield "encoder_adapter_forward", encoder_fn, tensors

    def span_loss_fn():
        start, end = model.span_logits(SpanExample(tokens, segments, (3, 4)))
        return ag.add(ag.cross_entropy_from_logits(start, 3),
                      ag.cross_entropy_from_logits(end, 4))

    yield "encoder_span_loss", span_loss_fn, tensors

    for variant, name in ((cacnn_mod.CONTEXT_VECTOR, "cacnn_context_vector"),
                          (cacnn_mod.SIMPLIFIED, "cacnn_simplified")):
        ccfg = cacnn_mod.CacnnConfig(
            variant=variant, initial_filters=4, initial_width=2,
            sample_filters=2, sample_width=1, context_width=2,
            context_filters=2,
        )
        creg = enc.ParameterRegistry()
        cacnn_mod.build_params(creg, ccfg, 8, seed + 1)
        x = random_tensor(rng, (6, 8))
        params = [creg["cacnn.init_filters"], creg["cacnn.init_bias"],
                  creg["cacnn.head_w"]]
        if variant == cacnn_mod.CONTEXT_VECTOR:
            params.append(creg["cacnn.context_filters"])

        def cacnn_fn(x=x, creg=creg, ccfg=ccfg):
            maps = cacnn_mod.forward(x, creg, ccfg)
            start, end = cacnn_mod.head_logits(maps, creg)
            return ag.add(ag.cross_entropy_from_logits(start, 1),
                          ag.cross_entropy_from_logits(end, 2))

        yield name, cacnn_fn, [x] + params


def run_suite(seed=0, include_composites=True):
    """Run every check; returns a list of (name, max_rel_err, passed)."""
    rng = np.random.default_rng(seed)
    results = []
    checks = list(_op_checks(rng))
    if include_composites:
        checks += list(_composite_checks(rng))
    for name, fn, tensors in checks:
        err = check_gradients(fn, tensors)
        results.append((name, err, err < TOLERANCE))
    return results
