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
STEP = 1e-5  # central-difference step


def numeric_gradient(fn, tensor):
    """Central-difference gradient of float ``fn()`` w.r.t. ``tensor``.

    ``fn`` must read the current ``tensor.data`` each call.
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    with ag.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            hi = fn()
            flat[i] = orig - STEP
            lo = fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * STEP)
    return grad


def max_relative_error(analytic, numeric):
    """Elementwise |a - n| / max(1, |a|, |n|), reduced with max."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(fn, tensors):
    """Compare tape gradients of ``fn()`` against finite differences.

    Both sides differentiate <fn(), w> for a cotangent ``w`` shaped like the
    output: the tape through ``fn().backward(w)``, the differences through
    ``np.sum(fn().data * w)``. A scalar loss takes ``w = 1``, so the error is
    that of the gradient itself; any other output takes one fixed-seed
    Gaussian ``w``, which sees a gradient error in any direction of the
    output, where projecting onto all-ones misses every error orthogonal to
    it. Returns the maximum relative error over all checked tensors.
    """
    for t in tensors:
        t.requires_grad = True
        t.zero_grad()
    out = fn()
    if out.data.ndim == 0:
        w = np.ones(())
    else:
        w = np.random.default_rng(0).standard_normal(out.shape)
    out.backward(w)

    def projected():
        return float(np.sum(fn().data * w))

    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(projected, t)
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst


def random_tensor(rng, shape):
    return ag.Tensor(rng.standard_normal(shape), requires_grad=True)


def _op_checks(rng):
    a = random_tensor(rng, (3, 4))
    b = random_tensor(rng, (4, 2))
    yield "matmul", lambda: ag.matmul(a, b), [a, b]

    x = random_tensor(rng, (2, 5))
    y = random_tensor(rng, (2, 5))
    yield "add", lambda: ag.add(x, y), [x, y]
    yield "scale", lambda: ag.scale(x, 1.7), [x]
    yield "gelu", lambda: ag.gelu(x), [x]
    yield "softmax", lambda: ag.softmax(x, 1), [x]
    yield "reshape", lambda: ag.reshape(x, (5, 2)), [x]
    yield "transpose", lambda: ag.transpose(x), [x]
    yield "concat", lambda: ag.concat([x, y]), [x, y]
    yield "split", lambda: ag.split(x, [2, 3])[0], [x]

    xl = random_tensor(rng, (3, 8))
    gain = random_tensor(rng, (8,))
    bias = random_tensor(rng, (8,))
    yield "layer_norm", lambda: ag.layer_norm(xl, gain, bias), [xl, gain, bias]

    xc = random_tensor(rng, (7, 3))
    fc = random_tensor(rng, (2, 3, 3))
    yield "conv1d_same", lambda: ag.conv1d(xc, fc, "same"), [xc, fc]
    yield "conv1d_valid", lambda: ag.conv1d(xc, fc, "valid"), [xc, fc]

    # distinct entries keep the max unique so the subgradient is exact
    xm = random_tensor(rng, (5, 3))
    xm.data = np.argsort(np.argsort(xm.data, axis=None)).reshape(5, 3) * 0.1 \
        + xm.data * 1e-3
    yield "max_reduce", lambda: ag.max_reduce(xm), [xm]

    table = random_tensor(rng, (6, 4))
    ids = np.array([0, 3, 3, 5])
    yield "embedding_lookup", lambda: ag.embedding_lookup(table, ids), [table]

    logits = random_tensor(rng, (7,))
    yield "cross_entropy_from_logits", lambda: ag.cross_entropy_from_logits(
        logits, 2), [logits]

    # leading batch axes; drawn last so the checks above keep their inputs
    a3 = random_tensor(rng, (2, 3, 4))
    yield "matmul_3d_shared", lambda: ag.matmul(a3, b), [a3, b]

    q, k, v = (random_tensor(rng, (2, 3, 4)) for _ in range(3))
    yield "attention", lambda: ag.attention(q, k, v, 2), [q, k, v]

    xb = random_tensor(rng, (2, 5, 3))
    fb = random_tensor(rng, (2, 2, 2, 3))
    yield "conv1d_per_sample", lambda: ag.conv1d(xb, fb, "same"), [xb, fb]
    batch_logits = random_tensor(rng, (3, 7))
    yield "cross_entropy_batched", lambda: ag.cross_entropy_from_logits(
        batch_logits, np.array([2, 0, 6])), [batch_logits]
    # reuses xb, because a new draw would shift every composite input below
    yield "transpose_3d", lambda: ag.transpose(xb), [xb]


def _composite_checks(rng):
    """The adapter encoder alone, then the span loss of the affine,
    context-vector CACNN and simplified CACNN heads, each model made by
    ``trainer.build_model`` with nothing frozen."""
    seed = int(rng.integers(0, 2**31))
    config = enc.EncoderConfig(vocab_size=12, hidden_size=8, num_layers=1,
                               num_heads=2, intermediate_size=12, max_seq_len=8,
                               adapter=enc.AdapterConfig(adapter_size=3))
    everything = enc.FreezePolicy(config.num_layers, embeddings_trainable=True)
    heads = (
        ("affine", enc.AFFINE_SPAN),
        ("cacnn_context_vector", cacnn_mod.CacnnConfig(
            variant=cacnn_mod.CONTEXT_VECTOR, initial_filters=4,
            initial_width=2, sample_filters=2, sample_width=1,
            context_width=2, context_filters=2)),
        ("cacnn_simplified", cacnn_mod.CacnnConfig(
            variant=cacnn_mod.SIMPLIFIED, initial_filters=4, initial_width=2,
            sample_filters=2, sample_width=1)),
    )
    tokens = rng.integers(0, config.vocab_size, size=6)
    segments = np.array([0, 0, 0, 1, 1, 1])
    example = SpanExample(tokens, segments, (3, 4))
    for name, head in heads:
        model = trainer.build_model(config, everything, head, seed)
        reg = model.registry
        # at init (std 0.02, zero biases and up-projections) the loss
        # gradients of some encoder weights are as small as 1e-9, where the
        # tolerance cannot tell them from zero; move every weight to unit order
        for _, t in reg.items():
            t.data += rng.standard_normal(t.shape) * 0.5
        if name == "affine":
            encoder = [reg[n] for n in ("layer0.attn.q_w", "layer0.ffn.w1",
                                        "layer0.adapter_attn.down_w",
                                        "layer0.adapter_ffn.up_w",
                                        "layer0.ln1_gain", "embeddings.token")]
            yield ("encoder_adapter_forward",
                   lambda reg=reg: enc.forward(reg, config, tokens, segments),
                   encoder)
        else:
            # the encoder's backward is checked above; a CACNN head adds only
            # the gradient into the encoder output, which one weight covers
            encoder = [reg["layer0.adapter_ffn.up_w"]]
        head_params = [t for n, t in reg.items()
                       if reg.entry(n).group == "head"]
        yield (f"span_loss_{name}",
               lambda model=model: trainer.example_loss(model, example),
               encoder + head_params)


def run_suite(seed=0):
    """Run every op check, then every composite: [(name, max_rel_err, ok)]."""
    rng = np.random.default_rng(seed)
    checks = [*_op_checks(rng), *_composite_checks(rng)]
    errors = [(name, check_gradients(fn, ts)) for name, fn, ts in checks]
    return [(name, err, err < TOLERANCE) for name, err in errors]
