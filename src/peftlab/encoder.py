"""BERT-style transformer encoder with adapters and a declarative freeze policy.

``parameter_schema`` describes every parameter once: name, shape, group,
layer and init. The registry allocates from it, accounting sums its shapes,
and the freeze policy decides trainability from each entry's group and
layer: attention and feed-forward weights of the bottom layers freeze; layer
norms (including the embedding layer norm) and the task head always train.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import autograd as ag
from .autograd import Tensor

INIT_STD = 0.02
SEGMENT_TYPES = 2  # query side and context side


@dataclass
class AdapterConfig:
    """Bottleneck adapter: down-project to ``adapter_size``, gelu, up-project.

    The up-projection is zero-initialized so a freshly built adapter is an
    exact identity and the encoder output matches the adapter-free model.
    """
    adapter_size: int

    def __post_init__(self):
        if self.adapter_size < 1:
            raise ValueError(f"adapter_size must be >= 1, got {self.adapter_size}")


@dataclass
class EncoderConfig:
    vocab_size: int
    hidden_size: int
    num_layers: int
    num_heads: int
    intermediate_size: int
    max_seq_len: int
    adapter: Optional[AdapterConfig] = None

    def __post_init__(self):
        for name in ("vocab_size", "hidden_size", "num_heads",
                     "intermediate_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {self.num_layers}")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )


def desk_config(adapter=None):
    return EncoderConfig(
        vocab_size=64, hidden_size=32, num_layers=2, num_heads=4,
        intermediate_size=128, max_seq_len=64, adapter=adapter,
    )


def bert_base_config(adapter=None):
    return EncoderConfig(
        vocab_size=30522, hidden_size=768, num_layers=12, num_heads=12,
        intermediate_size=3072, max_seq_len=512, adapter=adapter,
    )


PRESETS = {"desk": desk_config, "bert-base": bert_base_config}


@dataclass
class FreezePolicy:
    """Trainability rule: top ``top_layers_trainable`` layers train fully.

    Layer norms (every layer plus the embedding layer norm) and the task head
    are always trainable regardless of this policy.
    """
    top_layers_trainable: int
    embeddings_trainable: bool = False
    adapters_trainable: bool = True

    def trains(self, group, layer, num_layers):
        """Whether a parameter of ``group`` in encoder ``layer`` trains."""
        if group in ("attention", "ffn"):
            return layer >= num_layers - self.top_layers_trainable
        if group == "embeddings":
            return self.embeddings_trainable
        if group == "adapters":
            return self.adapters_trainable
        return True  # layer_norms and head


class Param(NamedTuple):
    """One parameter of the model layout."""
    name: str
    shape: tuple
    group: str             # a CountReport field: embeddings, attention, ffn,
                           # layer_norms, adapters or head
    layer: Optional[int]   # encoder layer index; None outside the layers
    init: str              # normal (truncated, std 0.02), zeros or ones


def parameter_schema(config):
    """Every encoder parameter in allocation order.

    Weights are truncated-normal; biases zero; layer-norm gains one; adapter
    up-projections zero so adapters start as identities.
    """
    H, I = config.hidden_size, config.intermediate_size
    schema = []

    def add(name, shape, group, init, layer=None):
        schema.append(Param(name, shape, group, layer, init))

    for table, rows in (("token", config.vocab_size),
                        ("position", config.max_seq_len),
                        ("segment", SEGMENT_TYPES)):
        add(f"embeddings.{table}", (rows, H), "embeddings", "normal")
    add("embeddings.ln_gain", (H,), "layer_norms", "ones")
    add("embeddings.ln_bias", (H,), "layer_norms", "zeros")
    for i in range(config.num_layers):
        p = f"layer{i}"
        for proj in ("q", "k", "v", "o"):
            add(f"{p}.attn.{proj}_w", (H, H), "attention", "normal", i)
            add(f"{p}.attn.{proj}_b", (H,), "attention", "zeros", i)
        add(f"{p}.ln1_gain", (H,), "layer_norms", "ones", i)
        add(f"{p}.ln1_bias", (H,), "layer_norms", "zeros", i)
        add(f"{p}.ffn.w1", (H, I), "ffn", "normal", i)
        add(f"{p}.ffn.b1", (I,), "ffn", "zeros", i)
        add(f"{p}.ffn.w2", (I, H), "ffn", "normal", i)
        add(f"{p}.ffn.b2", (H,), "ffn", "zeros", i)
        add(f"{p}.ln2_gain", (H,), "layer_norms", "ones", i)
        add(f"{p}.ln2_bias", (H,), "layer_norms", "zeros", i)
        if config.adapter is not None:
            a = config.adapter.adapter_size
            for slot in ("adapter_attn", "adapter_ffn"):
                add(f"{p}.{slot}.down_w", (H, a), "adapters", "normal", i)
                add(f"{p}.{slot}.down_b", (a,), "adapters", "zeros", i)
                add(f"{p}.{slot}.up_w", (a, H), "adapters", "zeros", i)
                add(f"{p}.{slot}.up_b", (H,), "adapters", "zeros", i)
    return schema


def _truncated_normal(rng, shape, std=INIT_STD):
    """Normal(0, std) with redraws beyond two standard deviations.

    The array is scanned once; each round then redraws only the entries the
    previous round rejected, in flat index order, which draws the same
    values from ``rng`` as rescanning the whole array every round.
    """
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return out


_INITS = {"normal": _truncated_normal,
          "zeros": lambda rng, shape: np.zeros(shape),
          "ones": lambda rng, shape: np.ones(shape)}


class ParameterRegistry:
    """Ordered, named parameter store.

    Every parameter is allocated from a schema entry, its ``Param``, which the
    freeze policy reads. A parameter is trainable exactly when its tensor's
    ``requires_grad`` is set.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._entries: dict[str, Param] = {}

    def allocate(self, schema, seed):
        """Add every schema entry in order as a trainable parameter, which
        ``apply_freeze_policy`` may freeze; one generator draws the inits."""
        rng = np.random.default_rng(seed)
        for p in schema:
            if p.name in self._params:
                raise ValueError(f"duplicate parameter name {p.name!r}")
            # C order, so Adam can update the array block by block in place
            values = np.asarray(_INITS[p.init](rng, p.shape), order="C")
            self._params[p.name] = Tensor(values, requires_grad=True)
            self._entries[p.name] = p
        return self

    def entry(self, name):
        """The schema entry a parameter was allocated from."""
        return self._entries[name]

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return list(self._params.items())

    def is_trainable(self, name):
        return self._params[name].requires_grad

    def trainable_items(self):
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    @property
    def total_count(self):
        return sum(t.size for t in self._params.values())

    @property
    def trainable_count(self):
        return sum(t.size for _, t in self.trainable_items())


def build_encoder(config, seed, include_head=True):
    """Allocate every parameter of ``parameter_schema``, then with
    ``include_head`` the affine span head's, from one seed."""
    schema = parameter_schema(config)
    if include_head:
        schema += AFFINE_SPAN.parameter_schema(config.hidden_size)
    return ParameterRegistry().allocate(schema, seed)


def _adapter(reg, prefix, z):
    """z plus the adapter at ``prefix``, or z itself if the registry holds none."""
    if f"{prefix}.down_w" not in reg:
        return z
    down = ag.add(ag.matmul(z, reg[f"{prefix}.down_w"]), reg[f"{prefix}.down_b"])
    up = ag.add(ag.matmul(ag.gelu(down), reg[f"{prefix}.up_w"]), reg[f"{prefix}.up_b"])
    return ag.add(z, up)


def _attention(reg, config, prefix, x):
    """Multi-head self-attention over x [..., L, H]."""
    def proj(name):
        return ag.add(ag.matmul(x, reg[f"{prefix}.{name}_w"]), reg[f"{prefix}.{name}_b"])

    ctx = ag.attention(proj("q"), proj("k"), proj("v"), config.num_heads)
    return ag.add(ag.matmul(ctx, reg[f"{prefix}.o_w"]), reg[f"{prefix}.o_b"])


def embed(registry, config, tokens, segments):
    """Layer-normed token + position + segment embeddings of ids [..., L]."""
    def lookup(table, ids):
        return ag.embedding_lookup(registry[f"embeddings.{table}"], ids)

    L = np.shape(tokens)[-1]
    if L > config.max_seq_len:
        raise ValueError(f"sequence length {L} exceeds max {config.max_seq_len}")
    x = ag.add(ag.add(lookup("token", tokens), lookup("position", np.arange(L))),
               lookup("segment", segments))
    return ag.layer_norm(x, registry["embeddings.ln_gain"],
                         registry["embeddings.ln_bias"])


def layers(registry, config, x, lo, hi):
    """Run layers lo .. hi-1 on x [..., L, H], each with the adapters it holds."""
    if not 0 <= lo <= hi <= config.num_layers:
        raise ValueError(f"layers {lo}..{hi} outside 0..{config.num_layers}")
    for i in range(lo, hi):
        p = f"layer{i}"
        attn = _adapter(registry, f"{p}.adapter_attn",
                        _attention(registry, config, f"{p}.attn", x))
        x = ag.layer_norm(ag.add(x, attn), registry[f"{p}.ln1_gain"],
                          registry[f"{p}.ln1_bias"])
        h = ag.gelu(ag.add(ag.matmul(x, registry[f"{p}.ffn.w1"]),
                           registry[f"{p}.ffn.b1"]))
        ffn = _adapter(registry, f"{p}.adapter_ffn", ag.add(
            ag.matmul(h, registry[f"{p}.ffn.w2"]), registry[f"{p}.ffn.b2"]))
        x = ag.layer_norm(ag.add(x, ffn), registry[f"{p}.ln2_gain"],
                          registry[f"{p}.ln2_bias"])
    return x


def forward(registry, config, tokens, segments):
    """Every layer over ``embed``: ids [..., L] -> [..., L, hidden_size], each
    leading (batch) row encoded independently."""
    return layers(registry, config, embed(registry, config, tokens, segments),
                  0, config.num_layers)


def start_end_logits(features, w, b):
    """Per-position affine features [..., L,F] -> 2, read out as one
    [..., 2, L] tensor: row 0 holds the start logits, row 1 the end logits."""
    return ag.transpose(ag.add(ag.matmul(features, w), b))


def span_head_logits(registry, sequence_output):
    """Per-position affine hidden -> 2; returns [..., 2, L] start/end logits."""
    return start_end_logits(sequence_output, registry["head.w"],
                            registry["head.b"])


class AffineSpan:
    """BERT's span head: one [H, 2] affine map per position, drawn from the
    encoder's generator. ``cacnn.CacnnConfig`` has the same four methods."""

    def parameter_schema(self, hidden_size):
        return [Param("head.w", (hidden_size, 2), "head", None, "normal"),
                Param("head.b", (2,), "head", None, "zeros")]

    def validate(self, seq_len, hidden_size):
        """Any sequence fits."""

    def build(self, config, seed):
        return build_encoder(config, seed)

    def logits(self, registry, sequence_output):
        return span_head_logits(registry, sequence_output)


AFFINE_SPAN = AffineSpan()  # the one affine head


def apply_freeze_policy(registry, config, policy):
    """Set trainable flags in place from each parameter's schema group and
    layer; returns the registry for chaining."""
    if not 0 <= policy.top_layers_trainable <= config.num_layers:
        raise ValueError(
            f"top_layers_trainable {policy.top_layers_trainable} out of range "
            f"0..{config.num_layers}"
        )
    for name, t in registry.items():
        p = registry.entry(name)
        t.requires_grad = policy.trains(p.group, p.layer, config.num_layers)
    return registry
