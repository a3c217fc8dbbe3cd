"""Context-aware convolutional heads.

Both variants synthesize per-example convolution filters from the example's
own first-stage feature maps, then convolve those filters back over the
encoder sequence output. Only the first-stage filters (and the context
convolution, for the context-vector variant) are parameters; the synthesized
second-stage filters are activations, so gradients flow through them. An
input with leading batch axes gets one set of synthesized filters per example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autograd as ag
from .encoder import Param

CONTEXT_VECTOR = "context_vector"
SIMPLIFIED = "simplified"


@dataclass
class CacnnConfig:
    variant: str
    initial_filters: int          # feature maps from the first convolution
    initial_width: int
    sample_filters: int           # synthesized feature maps per example (K)
    sample_width: int
    context_width: int = 0        # context-vector variant only
    context_filters: int = 0      # context-vector variant only
    reduction: str = "max"        # length reduction: max or sum

    def __post_init__(self):
        if self.variant not in (CONTEXT_VECTOR, SIMPLIFIED):
            raise ValueError(f"unknown CACNN variant {self.variant!r}")
        if self.reduction not in ("max", "sum"):
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if min(self.initial_filters, self.initial_width,
               self.sample_filters, self.sample_width) < 1:
            raise ValueError("CACNN filter counts and widths must be >= 1")
        if self.variant == CONTEXT_VECTOR:
            if self.context_width < 1 or self.context_filters < 1:
                raise ValueError(
                    "context_vector variant needs context_width and "
                    "context_filters >= 1"
                )
            if self.context_width > self.initial_filters:
                raise ValueError(
                    f"context_width {self.context_width} exceeds the context "
                    f"vector length {self.initial_filters}"
                )


def validate(config, seq_len, hidden_size):
    """Reject configs whose synthesized filters cannot be materialized."""
    needed = config.sample_filters * config.sample_width * hidden_size
    if config.variant == SIMPLIFIED:
        available = seq_len * config.initial_filters
        if available < needed:
            raise ValueError(
                f"simplified CACNN needs seq_len*initial_filters >= "
                f"K*sample_width*hidden ({available} < {needed})"
            )


def parameter_schema(config, hidden_size):
    """Every head parameter in allocation order."""
    def head(name, shape, init):
        return Param(f"cacnn.{name}", shape, "head", None, init)

    n_f = config.initial_filters
    schema = [head("init_filters", (n_f, config.initial_width, hidden_size),
                   "normal"),
              head("init_bias", (n_f,), "zeros")]
    if config.variant == CONTEXT_VECTOR:
        m = config.context_filters
        schema += [head("context_filters", (m, config.context_width, 1),
                        "normal"),
                   head("context_bias", (m,), "zeros")]
    return schema + [head("head_w", (config.sample_filters, 2), "normal"),
                     head("head_b", (2,), "zeros")]


def parameter_count(config, hidden_size):
    """Trainable parameter count of the head, summed from its schema."""
    return sum(math.prod(p.shape) for p in parameter_schema(config, hidden_size))


def build_params(registry, config, hidden_size, seed):
    """Add the head's schema parameters to a registry."""
    return registry.allocate(parameter_schema(config, hidden_size), seed)


def _initial_maps(x, registry):
    return ag.add(ag.conv1d(x, registry["cacnn.init_filters"], "same"),
                  registry["cacnn.init_bias"])


def _first(flat, target):
    """The first ``target`` entries along the last axis."""
    if flat.shape[-1] == target:
        return flat
    return ag.split(flat, [target, flat.shape[-1] - target], -1)[0]


def _tile_to(flat, target):
    """Cyclically repeat along the last axis and truncate to ``target`` entries."""
    reps = -(-target // flat.shape[-1])
    return _first(ag.concat([flat] * reps, -1) if reps > 1 else flat, target)


def forward_context_vector(x, registry, config):
    """Figure-style head with context vectorization; x [..., L,H] -> [..., L,K]."""
    if config.variant != CONTEXT_VECTOR:
        raise ValueError("config is not a context_vector variant")
    lead, H = x.shape[:-2], x.shape[-1]
    maps = _initial_maps(x, registry)                            # [..., L, n_f]
    reduce = ag.max_reduce if config.reduction == "max" else ag.sum_reduce
    context = reduce(maps, -2)                                   # [..., n_f]
    signal = ag.reshape(context, lead + (config.initial_filters, 1))
    ctx_maps = ag.add(
        ag.conv1d(signal, registry["cacnn.context_filters"], "valid"),
        registry["cacnn.context_bias"],
    )                                                    # [..., n_f-w_c+1, m]
    flat = ag.reshape(ctx_maps, lead + (ctx_maps.shape[-2] * ctx_maps.shape[-1],))
    needed = config.sample_filters * config.sample_width * H
    filters = ag.reshape(
        _tile_to(flat, needed),
        lead + (config.sample_filters, config.sample_width, H),
    )
    return ag.conv1d(x, filters, "same")


def forward_simplified(x, registry, config):
    """Head without context vectorization; x [..., L,H] -> [..., L,K]."""
    if config.variant != SIMPLIFIED:
        raise ValueError("config is not a simplified variant")
    lead, (L, H) = x.shape[:-2], x.shape[-2:]
    validate(config, L, H)
    maps = _initial_maps(x, registry)                            # [..., L, n_f]
    flat = ag.reshape(maps, lead + (L * config.initial_filters,))
    needed = config.sample_filters * config.sample_width * H
    filters = ag.reshape(_first(flat, needed),
                         lead + (config.sample_filters, config.sample_width, H))
    return ag.conv1d(x, filters, "same")


def forward(x, registry, config):
    if config.variant == CONTEXT_VECTOR:
        return forward_context_vector(x, registry, config)
    return forward_simplified(x, registry, config)


def head_logits(feature_maps, registry):
    """Affine K -> 2 per position; returns (start_logits, end_logits)."""
    logits = ag.add(ag.matmul(feature_maps, registry["cacnn.head_w"]),
                    registry["cacnn.head_b"])
    start, end = ag.split(logits, [1, 1], -1)
    lead = feature_maps.shape[:-1]
    return ag.reshape(start, lead), ag.reshape(end, lead)
