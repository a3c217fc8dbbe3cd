"""Context-aware convolutional heads.

Both variants synthesize per-example convolution filters from the example's
own first-stage feature maps, then convolve those filters back over the
encoder sequence output. Only the first-stage filters (and the context
convolution, for the context-vector variant) are parameters; the synthesized
second-stage filters are activations, so gradients flow through them. An
input with leading batch axes gets one set of synthesized filters per example.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autograd as ag
from .encoder import Param, start_end_logits

CONTEXT_VECTOR = "context_vector"
SIMPLIFIED = "simplified"


@dataclass
class CacnnConfig:
    variant: str = CONTEXT_VECTOR
    initial_filters: int = 8      # feature maps from the first convolution
    initial_width: int = 3
    sample_filters: int = 4       # synthesized feature maps per example (K)
    sample_width: int = 3
    context_width: int = 0        # context-vector variant only
    context_filters: int = 0      # context-vector variant only

    def __post_init__(self):
        if self.variant not in (CONTEXT_VECTOR, SIMPLIFIED):
            raise ValueError(f"unknown CACNN variant {self.variant!r}")
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


def build_params(registry, config, hidden_size, seed):
    """Add the head's schema parameters to a registry."""
    return registry.allocate(parameter_schema(config, hidden_size), seed)


def forward(x, registry, config):
    """Synthesize per-example filters and convolve them over x.

    x [..., L,H] -> [..., L,K]. The variant only decides what the flat filter
    vector is cut from: the context-vector head convolves the max-reduced
    first feature maps and tiles the result, the simplified head truncates the
    first feature maps themselves.
    """
    lead, (L, H) = x.shape[:-2], x.shape[-2:]
    validate(config, L, H)
    maps = ag.add(ag.conv1d(x, registry["cacnn.init_filters"], "same"),
                  registry["cacnn.init_bias"])                   # [..., L, n_f]
    if config.variant == CONTEXT_VECTOR:
        signal = ag.reshape(ag.max_reduce(maps, -2),
                            lead + (config.initial_filters, 1))
        maps = ag.add(
            ag.conv1d(signal, registry["cacnn.context_filters"], "valid"),
            registry["cacnn.context_bias"],
        )                                                # [..., n_f-w_c+1, m]
    flat = ag.reshape(maps, lead + (maps.shape[-2] * maps.shape[-1],))
    needed = config.sample_filters * config.sample_width * H
    reps = -(-needed // flat.shape[-1])  # validate keeps simplified at 1
    if reps > 1:
        flat = ag.concat([flat] * reps, -1)
    if flat.shape[-1] > needed:
        flat = ag.split(flat, [needed, flat.shape[-1] - needed], -1)[0]
    filters = ag.reshape(flat, lead + (config.sample_filters,
                                       config.sample_width, H))
    return ag.conv1d(x, filters, "same")


def head_logits(feature_maps, registry):
    """Affine K -> 2 per position; returns (start_logits, end_logits)."""
    return start_end_logits(feature_maps, registry["cacnn.head_w"],
                            registry["cacnn.head_b"])
