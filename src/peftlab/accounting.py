"""Trainable-parameter accounting at arbitrary scale.

Counts sum the shapes of the parameter schema under the freeze policy's rule
and never allocate weights, so full BERT-base bookkeeping runs instantly.
Whenever a registry is actually built, these numbers must match it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .encoder import AFFINE_SPAN, parameter_schema

# Published figures that disagree with first-principles arithmetic; reported
# alongside our closed-form counts, never silently substituted.
REPORTED_FULL_FINETUNE = 108_311_810
REPORTED_FROZEN_ADAPTER_64 = 2_417_664
IMPLIED_EMBEDDING_TOTAL = 23_254_272   # what the published full-model count implies
STANDARD_EMBEDDING_TOTAL = 23_835_648  # 30522*768 + 512*768 + 2*768


@dataclass
class CountReport:
    embeddings: int      # token + position + segment tables (no layer norm)
    attention: int       # all layers
    ffn: int             # all layers
    layer_norms: int     # per-layer pairs plus the embedding layer norm
    adapters: int
    head: int
    trainable_under_policy: int
    footnote: str = ""

    @property
    def total(self):
        return (self.embeddings + self.attention + self.ffn + self.layer_norms
                + self.adapters + self.head)


def model_schema(config, head=AFFINE_SPAN):
    """Every parameter of the encoder and ``head``, in allocation order."""
    return parameter_schema(config) + head.parameter_schema(config.hidden_size)


def count(config, policy, head=AFFINE_SPAN):
    groups = dict.fromkeys(("embeddings", "attention", "ffn", "layer_norms",
                            "adapters", "head"), 0)
    trainable = 0
    for p in model_schema(config, head):
        size = math.prod(p.shape)
        groups[p.group] += size
        if policy.trains(p.group, p.layer, config.num_layers):
            trainable += size
    footnote = _footnote(config, policy, trainable, groups["head"])
    return CountReport(**groups, trainable_under_policy=trainable,
                       footnote=footnote)


def _footnote(config, policy, trainable, head):
    at_bert_base = (config.hidden_size == 768 and config.num_layers == 12
                    and config.vocab_size == 30522)
    if not at_bert_base:
        return ""
    full_finetune = (policy.top_layers_trainable == config.num_layers
                     and policy.embeddings_trainable and config.adapter is None)
    if full_finetune:
        return (
            f"published full fine-tune count is {REPORTED_FULL_FINETUNE:,} "
            f"(implies an embedding total of {IMPLIED_EMBEDDING_TOTAL:,}, vs "
            f"standard {STANDARD_EMBEDDING_TOTAL:,}); closed form gives "
            f"{trainable:,}"
        )
    frozen_a64 = (policy.top_layers_trainable == 0
                  and not policy.embeddings_trainable
                  and config.adapter is not None
                  and config.adapter.adapter_size == 64
                  and policy.adapters_trainable)
    if frozen_a64:
        return (
            f"published count is {REPORTED_FROZEN_ADAPTER_64:,}, exactly the "
            f"closed form {trainable:,} minus the {head:,}-parameter head"
        )
    return ""


def table_report(rows):
    """Render (label, config, policy, head) rows as a text table.

    EM/F1/time columns stay blank; this is an accounting view, not a run
    report.
    """
    headers = ["label", "layers trained", "trainable params", "EM", "F1",
               "train s", "inference s"]
    table_rows = []
    footnotes = []
    for label, config, policy, head in rows:
        rep = count(config, policy, head)
        value = f"{rep.trainable_under_policy:,}"
        if rep.footnote:
            value += "†" * (len(footnotes) + 1)
            footnotes.append(rep.footnote)
        table_rows.append([label, str(policy.top_layers_trainable), value,
                           "", "", "", ""])
    widths = [max(len(h), *(len(r[i]) for r in table_rows)) if table_rows
              else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in table_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for i, note in enumerate(footnotes):
        lines.append(f"{'†' * (i + 1)} {note}")
    return "\n".join(lines) + "\n"
