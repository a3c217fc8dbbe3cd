"""Synthetic span-extraction task: dataset generation, decoding, scoring.

Each example packs a CLS-like token, a query k-gram, a separator, and a
context into one fixed-length id sequence. Answerable examples contain the
query k-gram exactly once in the context; the gold span points at it.
A gold span of (0, 0) marks an unanswerable example. Both hold by
construction: queries and contexts draw from disjoint word-id ranges, so a
needle occurs in a context only where it is inserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLS_ID = 0
SEP_ID = 1
FIRST_WORD_ID = 2  # ids below this are reserved
UNANSWERABLE_FRACTION = 1.0 / 3.0  # of every dataset a manifest runs on


@dataclass
class SpanExample:
    """One example, or a batch of them stacked by ``stack``.

    A batch holds tokens and segments [B, L] and gold spans as a [B, 2] array.
    """
    tokens: np.ndarray      # int ids, length L, position 0 is CLS
    segments: np.ndarray    # 0 on the query side, 1 on the context side
    gold_span: tuple        # (start, end) inclusive; (0, 0) = unanswerable


def stack(examples):
    """Stack equal-length examples into one batch SpanExample."""
    return SpanExample(np.stack([ex.tokens for ex in examples]),
                       np.stack([ex.segments for ex in examples]),
                       np.array([ex.gold_span for ex in examples]))


@dataclass
class SpanPrediction:
    span: tuple             # (start, end) inclusive; (0, 0) = no answer


def check_request(seq_len, vocab_size, needle_len_range=(1, 2),
                  unanswerable_fraction=0.0):
    """Raise ValueError for arguments ``generate_dataset`` cannot honour.

    Returns the first query word id: queries draw from [split, vocab_size),
    contexts from [FIRST_WORD_ID, split).
    """
    if not 0.0 <= unanswerable_fraction <= 1.0:
        raise ValueError("unanswerable_fraction must lie in [0, 1]")
    lo, hi = needle_len_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad needle_len_range {needle_len_range}")
    split = FIRST_WORD_ID + (vocab_size - FIRST_WORD_ID) // 2
    if split <= FIRST_WORD_ID or split >= vocab_size:
        raise ValueError(f"vocab_size {vocab_size} leaves too few word ids")
    context_start = 2 + hi  # CLS + longest query + SEP
    if context_start + 1 >= seq_len:
        raise ValueError(f"seq_len {seq_len} too small for needle lengths "
                         f"up to {hi}")
    if unanswerable_fraction < 1.0 and seq_len - context_start < hi:
        raise ValueError(f"seq_len {seq_len} leaves {seq_len - context_start} "
                         f"context tokens, too few to hold an answer needle "
                         f"of length {hi}")
    return split


def generate_dataset(seed, count, seq_len, vocab_size, needle_len_range=(1, 2),
                     unanswerable_fraction=0.0):
    """Deterministic synthetic dataset of ``count`` examples of length seq_len.

    Layout: [CLS] query [SEP] context, padded nowhere (context fills the
    remainder). The query is a random k-gram with k drawn from
    ``needle_len_range`` (inclusive). Queries draw from the upper half of the
    word-id range and contexts from the lower half (``check_request``), so a
    random context never contains the needle: an unanswerable context holds
    it nowhere, and an answerable one exactly once, where it is inserted.
    Each example draws k, the needle, the unanswerable flag, the context and,
    if answerable, the insert position, in that order.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    split = check_request(seq_len, vocab_size, needle_len_range,
                          unanswerable_fraction)
    lo, hi = needle_len_range
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(count):
        k = int(rng.integers(lo, hi + 1))
        needle = rng.integers(split, vocab_size, size=k)
        start = 1 + k + 1  # CLS + query + SEP
        ctx_len = seq_len - start
        unanswerable = rng.random() < unanswerable_fraction
        context = rng.integers(FIRST_WORD_ID, split, size=ctx_len)
        gold = (0, 0)
        if not unanswerable:
            pos = int(rng.integers(0, ctx_len - k + 1))
            context[pos:pos + k] = needle
            gold = (start + pos, start + pos + k - 1)
        tokens = np.concatenate(([CLS_ID], needle, [SEP_ID], context))
        segments = np.concatenate((np.zeros(start, dtype=np.int64),
                                   np.ones(ctx_len, dtype=np.int64)))
        examples.append(SpanExample(tokens.astype(np.int64), segments, gold))
    return examples


def decode_span(start_logits, end_logits, max_answer_len=30):
    """Best (start, end) pair under the joint argmax with a null comparison.

    Valid pairs satisfy 1 <= s <= e < L and e - s < max_answer_len; the null
    score is start[0] + end[0] and wins ties. Among spans, ties break toward
    the earlier start, then the shorter span. Only the band of valid lengths
    is scored: row s - 1 of a [L - 1, W] window holds the ends s .. s + W - 1,
    with W = min(max_answer_len, L - 1) and -inf past the last token.
    """
    start_logits = np.asarray(start_logits, dtype=np.float64)
    end_logits = np.asarray(end_logits, dtype=np.float64)
    L = start_logits.shape[0]
    W = min(max_answer_len, L - 1)
    if W < 1:
        return SpanPrediction((0, 0))
    null_score = start_logits[0] + end_logits[0]
    ends = np.concatenate((end_logits[1:], np.full(W - 1, -np.inf)))
    scores = (start_logits[1:, None]
              + np.lib.stride_tricks.sliding_window_view(ends, W))
    flat = int(scores.argmax())  # row-major: earliest start, then shortest span
    row, offset = divmod(flat, W)
    best = (row + 1, row + 1 + offset)
    span = (0, 0) if null_score >= scores[row, offset] else best
    return SpanPrediction(span)


def _example_scores(pred_span, gold_span):
    em = 1.0 if pred_span == gold_span else 0.0
    if gold_span == (0, 0):
        return em, 1.0 if pred_span == (0, 0) else 0.0
    if pred_span == (0, 0):
        return em, 0.0
    ps, pe = pred_span
    gs, ge = gold_span
    overlap = max(0, min(pe, ge) - max(ps, gs) + 1)
    if overlap == 0:
        return em, 0.0
    precision = overlap / (pe - ps + 1)
    recall = overlap / (ge - gs + 1)
    return em, 2.0 * precision * recall / (precision + recall)


def score(predictions, golds):
    """Mean exact-match and token-overlap F1, as percentages."""
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds differ in length")
    if not predictions:
        return 0.0, 0.0
    pairs = [
        _example_scores(p.span if isinstance(p, SpanPrediction) else tuple(p),
                        g.gold_span if isinstance(g, SpanExample) else tuple(g))
        for p, g in zip(predictions, golds)
    ]
    em = 100.0 * sum(p[0] for p in pairs) / len(pairs)
    f1 = 100.0 * sum(p[1] for p in pairs) / len(pairs)
    return em, f1
