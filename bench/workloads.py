"""Workloads of the peftlab benchmark and the closed loop that measures them.

A round runs every row of a workload once, one after another: set up (data,
model, freeze policy, accounting cross-check), train, then evaluate on a
held-out set. Rounds repeat until the time budget is spent. Each round starts
every row from the same seeds, so every round must reproduce the first one's
losses and predicted spans exactly; a traced round is held to that too.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from peftlab import accounting, cacnn, encoder, span, trainer
from peftlab.encoder import AdapterConfig, FreezePolicy

import tracing

AFFINE = accounting.AFFINE_SPAN
UNANSWERABLE = 1.0 / 3.0
MAX_ANSWER_LEN = 30


@dataclass
class Row:
    label: str
    config: encoder.EncoderConfig
    policy: FreezePolicy
    head: object                # AFFINE or a cacnn.CacnnConfig
    seq_len: int
    train_count: int
    eval_count: int
    batch_size: int
    learning_rate: float = 1e-3


def _context_vector_head():
    return cacnn.CacnnConfig(variant=cacnn.CONTEXT_VECTOR, initial_filters=8,
                             initial_width=3, context_width=3, context_filters=4,
                             sample_filters=4, sample_width=3)


def desk_sweep(smoke=False):
    """The five manifests/desk.cfg rows at L=64: bound by per-node Python cost."""
    n_train, n_eval = (16, 4) if smoke else (128, 64)

    def row(label, k, adapter=None, head=AFFINE):
        return Row(label, encoder.desk_config(adapter=adapter),
                   FreezePolicy(k, embeddings_trainable=k == 2), head,
                   64, n_train, n_eval, 8)

    return [row("L-all", 2), row("L-half", 1), row("L0", 0),
            row("L0-A8", 0, adapter=AdapterConfig(8)),
            row("L0-CACNNv", 0, head=_context_vector_head())]


def bert_freeze(smoke=False):
    """BERT-base at L=128, batch 2, k=0 and k=6: bound by BLAS and memory.

    The rate is a usual BERT fine-tuning one; at the desk rate of 1e-3 a
    single Adam step over 42M weights leaves a loss that swings with the seed.
    """
    seq_len, n_train, n_eval = (16, 2, 1) if smoke else (128, 6, 4)
    return [Row(f"bert-L{k}", encoder.bert_base_config(), FreezePolicy(k),
                AFFINE, seq_len, n_train, n_eval, 2, learning_rate=5e-5)
            for k in (0, 6)]


def desk_long(smoke=False):
    """Desk widths at L=256, k=0: work that grows with sequence length."""
    n_train, n_eval = (8, 2) if smoke else (48, 24)

    def row(label, head):
        config = encoder.desk_config()
        config.max_seq_len = 256
        return Row(label, config, FreezePolicy(0), head, 256, n_train, n_eval, 8)

    simplified = cacnn.CacnnConfig(variant=cacnn.SIMPLIFIED, initial_filters=8,
                                   initial_width=3, sample_filters=4,
                                   sample_width=3)
    return [row("long-L0", AFFINE), row("long-CACNNs", simplified)]


WORKLOADS = {"desk-sweep": desk_sweep, "bert-freeze": bert_freeze,
             "desk-long": desk_long}
ROW_LABELS = [r.label for build in WORKLOADS.values() for r in build(smoke=True)]


@dataclass
class RowRun:
    label: str
    setup_s: float = 0.0
    train_s: float = 0.0
    infer_s: float = 0.0
    train_examples: int = 0
    eval_examples: int = 0
    losses: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    error: str | None = None


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _frozen_digests(registry):
    return {name: hashlib.sha256(memoryview(t.data)).digest()
            for name, t in registry.items() if not registry.is_trainable(name)}


@contextmanager
def _captured_predictions():
    """Record the predictions ``trainer.evaluate`` hands to ``score``."""
    seen = []
    score = trainer.score

    def capture(predictions, golds):
        seen.append(predictions)
        return score(predictions, golds)

    trainer.score = capture
    try:
        yield seen
    finally:
        trainer.score = score


def _valid_span(s, e, length):
    return (s, e) == (0, 0) or (1 <= s <= e < length and e - s < MAX_ANSWER_LEN)


def run_row(row, seed):
    """Set up, train and evaluate one row; checks failing are recorded."""
    run = RowRun(row.label)
    hidden = row.config.hidden_size
    try:
        t0 = time.perf_counter()
        # evaluation data comes from a seed no training set ever uses
        train_set = span.generate_dataset(
            2 * seed, row.train_count, row.seq_len, row.config.vocab_size,
            unanswerable_fraction=UNANSWERABLE)
        eval_set = span.generate_dataset(
            2 * seed + 1, row.eval_count, row.seq_len, row.config.vocab_size,
            unanswerable_fraction=UNANSWERABLE)
        registry = encoder.build_encoder(row.config, seed,
                                         include_head=row.head == AFFINE)
        if row.head != AFFINE:
            cacnn.validate(row.head, row.seq_len, hidden)
            cacnn.build_params(registry, row.head, hidden, seed + 1)
        encoder.apply_freeze_policy(registry, row.config, row.policy)
        expected = accounting.count(row.config, row.policy,
                                    row.head).trainable_under_policy
        counted = registry.trainable_count
        run.setup_s = time.perf_counter() - t0
        _require(counted == expected, f"registry trains {counted} parameters, "
                                      f"accounting counts {expected}")

        frozen = _frozen_digests(registry)
        model = trainer.Model(registry, row.config, row.head)
        tc = trainer.TrainConfig(batch_size=row.batch_size, epochs=1, seed=seed,
                                 learning_rate=row.learning_rate,
                                 max_answer_len=MAX_ANSWER_LEN)
        t0 = time.perf_counter()
        result = trainer.train(model, train_set, tc)
        run.train_s = time.perf_counter() - t0
        run.train_examples = len(train_set)
        run.losses = [loss for _, _, loss in result.loss_history]
        steps = math.ceil(row.train_count / row.batch_size)
        _require(len(run.losses) == steps,
                 f"{len(run.losses)} training steps, expected {steps}")
        _require(all(math.isfinite(x) for x in run.losses), "non-finite loss")
        _require(_frozen_digests(registry) == frozen,
                 "a frozen parameter changed during training")

        with _captured_predictions() as seen:
            t0 = time.perf_counter()
            trainer.evaluate(model, eval_set, tc)
            run.infer_s = time.perf_counter() - t0
        run.eval_examples = len(eval_set)
        run.spans = [tuple(int(i) for i in p.span) for p in seen[0]]
        _require(len(run.spans) == len(eval_set),
                 f"{len(run.spans)} predictions for {len(eval_set)} examples")
        bad = [sp for sp in run.spans if not _valid_span(*sp, row.seq_len)]
        _require(not bad, f"invalid decoded spans {bad[:3]}")
    except Exception as exc:  # a failing row is counted, the sweep goes on
        run.error = f"{type(exc).__name__}: {exc}"
    return run


@dataclass
class Outcome:
    rows: list
    rounds: list                 # (traced, [RowRun per row])
    tracer: tracing.Tracer | None

    @property
    def attempted(self):
        return sum(len(runs) for _, runs in self.rounds)

    @property
    def failed(self):
        return sum(r.error is not None for _, runs in self.rounds for r in runs)


def run_workload(name, seed, seconds, trace, smoke=False):
    """Closed loop over rounds; with ``trace`` rounds alternate untraced/traced."""
    rows = WORKLOADS[name](smoke)
    tracer = tracing.Tracer() if trace else None
    rounds = []
    deadline = time.perf_counter() + seconds
    while (not rounds or time.perf_counter() < deadline
           or (trace and len(rounds) < 2)):
        traced = trace and len(rounds) % 2 == 1
        runs = []
        with tracer if traced else nullcontext():
            for row in rows:
                if traced:
                    tracer.row = row.label
                runs.append(run_row(row, seed))
        rounds.append((traced, runs))

    first = rounds[0][1]
    for _, runs in rounds[1:]:
        for ref, run in zip(first, runs):
            if run.error is None and ref.error is None and (
                    run.losses != ref.losses or run.spans != ref.spans):
                run.error = "losses or spans differ from the first round"
    return Outcome(rows, rounds, tracer)


def _ok(runs):
    return [r for r in runs if r.error is None]


def _rates(runs):
    """(train ex/s, infer ex/s, setup s) pooled over the successful rows."""
    ok = _ok(runs)
    train_s = sum(r.train_s for r in ok)
    infer_s = sum(r.infer_s for r in ok)
    return (sum(r.train_examples for r in ok) / train_s if train_s else 0.0,
            sum(r.eval_examples for r in ok) / infer_s if infer_s else 0.0,
            sum(r.setup_s for r in ok))


def _median_rates(outcome, traced):
    rates = [_rates(runs) for t, runs in outcome.rounds if t == traced]
    return [statistics.median(col) for col in zip(*rates)]


def end_to_end(outcome):
    """End-to-end metrics, from the untraced rounds only."""
    train_rate, infer_rate, setup_s = _median_rates(outcome, traced=False)
    # mean over all steps: bert rows take only three, and at batch 2 the
    # loss of any one step swings with the examples the seed draws
    losses = [sum(r.losses) / len(r.losses) for r in _ok(outcome.rounds[0][1])]
    return {
        "train_ex_per_s": train_rate,
        "infer_ex_per_s": infer_rate,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_loss_final": sum(losses) / len(losses) if losses else 0.0,
    }


def row_train_ms(outcome):
    """Median train ms per example of each row over the untraced rounds."""
    per_row = {}
    for traced, runs in outcome.rounds:
        for run in _ok(runs):
            if not traced:
                per_row.setdefault(run.label, []).append(
                    1000.0 * run.train_s / run.train_examples)
    return {label: statistics.median(v) for label, v in per_row.items()}


def per_layer(outcome):
    """Per-layer metrics of a traced run, plus the tracing overhead."""
    traced = [runs for t, runs in outcome.rounds if t]
    train_examples = sum(r.train_examples for runs in traced for r in _ok(runs))
    m = tracing.layer_metrics(outcome.tracer, len(traced),
                              max(1, train_examples), ROW_LABELS)

    row_ms = row_train_ms(outcome)
    for label in ROW_LABELS:
        m[f"trainer.train_ms_per_ex.{label}"] = row_ms.get(label, 0.0)
    freeze_axis = [r for r in outcome.rows if r.head == AFFINE
                   and r.config.adapter is None and r.label in row_ms]
    base = [r for r in freeze_axis if r.policy.top_layers_trainable == 0]
    top = max(freeze_axis, key=lambda r: r.policy.top_layers_trainable,
              default=None)
    m["trainer.freeze_speedup"] = (row_ms[top.label] / row_ms[base[0].label]
                                   if base and top else 0.0)

    plain = _median_rates(outcome, traced=False)
    with_trace = _median_rates(outcome, traced=True)
    for i, phase in enumerate(("train", "infer")):
        m[f"trace.overhead_{phase}_ms_per_ex"] = (
            1000.0 * (1 / with_trace[i] - 1 / plain[i])
            if with_trace[i] and plain[i] else 0.0)
    return m
