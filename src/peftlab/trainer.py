"""Mini-batch training with Adam, freeze-aware updates, and wall-clock timing."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import accounting
from . import autograd as ag
from . import encoder as enc
from .span import decode_span, score, stack

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam moment decays and denominator floor


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 3
    learning_rate: float = 1e-3
    seed: int = 0
    max_answer_len: int = 30

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if self.max_answer_len < 1:
            raise ValueError(f"max_answer_len must be >= 1, got "
                             f"{self.max_answer_len}")


class TrainingDiverged(RuntimeError):
    def __init__(self, step, loss):
        super().__init__(f"non-finite loss {loss} at step {step}")
        self.step = step


class Adam:
    """Adam with moment buffers only for trainable parameters."""

    def __init__(self, registry, lr):
        self.registry = registry
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros(t.data.shape) for n, t in registry.trainable_items()}
        self.v = {n: np.zeros(t.data.shape) for n, t in registry.trainable_items()}

    def step(self):
        """Update, in place, every trainable tensor that has a gradient.

        The result is bit-identical to the textbook expressions

            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            data -= lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)

        because the in-place steps keep their operation order. A tensor is
        updated block by block (``autograd.blockwise``), so its two
        temporaries are block-sized buffers that stay in cache; a tensor of
        one block or less makes the same numpy calls as unblocked code.
        """
        self.t += 1
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t

        def update(data, m, v, g, scratch, quotient):
            scratch = np.multiply(1 - b1, g, out=scratch)
            m *= b1
            m += scratch
            np.multiply(1 - b2, g, out=scratch)
            scratch *= g
            v *= b2
            v += scratch
            np.divide(v, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += eps
            quotient = np.divide(m, c1, out=quotient)
            quotient *= lr
            quotient /= scratch
            data -= quotient

        for name, tensor in self.registry.trainable_items():
            if tensor.grad is not None:
                ag.blockwise(update, (tensor.data, self.m[name], self.v[name],
                                      tensor.grad), scratch=2)

    def zero_grad(self):
        for _, tensor in self.registry.items():
            tensor.zero_grad()


@dataclass
class Model:
    """Encoder plus task head; the unit train and evaluate operate on."""
    registry: "enc.ParameterRegistry"
    config: "enc.EncoderConfig"
    head: object = enc.AFFINE_SPAN  # or a CacnnConfig

    def span_logits(self, batch):
        """Start and end logits [..., 2, L] of one example or a stacked batch."""
        return self.head.logits(self.registry, enc.forward(
            self.registry, self.config, batch.tokens, batch.segments))


def build_model(config, policy, head, seed):
    """Allocate (as the head decides), freeze and count-check a model."""
    registry = head.build(config, seed)
    enc.apply_freeze_policy(registry, config, policy)
    expected = accounting.count(config, policy, head).trainable_under_policy
    if registry.trainable_count != expected:
        raise RuntimeError(
            f"registry trainable count {registry.trainable_count} disagrees "
            f"with accounting {expected}")
    return Model(registry, config, head)


@dataclass
class TrainResult:
    loss_history: list  # (step, epoch, loss)
    train_seconds: float


def example_loss(model, batch):
    """Mean of start- and end-position cross-entropy over the examples.

    ``batch`` is one SpanExample or a stacked batch of them (``span.stack``).
    """
    gold = np.asarray(batch.gold_span)  # [..., 2], as the logits' rows
    loss = ag.cross_entropy_from_logits(model.span_logits(batch), gold)
    return ag.scale(loss, 1.0 / gold.size)


def train(model, dataset, train_config):
    """Run the full loop; Adam touches only trainable-flagged parameters."""
    opt = Adam(model.registry, train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    history = []
    step = 0
    t0 = time.monotonic()
    for epoch in range(train_config.epochs):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(dataset), train_config.batch_size):
            batch = stack([dataset[i]
                           for i in order[lo:lo + train_config.batch_size]])
            opt.zero_grad()
            loss = example_loss(model, batch)  # one graph per mini-batch
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(step, loss_val)
            loss.backward()
            opt.step()
            history.append((step, epoch, loss_val))
            step += 1
    opt.zero_grad()  # the caller gets the model without the last gradients
    train_seconds = time.monotonic() - t0
    return TrainResult(history, train_seconds)


def evaluate(model, dataset, train_config):
    """Forward per ``batch_size`` chunk, decode + score per example.

    Times forward and decode only.
    """
    predictions = []
    seconds = 0.0
    with ag.no_grad():
        for lo in range(0, len(dataset), train_config.batch_size):
            batch = stack(dataset[lo:lo + train_config.batch_size])
            t0 = time.monotonic()
            for start, end in model.span_logits(batch).data:
                predictions.append(decode_span(start, end,
                                               train_config.max_answer_len))
            seconds += time.monotonic() - t0
    em, f1 = score(predictions, dataset)
    return em, f1, seconds


def efficiency_ratio(f1_percent, trainable_count):
    """(F1 - 50) / log10(trainable parameter count), F1 on the 0-100 scale."""
    if trainable_count < 2:
        raise ValueError("trainable_count must be >= 2")
    return (f1_percent - 50.0) / math.log10(trainable_count)

