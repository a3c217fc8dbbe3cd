"""Outside-in tracing of peftlab's public functions for the traced benchmark run.

The tracer replaces each public function where its callers look it up (a
module attribute, or a method on its class), records what it needs, and puts
every original back on exit. Module-level calls become spans (name, start,
end, parent) kept in memory; autograd ops, which run thousands of times per
step, are only counted and timed, together with the matmul weight-gradient
FLOPs and the dense embedding-gradient bytes their operands imply.
"""

from __future__ import annotations

import functools
import json
import math
import time

from peftlab import accounting, autograd, cacnn, encoder, span, trainer

# (owner, attribute, span name). Owners are where callers look the name up:
# trainer imports decode_span and score by name, so they are patched there.
SPAN_TARGETS = [
    (trainer, "train", "trainer.train"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "example_loss", "trainer.example_loss"),
    (trainer.Adam, "zero_grad", "trainer.zero_grad"),
    (trainer.Adam, "step", "trainer.adam_step"),
    (autograd.Tensor, "backward", "autograd.backward"),
    (trainer, "decode_span", "span.decode"),
    (trainer, "score", "span.score"),
    (span, "generate_dataset", "span.generate"),
    (encoder, "build_encoder", "encoder.build"),
    (encoder, "apply_freeze_policy", "encoder.freeze"),
    (encoder, "forward", "encoder.forward"),
    (encoder, "span_head_logits", "encoder.head"),
    (cacnn, "validate", "cacnn.validate"),
    (cacnn, "build_params", "cacnn.build"),
    (cacnn, "forward", "cacnn.forward"),
    (cacnn, "head_logits", "cacnn.head"),
    (accounting, "count", "accounting.count"),
]

OPS = ["matmul", "add", "scale", "gelu", "layer_norm", "softmax", "split",
       "concat", "reshape", "transpose", "conv1d", "max_reduce",
       "embedding_lookup", "cross_entropy_from_logits"]

PHASES = {"trainer.train": "train", "trainer.evaluate": "eval"}


def patch_targets():
    """Every (owner, attribute) the tracer replaces."""
    return [(o, a) for o, a, _ in SPAN_TARGETS] + [(autograd, op) for op in OPS]


class Tracer:
    """Collects spans and op counters while installed (``with tracer:``)."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1, row, phase]
        self.ops = {op: [0, 0.0] for op in OPS}   # calls, seconds
        self.row = None
        self.phase = None
        self.train_nodes = 0
        self.wgrad_flops = {}    # row -> [frozen-leaf FLOPs, all leaf FLOPs]
        self.embedding_grad_bytes = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name in SPAN_TARGETS:
            self._patch(owner, attr, self._span_wrapper(owner.__dict__[attr], name))
        for op in OPS:
            self._patch(autograd, op, self._op_wrapper(autograd.__dict__[op], op))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name):
        phase = PHASES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_phase = self.phase
            self.phase = phase or outer_phase
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent, self.row, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
                self.phase = outer_phase

        return wrapper

    def _op_wrapper(self, fn, op):
        stat = self.ops[op]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            stat[1] += time.perf_counter() - t0
            stat[0] += 1
            if self.phase == "train":
                outs = out if isinstance(out, list) else (out,)
                recorded = sum(1 for t in outs if t._backward is not None)
                self.train_nodes += recorded
                if recorded:
                    self._weight_costs(op, args)
            return out

        return wrapper

    def _weight_costs(self, op, args):
        """Gradient work the recorded node will do for its leaf operands."""
        if op == "matmul":
            a, b = args[0], args[1]
            if isinstance(b, autograd.Tensor) and b._backward is None:
                flops = 2 * a.shape[0] * a.shape[1] * b.shape[1]  # a.T @ g
                acc = self.wgrad_flops.setdefault(self.row, [0, 0])
                acc[1] += flops
                if not b.requires_grad:
                    acc[0] += flops
        elif op == "embedding_lookup":
            table = args[0]
            if isinstance(table, autograd.Tensor) and table.requires_grad:
                self.embedding_grad_bytes += table.data.nbytes

    def write(self, path, header):
        """Write a header line, then one JSON line per span (times in s)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, row, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "row": row,
                                     "phase": phase, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, traced_rounds, train_examples, row_labels):
    """Per-layer metrics from the traced rounds (units as in BENCHMARK.json).

    ``_ms``/``_s`` values without ``per_ex`` are means per call; ``.calls``
    are calls per traced round. A layer or row the workload never runs
    reads 0.
    """
    def durations(name, phase=None):
        return [end - start for n, start, end, _, _, p in tracer.spans
                if n == name and (phase is None or p == phase)]

    steps = []
    opened = None
    for name, start, end, *_ in tracer.spans:
        if name == "trainer.zero_grad":
            opened = start
        elif name == "trainer.adam_step" and opened is not None:
            steps.append(1000.0 * (end - opened))
            opened = None
    steps.sort()

    flops_frozen = sum(v[0] for v in tracer.wgrad_flops.values())
    flops_all = sum(v[1] for v in tracer.wgrad_flops.values())
    m = {
        "trainer.fwd_ms_per_ex":
            1000.0 * sum(durations("trainer.example_loss")) / train_examples,
        "trainer.bwd_ms_per_ex":
            1000.0 * sum(durations("autograd.backward")) / train_examples,
        "trainer.adam_ms_per_step": 1000.0 * _mean(durations("trainer.adam_step")),
        "trainer.step_ms_p50": _percentile(steps, 0.5),
        "trainer.step_ms_p90": _percentile(steps, 0.9),
        "trainer.steps": len(steps),
        "encoder.forward_ms.grad": 1000.0 * _mean(durations("encoder.forward", "train")),
        "encoder.forward_ms.nograd": 1000.0 * _mean(durations("encoder.forward", "eval")),
        "encoder.head_ms": 1000.0 * _mean(durations("encoder.head")),
        "encoder.build_s": _mean(durations("encoder.build")),
        "cacnn.forward_ms": 1000.0 * _mean(durations("cacnn.forward")),
        "cacnn.head_ms": 1000.0 * _mean(durations("cacnn.head")),
        "span.generate_s": _mean(durations("span.generate")),
        "span.decode_ms": 1000.0 * _mean(durations("span.decode")),
        "span.decode.calls": len(durations("span.decode")) / traced_rounds,
        "span.score_ms": 1000.0 * _mean(durations("span.score")),
        "accounting.count_ms": 1000.0 * _mean(durations("accounting.count")),
        "autograd.nodes_per_ex": tracer.train_nodes / train_examples,
        "autograd.backward_ms": 1000.0 * _mean(durations("autograd.backward")),
        "autograd.weight_grad_waste_share": _share(flops_frozen, flops_all),
        "autograd.embedding_grad_mb":
            tracer.embedding_grad_bytes / 1e6 / train_examples,
    }
    for op, (calls, seconds) in tracer.ops.items():
        m[f"autograd.{op}.calls"] = calls / traced_rounds
        m[f"autograd.{op}.fwd_ms"] = 1000.0 * _share(seconds, calls)
    for row in row_labels:
        m[f"autograd.weight_grad_waste_share.{row}"] = _share(
            *tracer.wgrad_flops.get(row, (0, 0)))
    return m


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]
