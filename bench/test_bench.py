"""Self-tests of the benchmark: ``python -m pytest bench`` (about a minute).

Each workload runs once untraced and once traced at smoke size. The tests
check that every metric of BENCHMARK.json is reported with its unit, that
tracing changes no loss and no predicted span, that no wrapper outlives a
traced run, and that the per-row correctness gate catches broken output.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from peftlab import accounting, autograd, span, trainer  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
ORIGINALS = {(owner, attr): owner.__dict__[attr]
             for owner, attr in tracing.patch_targets()}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def outcomes(request):
    plain = workloads.run_workload(request.param, seed=3, seconds=0,
                                   trace=False, smoke=True)
    traced = workloads.run_workload(request.param, seed=3, seconds=0,
                                    trace=True, smoke=True)
    return plain, traced


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_present_with_its_unit(outcomes):
    plain, traced = outcomes
    for outcome, values, key in (
            (plain, workloads.end_to_end(plain), "end_to_end"),
            (traced, workloads.per_layer(traced), "per_layer")):
        res = run.result(outcome, values, SPEC[key])
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert [(n, m["unit"]) for n, m in res["metrics"].items()] == \
            [(s["name"], s["unit"]) for s in SPEC[key]]
        assert all(isinstance(m["value"], (int, float))
                   for m in res["metrics"].values())
    assert all(workloads.end_to_end(plain)[s["name"]] > 0
               for s in SPEC["end_to_end"])


def test_tracing_changes_no_loss_and_no_span(outcomes):
    plain, traced = outcomes
    assert [t for t, _ in traced.rounds] == [False, True]
    for runs in (traced.rounds[0][1], traced.rounds[1][1]):
        assert [(r.losses, r.spans) for r in runs] == \
            [(r.losses, r.spans) for r in plain.rounds[0][1]]


def test_no_wrapper_remains_after_a_traced_run(outcomes):
    for (owner, attr), original in ORIGINALS.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    assert trainer.score is span.score
    assert trainer.decode_span is span.decode_span


def test_weight_grad_waste_share_follows_the_freeze_policy(outcomes):
    _, traced = outcomes
    shares = workloads.per_layer(traced)
    labels = [r.label for r in traced.rows]
    if "L-all" in labels:
        assert shares["autograd.weight_grad_waste_share.L-all"] == 0.0
    if "bert-L0" in labels:
        assert shares["autograd.weight_grad_waste_share.bert-L0"] > 0.9999


def _break_count(monkeypatch):
    count = accounting.count

    def wrong(*args):
        rep = count(*args)
        return dataclasses.replace(
            rep, trainable_under_policy=rep.trainable_under_policy + 1)
    monkeypatch.setattr(accounting, "count", wrong)


def _touch_frozen_weight(monkeypatch):
    step = trainer.Adam.step

    def leaky(self):
        step(self)
        self.registry["layer0.ffn.w1"].data[0, 0] += 1e-12
    monkeypatch.setattr(trainer.Adam, "step", leaky)


def _nan_loss(monkeypatch):
    example_loss = trainer.example_loss
    monkeypatch.setattr(trainer, "example_loss", lambda model, ex: autograd.scale(
        example_loss(model, ex), float("nan")))


def _bad_span(monkeypatch):
    decode = trainer.decode_span

    def backwards(start, end, max_len):
        pred = decode(start, end, max_len)
        return dataclasses.replace(pred, span=(5, 4))
    monkeypatch.setattr(trainer, "decode_span", backwards)


@pytest.mark.parametrize("sabotage", [_break_count, _touch_frozen_weight,
                                      _nan_loss, _bad_span])
def test_correctness_gate_fails_the_row(monkeypatch, sabotage):
    row = workloads.desk_sweep(smoke=True)[2]   # L0: layer0 is frozen
    assert workloads.run_row(row, seed=3).error is None
    sabotage(monkeypatch)
    assert workloads.run_row(row, seed=3).error is not None


def test_cli_in_its_own_process():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "desk-long", "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("env "):])
    assert {"nproc", "blas_threads", "numpy", "commit"} <= set(env)
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["attempted"] == 2


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    os.mkdir(tmp_path / "bench")
    for name in ("run.py", "workloads.py", "tracing.py"):
        with open(os.path.join(BENCH, name), encoding="utf-8") as src:
            (tmp_path / "bench" / name).write_text(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
