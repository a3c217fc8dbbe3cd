"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (run with -s to see them all).
The three desk-scale training runs are shared across the freeze-immutability
and learning-signal tests through a module-scoped fixture.
"""

import csv
import os
import time

import numpy as np
import pytest

from peftlab import accounting, checks, cli, encoder as enc
from peftlab import autograd as ag
from peftlab import cacnn
from peftlab.cacnn import CONTEXT_VECTOR, SIMPLIFIED, CacnnConfig
from peftlab.encoder import (AdapterConfig, EncoderConfig, FreezePolicy,
                             bert_base_config, desk_config)
from peftlab.span import decode_span, generate_dataset, score
from peftlab.trainer import (TrainConfig, build_model, efficiency_ratio,
                             evaluate, train)

from oracles import (cacnn_context_vector_loops, cacnn_simplified_loops,
                     conv1d_loops, decode_span_enumeration)
import pinned_values

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_runs():
    """Train the desk preset under k in {0, 1, 2} on the standard dataset."""
    dataset = generate_dataset(seed=0, count=2000, seq_len=64, vocab_size=64,
                               unanswerable_fraction=1.0 / 3.0)
    tc = TrainConfig(batch_size=8, epochs=3, seed=0)
    runs = {}
    t0 = time.monotonic()
    for k in (0, 1, 2):
        cfg = desk_config()
        model = build_model(cfg, FreezePolicy(k, embeddings_trainable=k == 2),
                            enc.AFFINE_SPAN, seed=0)
        reg = model.registry
        frozen_before = {n: t.data.copy() for n, t in reg.items()
                         if not reg.is_trainable(n)}
        train(model, dataset, tc)
        em, f1, _ = evaluate(model, dataset, tc)
        runs[k] = (reg, frozen_before, em, f1)
    runs["seconds"] = time.monotonic() - t0
    return runs


def test_1_parameter_count_reproduction():
    t0 = time.monotonic()
    sweep = {k: accounting.count(bert_base_config(),
                                 FreezePolicy(k)).trainable_under_policy
             for k in (0, 1, 3, 6)}
    ok = sweep == {0: 39_938, 1: 7_124_738, 3: 21_294_338, 6: 42_548_738}

    a768 = accounting.count(bert_base_config(adapter=AdapterConfig(768)),
                            FreezePolicy(0))
    ok &= a768.trainable_under_policy == 28_388_354

    full = FreezePolicy(12, embeddings_trainable=True)
    delta = (accounting.count(bert_base_config(adapter=AdapterConfig(64)),
                              full).trainable_under_policy
             - accounting.count(bert_base_config(), full).trainable_under_policy)
    ok &= delta == 2_379_264

    l12 = accounting.count(bert_base_config(), full)
    a64 = accounting.count(bert_base_config(adapter=AdapterConfig(64)),
                           FreezePolicy(0))
    ok &= "108,311,810" in l12.footnote and "2,417,664" in a64.footnote

    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report("1 parameter-count reproduction", ok, f"{elapsed:.3f}s")


def test_2_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    failures = []
    for seed in range(10):
        for name, err, passed in checks.run_suite(seed):
            worst = max(worst, err)
            if not passed:
                failures.append(f"{name}@{seed}")
    elapsed = time.monotonic() - t0
    ok = not failures and worst < 1e-4 and elapsed < 120.0
    report("2 gradient correctness, 10 seeds", ok,
           f"max_rel_err={worst:.2e}, {elapsed:.1f}s")


def test_3_adapter_identity_at_init():
    rng = np.random.default_rng(30)
    ok = True
    for trial in range(5):
        heads = int(rng.integers(1, 4))
        h = heads * int(rng.integers(2, 6))
        cfg = EncoderConfig(
            vocab_size=int(rng.integers(8, 40)), hidden_size=h,
            num_layers=int(rng.integers(1, 4)), num_heads=heads,
            intermediate_size=int(rng.integers(4, 33)),
            max_seq_len=16,
        )
        adapted_cfg = EncoderConfig(**{**cfg.__dict__,
                                       "adapter": AdapterConfig(
                                           int(rng.integers(1, 9)))})
        plain = enc.build_encoder(cfg, seed=trial)
        adapted = enc.build_encoder(adapted_cfg, seed=trial + 100)
        for name, t in plain.items():
            adapted[name].data = t.data.copy()
        tokens = rng.integers(0, cfg.vocab_size, size=10)
        segments = (np.arange(10) >= 5).astype(np.int64)
        out_plain = enc.forward(plain, cfg, tokens, segments)
        out_adapted = enc.forward(adapted, adapted_cfg, tokens, segments)
        ok &= np.array_equal(out_plain.data, out_adapted.data)
    report("3 adapter identity-at-init, 5 random configs", ok)


def test_4_freeze_immutability(desk_runs):
    # desk preset has N=2, so k in {0, 1, N/2, N} collapses to {0, 1, 2}
    ok = True
    checked = 0
    for k in (0, 1, 2):
        reg, frozen_before, _, _ = desk_runs[k]
        for name, values in frozen_before.items():
            ok &= np.array_equal(reg[name].data, values)
            checked += 1
    report("4 freeze immutability after full training, k in {0,1,2}", ok,
           f"{checked} frozen tensors bit-identical")


def test_5_oracle_equivalence():
    rng = np.random.default_rng(50)
    ok = True

    for L in range(1, 9):
        for c in (1, 2):
            for n_f in (1, 3):
                for w in range(1, L + 1):
                    x = ag.Tensor(rng.standard_normal((L, c)))
                    f = ag.Tensor(rng.standard_normal((n_f, w, c)))
                    for mode in ("same", "valid"):
                        got = ag.conv1d(x, f, mode).data
                        ok &= np.array_equal(got,
                                             conv1d_loops(x.data, f.data, mode))

    for trial in range(300):
        L = int(rng.integers(1, 13))
        mal = int(rng.integers(1, 8))
        s, e = rng.standard_normal(L), rng.standard_normal(L)
        ok &= decode_span(s, e, mal).span == decode_span_enumeration(s, e, mal)

    from peftlab.encoder import ParameterRegistry
    for L in (2, 4, 6):
        for H in (1, 3):
            for n_f in (1, 4):
                for w1 in (1, 2):
                    for K in (1, 2):
                        x = rng.standard_normal((L, H))
                        ctx = CacnnConfig(CONTEXT_VECTOR, n_f, w1, K, 1,
                                          context_width=1, context_filters=2)
                        reg = ParameterRegistry()
                        cacnn.build_params(reg, ctx, H, seed=L)
                        got = cacnn.forward(ag.Tensor(x), reg, ctx).data
                        want = cacnn_context_vector_loops(
                            x, reg["cacnn.init_filters"].data,
                            reg["cacnn.init_bias"].data,
                            reg["cacnn.context_filters"].data,
                            reg["cacnn.context_bias"].data, K, 1, "max")
                        ok &= np.array_equal(got, want)
                        simple = CacnnConfig(SIMPLIFIED, n_f, w1, K, 1)
                        if L * n_f >= K * H:
                            reg = ParameterRegistry()
                            cacnn.build_params(reg, simple, H, seed=L + 1)
                            got = cacnn.forward(ag.Tensor(x), reg,
                                                simple).data
                            want = cacnn_simplified_loops(
                                x, reg["cacnn.init_filters"].data,
                                reg["cacnn.init_bias"].data, K, 1)
                            ok &= np.array_equal(got, want)
    report("5 oracle equivalence: conv1d, decode_span, CACNN", ok)


def test_6_metric_correctness():
    em, f1 = score([(84, 86)], [(84, 85)])
    ok = em == 0.0 and abs(f1 - 80.0) < 1e-12
    ok &= score([(0, 0)], [(0, 0)]) == (100.0, 100.0)
    ok &= score([(0, 0)], [(2, 3)]) == (0.0, 0.0)
    ok &= score([(2, 3)], [(0, 0)]) == (0.0, 0.0)

    rng = np.random.default_rng(60)
    for trial in range(100):
        n = int(rng.integers(1, 25))
        preds, golds = [], []
        for spans in (preds, golds):
            for _ in range(n):
                if rng.random() < 0.2:
                    spans.append((0, 0))
                else:
                    s = int(rng.integers(1, 12))
                    spans.append((s, s + int(rng.integers(0, 5))))
        em, f1 = score(preds, golds)
        ok &= f1 >= em
    report("6 metric correctness: worked examples, F1 >= EM x100", ok)


def test_7_desk_scale_learning_signal(desk_runs):
    f1_frozen = desk_runs[0][3]
    f1_half = desk_runs[1][3]
    f1_full = desk_runs[2][3]
    seconds = desk_runs["seconds"]
    ok = f1_full >= pinned_values.DESK_FULL_F1_MIN
    ok &= f1_half >= pinned_values.DESK_TOP_HALF_F1_MIN
    ok &= f1_frozen >= pinned_values.DESK_FROZEN_F1_MIN
    ok &= f1_full >= f1_half >= f1_frozen
    ok &= seconds < 600.0
    report("7 desk-scale learning signal", ok,
           f"F1 full={f1_full:.1f} half={f1_half:.1f} frozen={f1_frozen:.1f}, "
           f"{seconds:.0f}s")


def test_8_efficiency_ratio():
    value = efficiency_ratio(75.2, 42_548_738)
    ok = abs(value - 3.30) <= 0.01
    report("8 efficiency ratio", ok, f"{value:.4f}")


def test_9_run_determinism(tmp_path):
    manifest = tmp_path / "det.cfg"
    manifest.write_text(
        "[det-full]\ndataset_count = 32\ndataset_len = 24\nepochs = 1\n"
        "[det-frozen]\nlayers_trainable = 0\ndataset_count = 32\n"
        "dataset_len = 24\nepochs = 1\n"
    )
    timing = {"train_seconds", "inference_seconds"}

    def run(out):
        assert cli.main(["run", "--manifest", str(manifest),
                         "--out", str(out)]) == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [{k: v for k, v in row.items() if k not in timing}
                for row in rows]

    ok = run(tmp_path / "a") == run(tmp_path / "b")
    report("9 run determinism (timing columns excluded)", ok)
