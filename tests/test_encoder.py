import os
from dataclasses import replace

import numpy as np
import pytest

from peftlab import accounting, cacnn
from peftlab import encoder as enc
from peftlab.cacnn import CONTEXT_VECTOR, SIMPLIFIED, CacnnConfig
from peftlab.encoder import (AFFINE_SPAN, AdapterConfig, EncoderConfig,
                             FreezePolicy, bert_base_config, build_encoder,
                             desk_config)
from peftlab.manifest import parse_manifest
from peftlab.trainer import Adam, TrainConfig, build_model, example_loss, train
from peftlab.span import generate_dataset

from oracles import build_cacnn_reference, build_encoder_reference


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_SPECS = parse_manifest(os.path.join(REPO, "manifests", "desk.cfg"))
FOUR_LAYER_ADAPTER = replace(desk_config(adapter=AdapterConfig(8)),
                             num_layers=4)

TINY = EncoderConfig(vocab_size=16, hidden_size=8, num_layers=2, num_heads=2,
                     intermediate_size=16, max_seq_len=12)


def tiny_inputs(rng, length=6):
    tokens = rng.integers(0, TINY.vocab_size, size=length)
    segments = (np.arange(length) >= length // 2).astype(np.int64)
    return tokens, segments


class TestBuild:
    def test_per_layer_subtotal_at_bert_base(self):
        cfg = bert_base_config()
        rep = accounting.count(cfg, FreezePolicy(0))
        per_layer = ((rep.attention + rep.ffn) // cfg.num_layers
                     + 4 * cfg.hidden_size)
        assert per_layer == 7_087_872

    def test_adapter_block_subtotal(self):
        cfg = bert_base_config(adapter=AdapterConfig(64))
        rep = accounting.count(cfg, FreezePolicy(0))
        assert rep.adapters == 2 * cfg.num_layers * 99_136

    def test_adapter_up_projection_zero_at_init(self):
        cfg = desk_config(adapter=AdapterConfig(4))
        reg = build_encoder(cfg, seed=9)
        for i in range(cfg.num_layers):
            for slot in ("adapter_attn", "adapter_ffn"):
                assert np.all(reg[f"layer{i}.{slot}.up_w"].data == 0.0)
                assert np.all(reg[f"layer{i}.{slot}.up_b"].data == 0.0)

    def test_registry_matches_accounting_totals(self):
        for adapter in (None, AdapterConfig(6)):
            cfg = desk_config(adapter=adapter)
            reg = build_encoder(cfg, seed=0)
            rep = accounting.count(cfg, FreezePolicy(cfg.num_layers, True))
            assert reg.total_count == rep.total

    def test_init_weights_within_two_sigma(self):
        reg = build_encoder(TINY, seed=3)
        w = reg["layer0.attn.q_w"].data
        assert np.abs(w).max() <= 2 * enc.INIT_STD
        assert w.std() > 0

    def test_hidden_size_must_divide(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=8, hidden_size=10, num_layers=1,
                          num_heads=3, intermediate_size=8, max_seq_len=8)

    @pytest.mark.parametrize("field", ["hidden_size", "num_heads"])
    def test_zero_width_rejected(self, field):
        sizes = dict(vocab_size=8, hidden_size=8, num_layers=1, num_heads=2,
                     intermediate_size=8, max_seq_len=8)
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
            EncoderConfig(**{**sizes, field: 0})

    def test_build_deterministic(self):
        r1 = build_encoder(TINY, seed=5)
        r2 = build_encoder(TINY, seed=5)
        for name, t in r1.items():
            assert np.array_equal(t.data, r2[name].data)


class TestForward:
    def test_output_shape(self):
        cfg = desk_config()
        reg = build_encoder(cfg, seed=0)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, cfg.vocab_size, size=16)
        out = enc.forward(reg, cfg, tokens, np.zeros(16, dtype=int))
        assert out.shape == (16, 32)

    def test_adapter_identity_at_init(self):
        rng = np.random.default_rng(7)
        tokens, segments = tiny_inputs(rng)
        plain_cfg = TINY
        adapter_cfg = EncoderConfig(**{**plain_cfg.__dict__,
                                       "adapter": AdapterConfig(3)})
        plain = build_encoder(plain_cfg, seed=1)
        adapted = build_encoder(adapter_cfg, seed=2)
        for name, t in plain.items():  # share base weights
            adapted[name].data = t.data.copy()
        out_plain = enc.forward(plain, plain_cfg, tokens, segments)
        out_adapted = enc.forward(adapted, adapter_cfg, tokens, segments)
        assert np.array_equal(out_plain.data, out_adapted.data)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        reg = build_encoder(TINY, seed=6)
        reg["embeddings.position"].data[:] = 0.0
        reg["embeddings.segment"].data[:] = 0.0
        tokens, _ = tiny_inputs(rng)
        segments = np.zeros(len(tokens), dtype=int)
        perm = rng.permutation(len(tokens))
        out = enc.forward(reg, TINY, tokens, segments)
        out_perm = enc.forward(reg, TINY, tokens[perm], segments)
        assert np.allclose(out.data[perm], out_perm.data, atol=1e-12)

    def test_rejects_out_of_range_ids(self):
        reg = build_encoder(TINY, seed=0)
        with pytest.raises(IndexError):
            enc.forward(reg, TINY, np.array([99]), np.array([0]))
        with pytest.raises(IndexError):
            enc.forward(reg, TINY, np.array([1]), np.array([5]))


class TestFreezePolicy:
    def test_nothing_frozen_when_everything_trainable(self):
        reg = build_encoder(TINY, seed=0)
        enc.apply_freeze_policy(reg, TINY, FreezePolicy(TINY.num_layers, True))
        assert reg.trainable_count == reg.total_count

    def test_counts_split(self):
        reg = build_encoder(TINY, seed=0)
        enc.apply_freeze_policy(reg, TINY, FreezePolicy(1, False))
        assert 0 < reg.trainable_count < reg.total_count

    def test_bert_base_closed_form_matches_table_rows(self):
        cfg = bert_base_config()
        h = cfg.hidden_size
        p_layer = 2_362_368 + 4_722_432 + 4 * h  # attention, FFN, norms
        for k, expected in ((0, 39_938), (1, 7_124_738), (3, 21_294_338),
                            (6, 42_548_738)):
            closed = (k * p_layer + (cfg.num_layers - k) * 4 * h + 2 * h
                      + (2 * h + 2))
            assert closed == expected
            rep = accounting.count(cfg, FreezePolicy(k, False))
            assert rep.trainable_under_policy == expected

    def test_registry_counts_match_accounting_under_policies(self):
        for adapter in (None, AdapterConfig(5)):
            cfg = desk_config(adapter=adapter)
            for k in range(cfg.num_layers + 1):
                for emb in (False, True):
                    reg = build_encoder(cfg, seed=1)
                    policy = FreezePolicy(k, emb)
                    enc.apply_freeze_policy(reg, cfg, policy)
                    rep = accounting.count(cfg, policy)
                    assert reg.trainable_count == rep.trainable_under_policy

    def test_layer_norms_stay_trainable_under_full_freeze(self):
        reg = build_encoder(TINY, seed=0)
        enc.apply_freeze_policy(reg, TINY, FreezePolicy(0, False,
                                                        adapters_trainable=False))
        for name in reg.names():
            expected = (name.rsplit(".", 1)[-1].startswith("ln")
                        or name.startswith("head."))
            assert reg.is_trainable(name) == expected, name

    def test_frozen_weights_get_no_gradient_but_layer_norms_do(self):
        cfg = desk_config()
        ds = generate_dataset(seed=0, count=8, seq_len=32, vocab_size=64,
                              unanswerable_fraction=0.25)
        model = build_model(cfg, FreezePolicy(0, False), AFFINE_SPAN, 0)
        reg = model.registry
        loss = example_loss(model, ds[0])
        loss.backward()
        assert reg["layer0.attn.q_w"].grad is None
        assert reg["layer0.ln1_gain"].grad is not None
        assert np.any(reg["layer0.ln1_gain"].grad != 0.0)

    def test_policy_out_of_range(self):
        reg = build_encoder(TINY, seed=0)
        with pytest.raises(ValueError):
            enc.apply_freeze_policy(reg, TINY, FreezePolicy(99, False))


class TestBatchAxis:
    def test_batched_forward_matches_per_example(self):
        cfg = desk_config(adapter=AdapterConfig(4))
        reg = build_encoder(cfg, seed=5)
        ds = generate_dataset(seed=3, count=5, seq_len=20, vocab_size=64)
        tokens = np.stack([ex.tokens for ex in ds])
        segments = np.stack([ex.segments for ex in ds])
        batched = enc.forward(reg, cfg, tokens, segments).data
        for b in range(5):
            one = enc.forward(reg, cfg, tokens[b], segments[b]).data
            assert np.max(np.abs(batched[b] - one) / np.abs(one)) <= 1e-12

    def test_one_attention_node_per_layer_and_no_head_loop(self):
        from peftlab import autograd as ag
        from peftlab.span import stack
        cfg = desk_config()
        model = build_model(cfg, FreezePolicy(cfg.num_layers, True),
                            AFFINE_SPAN, 0)
        ds = generate_dataset(seed=0, count=4, seq_len=16, vocab_size=64)
        loss = example_loss(model, stack(ds))
        ops = [n._backward.__qualname__.split(".")[0]
               for n in ag._toposort(loss) if n._backward is not None]
        assert ops.count("attention") == cfg.num_layers
        assert ops.count("split") == 2      # the head's start/end columns
        assert ops.count("reshape") == 2    # ... read out as [B, L] each
        assert "concat" not in ops and "softmax" not in ops
        assert "transpose" not in ops       # attention splits its own heads

    # attention computes q's, k's and v's gradients together: a recorded node
    # without all three as parents would do work that nothing reads
    @pytest.mark.parametrize("config, policy, head", [
        *((s.encoder_config, s.policy, s.head) for s in DESK_SPECS),
        *((FOUR_LAYER_ADAPTER, FreezePolicy(k, k == 4), AFFINE_SPAN)
          for k in range(5)),
    ], ids=[s.label for s in DESK_SPECS] + [f"A8-4layers-k{k}"
                                             for k in range(5)])
    def test_every_attention_node_has_q_k_and_v_as_parents(
            self, config, policy, head):
        from peftlab import autograd as ag
        from peftlab.span import stack
        model = build_model(config, policy, head, 0)
        ds = generate_dataset(seed=0, count=8, seq_len=32, vocab_size=64)
        loss = example_loss(model, stack(ds))
        nodes = [n for n in ag._toposort(loss) if n._backward is not None
                 and n._backward.__qualname__.startswith("attention.")]
        assert len(nodes) == config.num_layers
        assert all(len(n._parents) == 3 for n in nodes)


CACNN_VARIANTS = [
    CacnnConfig(CONTEXT_VECTOR, initial_filters=8, initial_width=3,
                sample_filters=4, sample_width=3, context_width=3,
                context_filters=4),
    CacnnConfig(SIMPLIFIED, initial_filters=8, initial_width=3,
                sample_filters=4, sample_width=3),
]


def assert_same_parameters(reg, reference):
    assert reg.names() == [name for name, _ in reference]
    for name, values in reference:
        assert reg[name].data.dtype == values.dtype
        assert reg[name].data.tobytes() == values.tobytes(), name
        assert reg[name].shape == values.shape, name


class TestSchema:
    @pytest.mark.parametrize("adapter", [None, AdapterConfig(8)])
    @pytest.mark.parametrize("include_head", [True, False])
    def test_registry_matches_hand_written_layout(self, adapter, include_head):
        cfg = desk_config(adapter=adapter)
        for seed in (0, 11):
            reg = build_encoder(cfg, seed, include_head=include_head)
            assert_same_parameters(
                reg, build_encoder_reference(cfg, seed, include_head))

    @pytest.mark.parametrize("head", CACNN_VARIANTS,
                             ids=lambda h: h.variant)
    def test_cacnn_registry_matches_hand_written_layout(self, head):
        cfg = desk_config()
        reg = build_encoder(cfg, 3, include_head=False)
        cacnn.build_params(reg, head, cfg.hidden_size, 4)
        assert_same_parameters(
            reg, build_encoder_reference(cfg, 3, include_head=False)
            + build_cacnn_reference(head, cfg.hidden_size, 4))

    def test_schema_groups_are_count_report_fields(self):
        cfg = desk_config(adapter=AdapterConfig(4))
        schema = (enc.parameter_schema(cfg)
                  + cacnn.parameter_schema(CACNN_VARIANTS[0], cfg.hidden_size))
        fields = {"embeddings", "attention", "ffn", "layer_norms", "adapters",
                  "head"}
        assert {p.group for p in schema} == fields
        assert {p.init for p in schema} == {"normal", "zeros", "ones"}
        for p in schema:
            outside = p.name.startswith(("embeddings.", "head.", "cacnn."))
            assert (p.layer is None) == outside, p.name

    def test_requires_grad_is_the_trainable_flag(self):
        cfg = desk_config()
        reg = build_model(cfg, FreezePolicy(0, False), AFFINE_SPAN, 0).registry
        before = reg.trainable_count
        name = "layer0.attn.q_w"
        assert not reg.is_trainable(name)
        reg[name].requires_grad = True
        assert reg.is_trainable(name)
        assert reg.trainable_count == before + reg[name].size
        assert name in dict(reg.trainable_items())
        opt = Adam(reg, lr=1e-3)
        assert name in opt.m
        reg[name].grad = np.ones(reg[name].shape)
        old = reg[name].data.copy()
        opt.step()
        assert not np.array_equal(reg[name].data, old)

        reg["head.w"].requires_grad = False
        assert not reg.is_trainable("head.w")
        assert "head.w" not in Adam(reg, lr=1e-3).m

    def test_duplicate_parameter_name_is_rejected(self):
        reg = build_encoder(TINY, seed=0)
        extra = enc.Param("layer0.attn.q_w", (2, 2), "attention", 0, "zeros")
        with pytest.raises(ValueError, match="duplicate parameter name "
                           "'layer0.attn.q_w'"):
            reg.allocate([extra], seed=1)


class TestBuildModel:
    @pytest.mark.parametrize("adapter, head", [
        (None, AFFINE_SPAN), (AdapterConfig(8), AFFINE_SPAN),
        (None, CACNN_VARIANTS[0]), (None, CACNN_VARIANTS[1]),
    ], ids=["affine", "adapter8", "cacnn_context_vector", "cacnn_simplified"])
    def test_registry_matches_hand_written_layout(self, adapter, head):
        cfg = desk_config(adapter=adapter)
        policy = FreezePolicy(1, False)
        seed = 7
        model = build_model(cfg, policy, head, seed)
        affine = head == AFFINE_SPAN
        reference = build_encoder_reference(cfg, seed, include_head=affine)
        if not affine:
            reference += build_cacnn_reference(head, cfg.hidden_size, seed + 1)
        assert_same_parameters(model.registry, reference)
        assert (model.config, model.head) == (cfg, head)
        for name in model.registry.names():
            p = model.registry.entry(name)
            assert model.registry.is_trainable(name) == \
                policy.trains(p.group, p.layer, cfg.num_layers), name

    def test_count_disagreement_raises(self, monkeypatch):
        real = accounting.count

        def off_by_one(config, policy, head=AFFINE_SPAN):
            rep = real(config, policy, head)
            rep.trainable_under_policy += 1
            return rep

        monkeypatch.setattr(accounting, "count", off_by_one)
        with pytest.raises(RuntimeError, match="disagrees with accounting"):
            build_model(desk_config(), FreezePolicy(0, False), AFFINE_SPAN, 0)
