import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from peftlab import accounting, cacnn
from peftlab import autograd as ag
from peftlab import encoder as enc
from peftlab.cacnn import CONTEXT_VECTOR, SIMPLIFIED, CacnnConfig
from peftlab.encoder import (AFFINE_SPAN, AdapterConfig, EncoderConfig,
                             FreezePolicy, bert_base_config, build_encoder,
                             desk_config)
from peftlab.manifest import parse_manifest
from peftlab.trainer import Adam, TrainConfig, build_model, example_loss, train
from peftlab.span import generate_dataset, stack

from oracles import (build_cacnn_reference, build_encoder_reference,
                     span_loss_split_readout)


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


def _layer_by_hand(reg, cfg, i, x, adapters):
    """Encoder layer ``i`` written out op by op, with or without adapters."""
    p = f"layer{i}"

    def affine(z, w, b):
        return ag.add(ag.matmul(z, reg[f"{p}.{w}"]), reg[f"{p}.{b}"])

    def adapter(z, slot):
        if not adapters:
            return z
        down = affine(z, f"{slot}.down_w", f"{slot}.down_b")
        return ag.add(z, affine(ag.gelu(down), f"{slot}.up_w", f"{slot}.up_b"))

    q, k, v = (affine(x, f"attn.{n}_w", f"attn.{n}_b") for n in "qkv")
    attn = affine(ag.attention(q, k, v, cfg.num_heads), "attn.o_w", "attn.o_b")
    x = ag.layer_norm(ag.add(x, adapter(attn, "adapter_attn")),
                      reg[f"{p}.ln1_gain"], reg[f"{p}.ln1_bias"])
    ffn = affine(ag.gelu(affine(x, "ffn.w1", "ffn.b1")), "ffn.w2", "ffn.b2")
    return ag.layer_norm(ag.add(x, adapter(ffn, "adapter_ffn")),
                         reg[f"{p}.ln2_gain"], reg[f"{p}.ln2_bias"])


def _nonzero_adapters(reg, seed=0):
    """Draw every adapter up-projection the registry holds away from zero,
    so each adapter changes its sublayer's output."""
    rng = np.random.default_rng(seed)
    for name, t in reg.items():
        if ".up_" in name:
            t.data = rng.normal(0.0, 0.5, t.shape)
    return reg


# (config, examples, L): desk with and without adapters at batch 8, L = 64,
# and a smaller batch through twelve desk-width layers
SPLIT_CASES = [(desk_config(), 8, 64),
               (desk_config(adapter=AdapterConfig(8)), 8, 64),
               (replace(desk_config(), num_layers=12), 4, 32)]


class TestLayerRange:
    """``forward`` is ``layers(embed(...), 0, n)``, and a run of layers can be
    cut anywhere: a cached frozen prefix or a per-layer timer relies on it."""

    @pytest.mark.parametrize("cfg, count, length", SPLIT_CASES,
                             ids=["desk", "desk-A8", "desk-12-layers"])
    def test_split_at_every_layer_equals_forward_bitwise(self, cfg, count,
                                                         length):
        reg = _nonzero_adapters(build_encoder(cfg, seed=4))
        batch = stack(generate_dataset(seed=0, count=count, seq_len=length,
                                       vocab_size=64))
        n = cfg.num_layers

        def run(encode):
            """Output bytes and every gradient of a span loss over it."""
            for _, t in reg.items():
                t.zero_grad()
            out = encode()
            loss = ag.cross_entropy_from_logits(
                enc.span_head_logits(reg, out), batch.gold_span)
            loss.backward()
            return out.data.tobytes(), {name: t.grad.tobytes()
                                        for name, t in reg.items()}

        out, grads = run(lambda: enc.forward(reg, cfg, batch.tokens,
                                             batch.segments))
        for m in range(n + 1):
            split_out, split_grads = run(lambda: enc.layers(
                reg, cfg, enc.layers(reg, cfg, enc.embed(
                    reg, cfg, batch.tokens, batch.segments), 0, m), m, n))
            assert split_out == out, m
            assert split_grads == grads, m

    def test_a_no_grad_prefix_leaves_the_top_layers_gradients(self):
        cfg = FOUR_LAYER_ADAPTER
        reg = _nonzero_adapters(build_encoder(cfg, seed=4))
        batch = stack(generate_dataset(seed=0, count=8, seq_len=64,
                                       vocab_size=64))
        n = cfg.num_layers

        def top_grads(m):
            for _, t in reg.items():
                t.zero_grad()
            with ag.no_grad():
                x = enc.layers(reg, cfg, enc.embed(reg, cfg, batch.tokens,
                                                   batch.segments), 0, m)
            out = enc.layers(reg, cfg, x, m, n)
            ag.cross_entropy_from_logits(enc.span_head_logits(reg, out),
                                         batch.gold_span).backward()
            return out.data.tobytes(), {
                name: None if t.grad is None else t.grad.tobytes()
                for name, t in reg.items()}

        out, grads = top_grads(0)
        for m in range(n + 1):
            prefix_out, prefix_grads = top_grads(m)
            assert prefix_out == out, m
            for name, grad in prefix_grads.items():
                p = reg.entry(name)
                above = p.group == "head" or (p.layer is not None
                                              and p.layer >= m)
                assert grad == (grads[name] if above else None), (m, name)

    @pytest.mark.parametrize("lo, hi", [(1, 0), (-1, 1), (0, 3), (2, 3)])
    def test_a_range_outside_the_layers_is_rejected(self, lo, hi):
        cfg = desk_config()
        reg = build_encoder(cfg, seed=0)
        x = enc.embed(reg, cfg, np.arange(8), np.zeros(8, dtype=int))
        with pytest.raises(ValueError,
                           match=rf"^layers {lo}\.\.{hi} outside 0\.\.2$"):
            enc.layers(reg, cfg, x, lo, hi)

    def test_embed_rejects_a_sequence_longer_than_max_seq_len(self):
        reg = build_encoder(TINY, seed=0)
        ids = np.zeros(13, dtype=int)
        with pytest.raises(ValueError,
                           match="^sequence length 13 exceeds max 12$"):
            enc.embed(reg, TINY, ids, ids)


class TestAdaptersFromTheRegistry:
    """A layer runs the adapters the registry holds, whatever
    ``config.adapter`` says: the schema alone places them."""

    def test_a_layer_without_adapter_entries_runs_none(self):
        a8 = desk_config(adapter=AdapterConfig(8))
        schema = [p for p in enc.parameter_schema(a8)
                  if not (p.group == "adapters" and p.layer == 0)]
        reg = _nonzero_adapters(enc.ParameterRegistry().allocate(schema, 2))
        assert "layer0.adapter_attn.down_w" not in reg
        assert "layer1.adapter_attn.down_w" in reg
        batch = stack(generate_dataset(seed=1, count=4, seq_len=64,
                                       vocab_size=64))
        x = enc.embed(reg, a8, batch.tokens, batch.segments)
        by_hand = _layer_by_hand(reg, a8, 1, _layer_by_hand(
            reg, a8, 0, x, adapters=False), adapters=True).data
        for cfg in (a8, desk_config()):
            out = enc.forward(reg, cfg, batch.tokens, batch.segments)
            ops = Counter(n._backward.__qualname__.split(".")[0]
                          for n in ag._toposort(out) if n._backward is not None)
            # each layer: q, k, v, o, w1 and w2, and one ffn gelu; each
            # adapter two matmuls and a gelu, layer 1's two adapters only
            assert (ops["matmul"], ops["gelu"]) == (2 * 6 + 2 * 2, 2 + 2)
            assert out.data.tobytes() == by_hand.tobytes()


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


# (config, examples, L) of the batched encoder stack pinned row by row: desk
# width at 4,096 rows, and BERT-base width and heads over two layers
ROW_CASES = {
    "desk-64x64": (desk_config(adapter=AdapterConfig(4)), 64, 64),
    "bert-width-4x128": (EncoderConfig(vocab_size=64, hidden_size=768,
                                       num_layers=2, num_heads=12,
                                       intermediate_size=3072,
                                       max_seq_len=128), 4, 128),
}


@pytest.fixture(scope="module", params=list(ROW_CASES))
def row_case(request):
    cfg, count, length = ROW_CASES[request.param]
    reg = build_encoder(cfg, seed=5, include_head=False)
    batch = stack(generate_dataset(seed=3, count=count, seq_len=length,
                                   vocab_size=64))
    return cfg, reg, batch.tokens, batch.segments


class TestBatchAxis:
    # a row of a batch is encoded bit for bit as that example alone, so a
    # cached or re-chunked encoder output cannot move a loss; the span
    # readout after it is not row-independent at every size (README)
    @pytest.mark.parametrize("one_thread", [False, True],
                             ids=["process-blas-threads", "one-blas-thread"])
    def test_batched_forward_matches_per_example(self, row_case, one_thread):
        cfg, reg, tokens, segments = row_case

        def encode(t, s):
            return enc.layers(reg, cfg, enc.embed(reg, cfg, t, s), 0,
                              cfg.num_layers).data

        threads = ag._one_blas_thread() if one_thread else nullcontext()
        with ag.no_grad(), threads:
            batched = encode(tokens, segments)
            for b in range(len(tokens)):
                assert batched[b].tobytes() == \
                    encode(tokens[b], segments[b]).tobytes(), b

    def test_one_attention_node_per_layer_and_no_head_loop(self):
        cfg = desk_config()
        model = build_model(cfg, FreezePolicy(cfg.num_layers, True),
                            AFFINE_SPAN, 0)
        ds = generate_dataset(seed=0, count=4, seq_len=16, vocab_size=64)
        loss = example_loss(model, stack(ds))
        ops = [n._backward.__qualname__.split(".")[0]
               for n in ag._toposort(loss) if n._backward is not None]
        assert ops.count("attention") == cfg.num_layers
        assert ops.count("transpose") == 1  # the head's [B, L, 2] -> [B, 2, L]
        assert ops.count("cross_entropy_from_logits") == 1
        assert "split" not in ops and "reshape" not in ops
        assert "concat" not in ops and "softmax" not in ops

    # recorded nodes of one training step, per desk.cfg row in file order
    @pytest.mark.parametrize("spec, nodes",
                             zip(DESK_SPECS, [47, 42, 42, 66, 52]),
                             ids=[s.label for s in DESK_SPECS])
    def test_nodes_per_training_step(self, spec, nodes):
        model = build_model(spec.encoder_config, spec.policy, spec.head, 0)
        ds = generate_dataset(seed=0, count=8, seq_len=64, vocab_size=64)
        loss = example_loss(model, stack(ds))
        assert sum(n._backward is not None for n in ag._toposort(loss)) == nodes

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


class TestSpanReadout:
    """The [B, 2, L] readout against the split one it replaced, on one
    stacked desk batch with every parameter trainable."""

    @pytest.mark.parametrize("head", [AFFINE_SPAN, *CACNN_VARIANTS],
                             ids=["affine", "context_vector", "simplified"])
    def test_same_logits_and_gradients_as_the_split_readout(self, head):
        cfg = desk_config()
        model = build_model(cfg, FreezePolicy(cfg.num_layers, True), head, 0)
        batch = stack(generate_dataset(seed=0, count=8, seq_len=64,
                                       vocab_size=64,
                                       unanswerable_fraction=1 / 3))

        def gradients(loss):
            for _, t in model.registry.items():
                t.zero_grad()
            loss.backward()
            return {n: t.grad.tobytes() for n, t in model.registry.items()}

        start, end, ref_loss = span_loss_split_readout(model, batch)
        ref_grads = gradients(ref_loss)
        logits = model.span_logits(batch).data
        assert logits.shape == (8, 2, 64)
        assert logits[:, 0].tobytes() == start.data.tobytes()
        assert logits[:, 1].tobytes() == end.data.tobytes()
        loss = example_loss(model, batch)
        assert gradients(loss) == ref_grads
        assert abs(loss.item() - ref_loss.item()) <= 1e-15 * ref_loss.item()


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
                  + CACNN_VARIANTS[0].parameter_schema(cfg.hidden_size))
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


class _ProbeHead:
    """A span head defined only here: it has nothing but the four methods
    of the head interface, and draws its parameters from ``seed + 7``."""

    def parameter_schema(self, hidden_size):
        return [enc.Param("probe.w", (hidden_size, 2), "head", None, "normal"),
                enc.Param("probe.b", (2,), "head", None, "zeros")]

    def validate(self, seq_len, hidden_size):
        pass

    def build(self, config, seed):
        registry = enc.ParameterRegistry().allocate(
            enc.parameter_schema(config), seed)
        return registry.allocate(self.parameter_schema(config.hidden_size),
                                 seed + 7)

    def logits(self, registry, sequence_output):
        return enc.start_end_logits(sequence_output, registry["probe.w"],
                                    registry["probe.b"])


class TestHeadInterface:
    """Model building, accounting, the spec check, training and evaluation
    ask a head only for its four methods."""

    def test_a_head_defined_outside_the_package_runs_end_to_end(self):
        from peftlab.manifest import ExperimentSpec
        from peftlab.trainer import evaluate
        cfg, head, policy = desk_config(), _ProbeHead(), FreezePolicy(0, False)
        model = build_model(cfg, policy, head, 3)
        reg = model.registry
        assert reg.names() == [p.name for p in enc.parameter_schema(cfg)] \
            + ["probe.w", "probe.b"]
        drawn = enc.ParameterRegistry().allocate(
            head.parameter_schema(cfg.hidden_size), 3 + 7)
        assert reg["probe.w"].data.tobytes() == drawn["probe.w"].data.tobytes()
        report = accounting.count(cfg, policy, head)
        assert report.head == cfg.hidden_size * 2 + 2
        assert report.trainable_under_policy == reg.trainable_count
        spec = ExperimentSpec("probe", cfg, policy, head, TrainConfig(),
                              dataset_len=32)
        assert spec.head is head

        ds = generate_dataset(seed=0, count=16, seq_len=32, vocab_size=64,
                              unanswerable_fraction=0.25)
        tc = TrainConfig(batch_size=8, epochs=1, seed=0)
        before = reg["probe.w"].data.copy()
        result = train(model, ds, tc)
        assert len(result.loss_history) == 2
        assert not np.array_equal(reg["probe.w"].data, before)
        em, f1, seconds = evaluate(model, ds, tc)
        assert 0.0 <= em <= f1 <= 100.0 and seconds >= 0.0

    @pytest.mark.parametrize("head", [AFFINE_SPAN, *CACNN_VARIANTS],
                             ids=["affine", "context_vector", "simplified"])
    def test_model_schema_names_what_build_allocates(self, head):
        for cfg in (desk_config(), desk_config(adapter=AdapterConfig(8))):
            assert [p.name for p in accounting.model_schema(cfg, head)] == \
                head.build(cfg, 0).names()

    # a profiler (bench/tracing.py) times a head by wrapping these module
    # functions, so a head must reach them through the module at call time
    @pytest.mark.parametrize("head, reached", [
        (AFFINE_SPAN, ["encoder.forward", "encoder.span_head_logits"]),
        *((h, ["encoder.forward", "cacnn.forward", "cacnn.head_logits"])
          for h in CACNN_VARIANTS),
    ], ids=["affine", "context_vector", "simplified"])
    def test_span_logits_calls_each_wrappable_function_once(
            self, monkeypatch, head, reached):
        model = build_model(desk_config(), FreezePolicy(0, False), head, 0)
        calls = []
        for owner, attr in ((enc, "forward"), (enc, "span_head_logits"),
                            (cacnn, "forward"), (cacnn, "head_logits")):
            name = f"{owner.__name__.split('.')[-1]}.{attr}"

            def counting(*args, real=getattr(owner, attr), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, attr, counting)
        batch = stack(generate_dataset(seed=0, count=2, seq_len=64,
                                       vocab_size=64))
        assert model.span_logits(batch).shape == (2, 2, 64)
        assert sorted(calls) == sorted(reached)

    @pytest.mark.parametrize("head, reached", [
        (AFFINE_SPAN, ["encoder.build_encoder"]),
        *((h, ["encoder.build_encoder", "cacnn.build_params"])
          for h in CACNN_VARIANTS),
    ], ids=["affine", "context_vector", "simplified"])
    def test_build_calls_each_wrappable_builder_once(
            self, monkeypatch, head, reached):
        calls = []
        for owner, attr in ((enc, "build_encoder"), (cacnn, "build_params")):
            name = f"{owner.__name__.split('.')[-1]}.{attr}"

            def counting(*args, real=getattr(owner, attr), name=name,
                         **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
        build_model(desk_config(), FreezePolicy(0, False), head, 0)
        assert calls == reached
