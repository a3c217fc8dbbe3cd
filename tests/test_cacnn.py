import numpy as np
import pytest

from peftlab import accounting
from peftlab import autograd as ag
from peftlab import cacnn
from peftlab.cacnn import CacnnConfig, CONTEXT_VECTOR, SIMPLIFIED
from peftlab.encoder import EncoderConfig, FreezePolicy, ParameterRegistry
from peftlab.checks import check_gradients

from oracles import cacnn_context_vector_loops, cacnn_simplified_loops


def make_head(config, hidden_size, seed=0):
    reg = ParameterRegistry()
    cacnn.build_params(reg, config, hidden_size, seed)
    return reg


def head_count(config, hidden_size):
    """The head's parameter count as ``accounting.count`` reports it."""
    encoder = EncoderConfig(vocab_size=1, hidden_size=hidden_size, num_layers=0,
                            num_heads=1, intermediate_size=1, max_seq_len=1)
    return accounting.count(encoder, FreezePolicy(0), config).head


def run_oracle(x, reg, config):
    if config.variant == CONTEXT_VECTOR:
        return cacnn_context_vector_loops(
            x, reg["cacnn.init_filters"].data, reg["cacnn.init_bias"].data,
            reg["cacnn.context_filters"].data, reg["cacnn.context_bias"].data,
            config.sample_filters, config.sample_width)
    return cacnn_simplified_loops(
        x, reg["cacnn.init_filters"].data, reg["cacnn.init_bias"].data,
        config.sample_filters, config.sample_width)


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            CacnnConfig("bogus", 4, 2, 2, 1)

    def test_context_width_cannot_exceed_vector_length(self):
        with pytest.raises(ValueError):
            CacnnConfig(CONTEXT_VECTOR, initial_filters=3, initial_width=2,
                        sample_filters=2, sample_width=1, context_width=4,
                        context_filters=1)

    def test_simplified_rejects_insufficient_values(self):
        cfg = CacnnConfig(SIMPLIFIED, initial_filters=2, initial_width=1,
                          sample_filters=4, sample_width=2)
        with pytest.raises(ValueError):
            cacnn.validate(cfg, seq_len=4, hidden_size=8)

    def test_parameter_count_closed_forms(self):
        h = 16
        ctx = CacnnConfig(CONTEXT_VECTOR, initial_filters=5, initial_width=3,
                          sample_filters=20, sample_width=2, context_width=2,
                          context_filters=4)
        assert head_count(ctx, h) == 5 * (3 * h + 1) + 4 * 3 + 42
        simple = CacnnConfig(SIMPLIFIED, initial_filters=5, initial_width=3,
                             sample_filters=20, sample_width=2)
        assert head_count(simple, h) == 5 * (3 * h + 1) + 42

    def test_registry_matches_closed_form(self):
        for cfg in (
            CacnnConfig(CONTEXT_VECTOR, 4, 2, 3, 2, context_width=2,
                        context_filters=2),
            CacnnConfig(SIMPLIFIED, 4, 2, 3, 2),
        ):
            reg = make_head(cfg, hidden_size=8)
            assert reg.total_count == head_count(cfg, 8)


class TestContextVectorForward:
    def test_constant_input_constant_output_width_one(self):
        cfg = CacnnConfig(CONTEXT_VECTOR, initial_filters=4, initial_width=1,
                          sample_filters=2, sample_width=1, context_width=2,
                          context_filters=2)
        reg = make_head(cfg, hidden_size=3, seed=1)
        x = ag.Tensor(np.tile([0.3, -0.2, 0.5], (6, 1)))
        maps = ag.add(ag.conv1d(x, reg["cacnn.init_filters"], "same"),
                      reg["cacnn.init_bias"])
        context = ag.max_reduce(maps, 0)
        assert np.allclose(context.data, maps.data[0])
        out = cacnn.forward(x, reg, cfg)
        assert np.allclose(out.data, np.tile(out.data[0], (6, 1)))

    def test_matches_step_by_step_oracle_exactly(self):
        cfg = CacnnConfig(CONTEXT_VECTOR, initial_filters=4, initial_width=2,
                          sample_filters=2, sample_width=1, context_width=2,
                          context_filters=2)
        rng = np.random.default_rng(2)
        reg = make_head(cfg, hidden_size=3, seed=2)
        reg["cacnn.init_bias"].data[:] = rng.standard_normal(4)
        reg["cacnn.context_bias"].data[:] = rng.standard_normal(2)
        x = rng.standard_normal((6, 3))
        out = cacnn.forward(ag.Tensor(x), reg, cfg)
        assert np.array_equal(out.data, run_oracle(x, reg, cfg))

    def test_runs_at_bert_scale_k20(self):
        cfg = CacnnConfig(CONTEXT_VECTOR, initial_filters=64, initial_width=3,
                          sample_filters=20, sample_width=3, context_width=3,
                          context_filters=8)
        reg = make_head(cfg, hidden_size=768, seed=4)
        x = ag.Tensor(np.random.default_rng(4).standard_normal((32, 768)))
        out = cacnn.forward(x, reg, cfg)
        assert out.shape == (32, 20)
        assert reg.total_count == head_count(cfg, 768)


class TestSimplifiedForward:
    def test_zero_input_zero_output(self):
        cfg = CacnnConfig(SIMPLIFIED, initial_filters=2, initial_width=1,
                          sample_filters=2, sample_width=2)
        reg = make_head(cfg, hidden_size=2, seed=5)
        reg["cacnn.init_bias"].data[:] = 1.3  # bias must not leak through
        out = cacnn.forward(ag.Tensor(np.zeros((8, 2))), reg, cfg)
        assert np.all(out.data == 0.0)

    def test_matches_oracle_exactly(self):
        cfg = CacnnConfig(SIMPLIFIED, initial_filters=2, initial_width=1,
                          sample_filters=2, sample_width=2)
        rng = np.random.default_rng(6)
        reg = make_head(cfg, hidden_size=2, seed=6)
        reg["cacnn.init_bias"].data[:] = rng.standard_normal(2)
        x = rng.standard_normal((8, 2))
        out = cacnn.forward(ag.Tensor(x), reg, cfg)
        assert np.array_equal(out.data, run_oracle(x, reg, cfg))

    def test_runs_at_bert_scale_k4(self):
        cfg = CacnnConfig(SIMPLIFIED, initial_filters=64, initial_width=3,
                          sample_filters=4, sample_width=3)
        reg = make_head(cfg, hidden_size=768, seed=7)
        x = ag.Tensor(np.random.default_rng(7).standard_normal((160, 768)))
        out = cacnn.forward(x, reg, cfg)
        assert out.shape == (160, 4)


class TestExhaustiveOracle:
    def test_both_variants_small_grid_bitwise(self):
        rng = np.random.default_rng(8)
        for L in (2, 4, 6):
            for H in (1, 3):
                for n_f in (1, 4):
                    for w1 in (1, 2):
                        for K in (1, 2):
                            for w2 in (1, 2):
                                x = rng.standard_normal((L, H))
                                ctx = CacnnConfig(
                                    CONTEXT_VECTOR, n_f, w1, K, w2,
                                    context_width=1, context_filters=2)
                                reg = make_head(ctx, H, seed=L)
                                got = cacnn.forward(ag.Tensor(x), reg, ctx)
                                assert np.array_equal(
                                    got.data, run_oracle(x, reg, ctx))
                                simple = CacnnConfig(SIMPLIFIED, n_f, w1, K, w2)
                                if L * n_f >= K * w2 * H:
                                    reg = make_head(simple, H, seed=L + 1)
                                    got = cacnn.forward(ag.Tensor(x), reg,
                                                        simple)
                                    assert np.array_equal(
                                        got.data, run_oracle(x, reg, simple))


class TestHeadLogits:
    def test_projection_column(self):
        reg = ParameterRegistry()
        reg.add("cacnn.head_w", [[1.0, 0.0]])
        reg.add("cacnn.head_b", [0.0, 0.0])
        maps = ag.Tensor([[2.0], [5.0], [-1.0]])
        start, end = cacnn.head_logits(maps, reg)
        assert np.array_equal(start.data, [2.0, 5.0, -1.0])
        assert np.array_equal(end.data, [0.0, 0.0, 0.0])

    def test_affine_parameter_count(self):
        cfg = CacnnConfig(CONTEXT_VECTOR, 4, 2, 20, 1, context_width=2,
                          context_filters=2)
        reg = make_head(cfg, hidden_size=4)
        n = reg["cacnn.head_w"].size + reg["cacnn.head_b"].size
        assert n == 42

    def test_gradient_through_full_stack(self):
        cfg = CacnnConfig(CONTEXT_VECTOR, initial_filters=4, initial_width=2,
                          sample_filters=2, sample_width=1, context_width=2,
                          context_filters=2)
        rng = np.random.default_rng(9)
        reg = make_head(cfg, hidden_size=3, seed=9)
        x = ag.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        params = [x, reg["cacnn.init_filters"], reg["cacnn.init_bias"],
                  reg["cacnn.context_filters"], reg["cacnn.head_w"]]

        def fn():
            maps = cacnn.forward(x, reg, cfg)
            start, end = cacnn.head_logits(maps, reg)
            return ag.add(ag.cross_entropy_from_logits(start, 1),
                          ag.cross_entropy_from_logits(end, 3))

        assert check_gradients(fn, params) < 1e-4


class TestPerSampleProperty:
    def test_batch_permutation_permutes_outputs(self):
        cfg = CacnnConfig(CONTEXT_VECTOR, 3, 2, 2, 1, context_width=2,
                          context_filters=2)
        rng = np.random.default_rng(10)
        reg = make_head(cfg, hidden_size=4, seed=10)
        batch = [rng.standard_normal((5, 4)) for _ in range(4)]
        outs = [cacnn.forward(ag.Tensor(x), reg, cfg).data for x in batch]
        perm = [2, 0, 3, 1]
        outs_perm = [cacnn.forward(ag.Tensor(batch[i]), reg, cfg).data
                     for i in perm]
        for got, want in zip(outs_perm, (outs[i] for i in perm)):
            assert np.array_equal(got, want)

    def test_batched_forward_equals_per_example_and_oracle(self):
        rng = np.random.default_rng(11)
        for cfg in (CacnnConfig(CONTEXT_VECTOR, 3, 2, 2, 2, context_width=2,
                                context_filters=2),
                    CacnnConfig(SIMPLIFIED, 4, 2, 2, 2)):
            reg = make_head(cfg, hidden_size=4, seed=11)
            reg["cacnn.init_bias"].data[:] = rng.standard_normal(
                cfg.initial_filters)
            batch = rng.standard_normal((4, 6, 4))
            got = cacnn.forward(ag.Tensor(batch), reg, cfg).data
            perm = [2, 0, 3, 1]
            got_perm = cacnn.forward(ag.Tensor(batch[perm]), reg, cfg).data
            assert np.array_equal(got_perm, got[perm])
            for b in range(4):
                one = cacnn.forward(ag.Tensor(batch[b]), reg, cfg).data
                assert np.array_equal(got[b], one)
                assert np.array_equal(got[b], run_oracle(batch[b], reg, cfg))

    def test_batched_gradient_through_full_stack(self):
        cfg = CacnnConfig(CONTEXT_VECTOR, initial_filters=4, initial_width=2,
                          sample_filters=2, sample_width=1, context_width=2,
                          context_filters=2)
        rng = np.random.default_rng(12)
        reg = make_head(cfg, hidden_size=3, seed=12)
        x = ag.Tensor(rng.standard_normal((2, 6, 3)), requires_grad=True)
        params = [x, reg["cacnn.init_filters"], reg["cacnn.init_bias"],
                  reg["cacnn.context_filters"], reg["cacnn.head_w"]]

        def fn():
            start, end = cacnn.head_logits(cacnn.forward(x, reg, cfg), reg)
            return ag.add(ag.cross_entropy_from_logits(start, np.array([1, 4])),
                          ag.cross_entropy_from_logits(end, np.array([3, 5])))

        assert check_gradients(fn, params) < 1e-4
