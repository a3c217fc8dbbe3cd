import dataclasses
import os

import numpy as np
import pytest

from peftlab import autograd as ag
from peftlab import encoder as enc
from peftlab import trainer
from peftlab.encoder import (AFFINE_SPAN, AdapterConfig, FreezePolicy,
                             desk_config)
from peftlab.manifest import parse_manifest
from peftlab.span import generate_dataset, stack
from peftlab.trainer import (Adam, TrainConfig, TrainingDiverged, build_model,
                             efficiency_ratio, evaluate, example_loss, train)

import pinned_values
from oracles import adam_reference


def small_setup(k=1, embeddings=False, adapter=None, count=24, seed=0):
    cfg = desk_config(adapter=adapter)
    ds = generate_dataset(seed=seed, count=count, seq_len=32, vocab_size=64,
                          unanswerable_fraction=0.25)
    return build_model(cfg, FreezePolicy(k, embeddings), AFFINE_SPAN, seed), ds


class TestTrain:
    def test_frozen_parameters_bit_identical_after_training(self):
        model, ds = small_setup(k=0, adapter=AdapterConfig(4))
        before = {n: t.data.copy() for n, t in model.registry.items()
                  if not model.registry.is_trainable(n)}
        assert before  # sanity: something actually frozen
        train(model, ds, TrainConfig(epochs=1, seed=0))
        for name, values in before.items():
            assert np.array_equal(model.registry[name].data, values), name

    def test_trainable_parameters_change(self):
        model, ds = small_setup(k=1)
        before = model.registry["layer1.attn.q_w"].data.copy()
        train(model, ds, TrainConfig(epochs=1, seed=0))
        assert not np.array_equal(model.registry["layer1.attn.q_w"].data,
                                  before)

    def test_identical_seeds_identical_histories(self):
        h = []
        for _ in range(2):
            model, ds = small_setup()
            result = train(model, ds, TrainConfig(epochs=2, seed=3))
            h.append([loss for _, _, loss in result.loss_history])
        assert h[0] == h[1]

    def test_loss_strictly_decreases_on_fixed_batch(self):
        # one batch repeated: ten epochs of the same eight examples
        model, ds = small_setup(k=2, embeddings=True, count=8)
        result = train(model, ds, TrainConfig(epochs=10, seed=0,
                                              learning_rate=1e-3))
        losses = [loss for _, _, loss in result.loss_history]
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_200_steps_halve_the_loss(self):
        cfg = desk_config()
        ds = generate_dataset(seed=0, count=1608, seq_len=64, vocab_size=64,
                              unanswerable_fraction=1 / 3)
        model = build_model(cfg, FreezePolicy(2, True), AFFINE_SPAN, 0)
        result = train(model, ds, TrainConfig(epochs=1, seed=0))
        losses = [loss for _, _, loss in result.loss_history]
        late = float(np.mean(losses[195:201]))
        assert late <= pinned_values.STEP200_LOSS_RATIO_MAX * losses[0]

    def test_non_finite_loss_aborts_with_step_index(self):
        model, ds = small_setup()
        model.registry["head.w"].data[0, 0] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(model, ds, TrainConfig(epochs=1, seed=0))
        assert err.value.step == 0

    def test_adam_buffers_only_for_trainable(self):
        model, _ = small_setup(k=0)
        opt = Adam(model.registry, lr=1e-3)
        assert set(opt.m) == {n for n, _ in model.registry.trainable_items()}

    def test_only_trainable_leaves_receive_gradients(self, monkeypatch):
        model, ds = small_setup(k=0, count=8)
        handed = []
        accumulate = ag._accumulate

        def spy(tensor, grad):
            if tensor._backward is None:
                handed.append(tensor)
            accumulate(tensor, grad)

        monkeypatch.setattr(ag, "_accumulate", spy)
        result = train(model, ds, TrainConfig(epochs=1, batch_size=8, seed=0))
        assert len(result.loss_history) == 1
        assert handed and all(t.requires_grad for t in handed)
        got = {id(t) for t in handed}
        for name, tensor in model.registry.trainable_items():
            assert id(tensor) in got, name

    def test_train_hands_back_a_model_without_gradients(self):
        model, ds = small_setup(k=1, count=16)
        train(model, ds, TrainConfig(epochs=1, seed=0))
        assert all(t.grad is None for _, t in model.registry.items())

    def test_train_seconds_nonnegative(self):
        model, ds = small_setup(count=8)
        result = train(model, ds, TrainConfig(epochs=1, seed=0))
        assert result.train_seconds >= 0.0


class TestAdam:
    def test_matches_textbook_reference_bitwise(self):
        rng = np.random.default_rng(7)
        shapes = {"w": (6, 5), "b": (5,), "f": (2, 3, 4)}
        reg = enc.ParameterRegistry().allocate(
            [enc.Param(name, shape, "head", None, "zeros")
             for name, shape in shapes.items()], seed=0)
        for _, tensor in reg.items():
            tensor.data[...] = rng.standard_normal(tensor.shape)
        ref = {n: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape))
               for n, t in reg.items()}
        opt = Adam(reg, lr=1e-2)
        for t in (1, 2, 3):
            for name, tensor in reg.items():
                if name == "b" and t == 2:
                    tensor.grad = None  # no gradient: no update this step
                    continue
                tensor.grad = (rng.standard_normal(tensor.shape)
                               * 10.0 ** rng.integers(-6, 3))
                ref[name] = adam_reference(*ref[name], tensor.grad, t, lr=1e-2)
            opt.step()
            for name, tensor in reg.items():
                data, m, v = ref[name]
                assert np.array_equal(tensor.data, data), (name, t)
                assert np.array_equal(opt.m[name], m), (name, t)
                assert np.array_equal(opt.v[name], v), (name, t)

    def test_keeps_the_set_it_was_built_with(self):
        # a weight unfrozen after the optimizer is built has no moments in
        # it, so it stays put; an optimizer built after the flip updates it
        model, _ = small_setup(k=0)
        reg, name = model.registry, "layer0.attn.q_w"
        built_before = Adam(reg, lr=1e-3)
        reg[name].requires_grad = True
        reg[name].grad = np.ones(reg[name].shape)
        old = reg[name].data.copy()
        built_before.step()
        assert np.array_equal(reg[name].data, old)
        Adam(reg, lr=1e-3).step()
        assert not np.array_equal(reg[name].data, old)


DESK_SPECS = parse_manifest(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "manifests", "desk.cfg"))


def _reference_train(model, dataset, tc):
    """``train`` as plain ``backward()`` and then one textbook Adam step per
    trainable parameter. Returns the loss history and each one's (m, v)."""
    params = model.registry.trainable_items()
    state = {n: (np.zeros(t.shape), np.zeros(t.shape)) for n, t in params}
    rng = np.random.default_rng(tc.seed)
    history, step = [], 0
    for epoch in range(tc.epochs):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(dataset), tc.batch_size):
            batch = stack([dataset[i] for i in order[lo:lo + tc.batch_size]])
            loss = example_loss(model, batch)
            loss.backward()
            for name, tensor in params:
                if tensor.grad is not None:
                    data, m, v = adam_reference(tensor.data, *state[name],
                                                tensor.grad, step + 1,
                                                lr=tc.learning_rate)
                    tensor.data[...], state[name] = data, (m, v)
                    tensor.grad = None
            history.append((step, epoch, loss.item()))
            step += 1
    return history, state


class TestFusedUpdate:
    """``train`` updates each weight during backward, as soon as its gradient
    is complete; the result is bit for bit that of backward, then Adam."""

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: s.label)
    def test_equals_backward_then_reference_adam(self, spec, monkeypatch):
        tc = dataclasses.replace(spec.train_config, epochs=2)
        ds = generate_dataset(seed=1, count=20, seq_len=32,
                              vocab_size=spec.encoder_config.vocab_size,
                              unanswerable_fraction=1 / 3)
        built = []

        class Recorded(Adam):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(trainer, "Adam", Recorded)
        fused = build_model(spec.encoder_config, spec.policy, spec.head, 0)
        result = train(fused, ds, tc)
        plain = build_model(spec.encoder_config, spec.policy, spec.head, 0)
        history, state = _reference_train(plain, ds, tc)
        assert result.loss_history == history
        assert len(history) == 6
        for name, tensor in fused.registry.items():
            assert np.array_equal(tensor.data, plain.registry[name].data), name
        opt, = built
        assert opt.t == 6 and set(opt.m) == set(state)
        for name, (m, v) in state.items():
            assert np.array_equal(opt.m[name], m), name
            assert np.array_equal(opt.v[name], v), name


class _StubModel:
    """Produces fixed logits per example; lets evaluate() be tested alone."""

    def __init__(self, logit_fn):
        self.logit_fn = logit_fn

    def span_logits(self, batch):
        from peftlab.autograd import Tensor
        from peftlab.span import SpanExample
        pairs = [self.logit_fn(SpanExample(t, s, tuple(g))) for t, s, g
                 in zip(batch.tokens, batch.segments, batch.gold_span)]
        return Tensor(np.stack([np.stack(pair) for pair in pairs]))


class TestEvaluate:
    def test_perfect_oracle_logits(self):
        ds = generate_dataset(seed=4, count=30, seq_len=32, vocab_size=64,
                              unanswerable_fraction=0.4)

        def oracle(ex):
            s = np.zeros(len(ex.tokens))
            e = np.zeros(len(ex.tokens))
            s[ex.gold_span[0]] = 10.0
            e[ex.gold_span[1]] = 10.0
            return s, e

        em, f1, seconds = evaluate(_StubModel(oracle), ds, TrainConfig())
        assert (em, f1) == (100.0, 100.0)
        assert seconds >= 0.0

    def test_uniform_zero_logits_predict_null(self):
        ds = generate_dataset(seed=5, count=40, seq_len=32, vocab_size=64,
                              unanswerable_fraction=0.5)
        zeros = lambda ex: (np.zeros(len(ex.tokens)), np.zeros(len(ex.tokens)))
        em, f1, _ = evaluate(_StubModel(zeros), ds, TrainConfig())
        frac_null = 100.0 * sum(ex.gold_span == (0, 0) for ex in ds) / len(ds)
        assert em == frac_null
        assert f1 == frac_null

    def test_inference_time_grows_with_dataset(self):
        model, _ = small_setup()
        small = generate_dataset(seed=6, count=20, seq_len=32, vocab_size=64)
        large = small * 8
        _, _, t_small = evaluate(model, small, TrainConfig())
        _, _, t_large = evaluate(model, large, TrainConfig())
        assert t_large > t_small


class TestTracedEncoder:
    """bench/tracing.py times the encoder by replacing ``encoder.forward`` on
    the module; its ``encoder.forward_ms.grad`` and ``.nograd`` rows are the
    calls ``train`` and ``evaluate`` make through that attribute, so a
    direct call to ``embed`` or ``layers`` would leave them empty."""

    def test_train_and_evaluate_reach_encoder_forward_once_per_batch(
            self, monkeypatch):
        model, ds = small_setup(count=24)
        grad_modes = []

        def counting(*args, real=enc.forward):
            grad_modes.append(ag._grad_enabled)
            return real(*args)

        monkeypatch.setattr(enc, "forward", counting)
        train(model, ds, TrainConfig(batch_size=8, epochs=1))
        assert grad_modes == [True] * 3
        grad_modes.clear()
        evaluate(model, ds, TrainConfig(batch_size=8))
        assert grad_modes == [False] * 3


@pytest.mark.parametrize("max_answer_len", [0, -5])
def test_train_config_rejects_a_max_answer_len_below_1(max_answer_len):
    with pytest.raises(ValueError, match=f"^max_answer_len must be >= 1, got "
                       f"{max_answer_len}$"):
        TrainConfig(max_answer_len=max_answer_len)


class TestEfficiencyRatio:
    def test_reported_value_for_half_frozen_row(self):
        assert efficiency_ratio(75.2, 42_548_738) == pytest.approx(3.30,
                                                                   abs=0.01)

    def test_zero_numerator(self):
        assert efficiency_ratio(50.0, 12_345) == 0.0

    def test_full_finetune_row(self):
        assert efficiency_ratio(76.3, 108_311_810) == pytest.approx(3.27,
                                                                    abs=0.01)

    def test_f1_below_one_percent_is_a_real_score(self):
        assert efficiency_ratio(0.752, 42_548_738) == pytest.approx(
            (0.752 - 50.0) / np.log10(42_548_738), rel=1e-12)

    def test_rejects_tiny_count(self):
        with pytest.raises(ValueError):
            efficiency_ratio(75.0, 1)
