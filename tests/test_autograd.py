import contextlib
import math
import resource
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from peftlab import autograd as ag
from peftlab import encoder as enc
from peftlab.autograd import ShapeError, Tensor
from peftlab.checks import TOLERANCE, check_gradients, random_tensor, run_suite
from peftlab.encoder import AFFINE_SPAN, FreezePolicy
from peftlab.span import generate_dataset, stack
from peftlab.trainer import (Adam, TrainConfig, build_model, example_loss,
                             train)

from oracles import (adam_reference, attention_stored_exps, conv1d_loops,
                     gelu_reference, layer_norm_reference)


class TestMatmul:
    def test_identity(self):
        out = ag.matmul(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_checked(self):
        out = ag.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize("lead", [(2,), (2, 2)])
    def test_weight_must_be_2d(self, lead):
        with pytest.raises(ShapeError, match="matmul: incompatible shapes"):
            ag.matmul(Tensor(np.zeros(lead + (3, 4))),
                      Tensor(np.zeros(lead + (4, 5))))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        a, b = random_tensor(rng, (3, 4)), random_tensor(rng, (4, 2))
        assert check_gradients(lambda: ag.matmul(a, b), [a, b]) < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = ag.softmax(Tensor([0.0, 0.0, 0.0, 0.0]), 0)
        assert np.allclose(out.data, 0.25, atol=0)

    def test_large_inputs_no_overflow(self):
        out = ag.softmax(Tensor([1000.0, 1000.0]), 0)
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = ag.softmax(Tensor(rng.standard_normal((6, 9)) * 30), 1)
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(out.data > 0)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = random_tensor(rng, (2, 5))
        assert check_gradients(lambda: ag.softmax(x, 1), [x]) < 1e-6

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            ag.softmax(Tensor(np.zeros((2, 2))), 5)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = ag.layer_norm(Tensor([[5.0, 5.0, 5.0, 5.0]]),
                            Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_already_normalized_row(self):
        out = ag.layer_norm(Tensor([[-1.0, 1.0]]),
                            Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_output_rows_centered(self):
        rng = np.random.default_rng(3)
        out = ag.layer_norm(Tensor(rng.standard_normal((5, 8)) * 7),
                            Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.all(np.abs(out.data.mean(axis=1)) < 1e-10)

    def test_gradient_including_gain_bias(self):
        rng = np.random.default_rng(4)
        x = random_tensor(rng, (3, 8))
        gain, bias = random_tensor(rng, (8,)), random_tensor(rng, (8,))
        fn = lambda: ag.layer_norm(x, gain, bias)
        assert check_gradients(fn, [x, gain, bias]) < 1e-5

    # desk-long's and BERT-base's activations, one row without leading
    # axes, and a strided view (every other row and column)
    @pytest.mark.parametrize("make_x", [
        lambda rng: rng.standard_normal((8, 256, 32)),
        lambda rng: rng.standard_normal((2, 128, 768)) * 3 + 1,
        lambda rng: rng.standard_normal(32),
        lambda rng: rng.standard_normal((2, 40, 64))[:, ::2, ::2],
    ], ids=["desk-long", "bert-base", "one-row", "strided"])
    def test_forward_and_gradients_are_bitwise_the_reference(self, make_x):
        rng = np.random.default_rng(31)
        x = make_x(rng)
        h = x.shape[-1]
        gain, bias = rng.standard_normal(h), rng.standard_normal(h)
        g = rng.standard_normal(x.shape)
        ts = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        out = ag.layer_norm(*ts)
        out.backward(g)
        want = layer_norm_reference(x, gain, bias, g)
        assert np.array_equal(out.data, want[0])
        for t, grad in zip(ts, (want[3], want[1], want[2])):
            assert np.array_equal(t.grad, grad)


class TestConv1d:
    def test_identity_filter(self):
        x = Tensor([[1.0], [2.0], [3.0]])
        out = ag.conv1d(x, Tensor([[[1.0]]]), "valid")
        assert np.array_equal(out.data, [[1.0], [2.0], [3.0]])

    def test_width_two_valid(self):
        x = Tensor([[1.0], [2.0], [3.0], [4.0]])
        out = ag.conv1d(x, Tensor([[[1.0], [1.0]]]), "valid")
        assert np.array_equal(out.data, [[3.0], [5.0], [7.0]])

    def test_matches_loop_oracle_and_gradient(self):
        rng = np.random.default_rng(5)
        x = random_tensor(rng, (7, 3))
        f = random_tensor(rng, (2, 3, 3))
        out = ag.conv1d(x, f, "same")
        assert np.array_equal(out.data, conv1d_loops(x.data, f.data, "same"))
        assert check_gradients(lambda: ag.conv1d(x, f, "same"), [x, f]) < 1e-5

    def test_exhaustive_small_shapes_bitwise(self):
        rng = np.random.default_rng(6)
        for L in range(1, 9):
            for C in (1, 2, 3):
                for K in (1, 2):
                    for w in range(1, L + 1):
                        x = rng.standard_normal((L, C))
                        f = rng.standard_normal((K, w, C))
                        for padding in ("same", "valid"):
                            got = ag.conv1d(Tensor(x), Tensor(f), padding).data
                            want = conv1d_loops(x, f, padding)
                            assert np.array_equal(got, want), (L, C, K, w, padding)

    def test_valid_rejects_wide_filter(self):
        with pytest.raises(ShapeError):
            ag.conv1d(Tensor(np.zeros((2, 1))), Tensor(np.zeros((1, 3, 1))),
                      "valid")

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ag.conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((1, 2, 3))),
                      "same")


class TestMaxReduce:
    def test_columnwise_max(self):
        out = ag.max_reduce(Tensor([[1.0, 9.0], [5.0, 2.0], [3.0, 3.0]]))
        assert np.array_equal(out.data, [5.0, 9.0])

    def test_single_row(self):
        out = ag.max_reduce(Tensor([[4.0, 7.0]]))
        assert np.array_equal(out.data, [4.0, 7.0])

    def test_tie_routes_to_first_index(self):
        x = Tensor([[2.0, 1.0], [2.0, 1.0]], requires_grad=True)
        ag.max_reduce(x).backward(np.ones(2))
        assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])

    def test_gradient_distinct_entries(self):
        x = Tensor(np.array([[0.1, 0.9], [0.5, 0.3], [0.2, 0.7]]),
                   requires_grad=True)
        assert check_gradients(lambda: ag.max_reduce(x), [x]) < 1e-6


class TestElementwise:
    def test_gelu_zero(self):
        assert ag.gelu(Tensor(0.0)).data == 0.0

    def test_cross_entropy_uniform_two_way(self):
        loss = ag.cross_entropy_from_logits(Tensor([0.0, 0.0]), 0)
        assert abs(loss.item() - math.log(2)) < 1e-12

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(IndexError):
            ag.cross_entropy_from_logits(Tensor([0.0, 0.0]), 2)

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ag.embedding_lookup(table, np.array([2, 0]))
        assert np.array_equal(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_embedding_lookup_rejects_bad_id(self):
        with pytest.raises(IndexError):
            ag.embedding_lookup(Tensor(np.zeros((4, 3))), np.array([4]))

    def test_split_sizes_must_match(self):
        with pytest.raises(ShapeError):
            ag.split(Tensor(np.zeros((2, 4))), [1, 2])

    def test_transpose_swaps_the_last_two_axes_into_c_order_copies(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = ag.transpose(x)
        g = np.arange(24.0).reshape(2, 4, 3)
        out.backward(g)
        assert np.array_equal(out.data, np.swapaxes(x.data, 1, 2))
        assert np.array_equal(x.grad, np.swapaxes(g, 1, 2))
        assert out.data.flags.c_contiguous and x.grad.flags.c_contiguous


class TestGradientCheck:
    def test_sees_a_gradient_error_orthogonal_to_ones(self):
        # an exact identity whose backward reverses g: projected onto
        # all-ones, its gradient cannot be told from the true one
        x = random_tensor(np.random.default_rng(23), (6,))

        def reversed_identity():
            return ag._node(x.data.copy(), (x,),
                            lambda g: ag._accumulate(x, g[::-1]))

        assert check_gradients(reversed_identity, [x]) > TOLERANCE

    def test_scalar_loss_is_checked_at_unit_weight(self):
        # a scalar op whose gradient is 5e-4 too large must fail at 1e-4;
        # a cotangent weight below 1 would scale the error under the gate
        x = random_tensor(np.random.default_rng(29), (4,))

        def inflated_sum():
            return ag._node(np.array(x.data.sum()), (x,),
                            lambda g: ag._accumulate(
                                x, np.full(x.shape, g * (1 + 5e-4))))

        assert check_gradients(inflated_sum, [x]) > TOLERANCE

    def test_every_op_has_a_check(self):
        public = {name for name, obj in vars(ag).items()
                  if not name.startswith("_") and callable(obj)
                  and getattr(obj, "__module__", None) == ag.__name__}
        non_ops = {"Tensor", "ShapeError", "no_grad", "blockwise"}
        assert non_ops <= public
        checked = [name for name, _, _ in run_suite()]
        unchecked = [op for op in sorted(public - non_ops)
                     if not any(c == op or c.startswith(op + "_")
                                for c in checked)]
        assert not unchecked


class TestTapeProperties:
    @pytest.mark.parametrize("seed", range(100))
    def test_finite_difference_agreement_many_seeds(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_tensor(rng, (3, 3)), random_tensor(rng, (3, 3))
        fn = lambda: ag.gelu(ag.matmul(ag.softmax(a, 1), b))
        assert check_gradients(fn, [a, b]) < 1e-4

    def test_backward_linearity(self):
        # grad of (f + g) equals grad f plus grad g, accumulated on one tape
        rng = np.random.default_rng(11)
        x = random_tensor(rng, (4, 4))

        def run(parts):
            x.zero_grad()
            out = parts[0]()
            for p in parts[1:]:
                out = ag.add(out, p())
            out.backward(np.ones(out.shape))
            return x.grad.copy()

        f = lambda: ag.gelu(x)
        g = lambda: ag.matmul(x, x)
        combined = run([f, g])
        assert np.allclose(combined, run([f]) + run([g]), atol=1e-12)

    def test_backward_visits_shared_node_once(self):
        # y used twice: d(y + y)/dx must be exactly 2 * dy/dx
        x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        y = ag.gelu(x)
        ag.add(y, y).backward(np.ones(2))
        expected = 2.0 * gelu_reference(x.data)[1]
        assert np.allclose(x.grad, expected, atol=1e-12)

    def test_replay_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
            b = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
            out = ag.gelu(ag.matmul(ag.softmax(a, 0), b))
            out.backward(np.ones((5, 5)))
            return out.data.copy(), a.grad.copy(), b.grad.copy()

        o1, ga1, gb1 = run()
        o2, ga2, gb2 = run()
        assert np.array_equal(o1, o2)
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)

    def test_forward_outputs_finite(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((6, 8)) * 50)
        out = ag.layer_norm(ag.softmax(x, 1), Tensor(np.ones(8)),
                            Tensor(np.zeros(8)))
        assert np.all(np.isfinite(out.data))


class TestLeanBackward:
    def test_a_leaf_adopts_its_weight_gradient(self):
        # the backward allocates w's gradient once and hands it on uncopied
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((8, 256)))
        w = Tensor(rng.standard_normal((256, 4096)), requires_grad=True)
        out = ag.matmul(x, w)
        g = rng.standard_normal((8, 4096))
        tracemalloc.start()
        try:
            out.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(w.grad, x.data.T @ g)
        assert peak < 1.5 * w.data.nbytes

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 4), (3, 1)),
                                                  ((2, 3, 4), (1, 3, 4))])
    def test_add_broadcasts_over_leading_axes_only(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="ends the other"):
            ag.add(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize("root_is_leaf", [False, True])
    def test_output_gradient_is_copied(self, root_is_leaf):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        root = x if root_is_leaf else ag.add(ag.gelu(x), w)
        g = rng.standard_normal((3, 4))
        root.backward(g)
        tensors = [t for t in (root, x, w) if t.grad is not None]
        before = [t.grad.copy() for t in tensors]
        g[...] = 7.0
        for t, want in zip(tensors, before):
            assert np.array_equal(t.grad, want)

    def test_frozen_embedding_table_gets_no_dense_gradient(self):
        rng = np.random.default_rng(14)
        table = Tensor(rng.standard_normal((50000, 64)))
        w = Tensor(rng.standard_normal((16, 64)), requires_grad=True)
        ids = rng.integers(0, 50000, size=16)
        out = ag.add(ag.embedding_lookup(table, ids), w)
        g = np.ones((16, 64))
        tracemalloc.start()
        try:
            out.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.grad is None
        assert w.grad is not None
        assert peak < table.data.nbytes

    def test_gelu_matches_pow_form(self):
        v = np.random.default_rng(15).standard_normal(10_000) * 4.0
        want = 0.5 * v * (1.0 + np.tanh(
            math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))
        got = ag.gelu(Tensor(v)).data
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-14


class TestSavedArrays:
    @pytest.mark.parametrize("weight_trains", [False, True])
    def test_matmul_keeps_its_input_only_for_a_trainable_weight(
            self, weight_trains):
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 2)), requires_grad=weight_trains)
        h = ag.matmul(x, w1)
        alive = weakref.ref(h.data)
        out = ag.matmul(h, w2)
        del h
        assert (alive() is not None) == weight_trains
        g = rng.standard_normal((4, 2))
        out.backward(g)
        assert np.allclose(w1.grad, x.data.T @ (g @ w2.data.T),
                           rtol=1e-12, atol=0)
        assert (w2.grad is not None) == weight_trains

    def test_add_operands_and_layer_norm_input_are_freed(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w1, w2 = (Tensor(rng.standard_normal((6, 6)), requires_grad=True)
                  for _ in range(2))
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        bias = Tensor(rng.standard_normal(6), requires_grad=True)
        a, b = ag.matmul(x, w1), ag.matmul(x, w2)
        operands = [weakref.ref(a.data), weakref.ref(b.data)]
        s = ag.add(a, b)
        del a, b
        assert all(ref() is None for ref in operands)
        summed = weakref.ref(s.data)
        out = ag.layer_norm(s, gain, bias)
        del s
        assert summed() is None
        out.backward(rng.standard_normal((4, 6)))
        assert all(t.grad is not None for t in (x, w1, w2, gain, bias))

    def test_backward_drops_every_interior_gradient(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        h = ag.matmul(x, w1)
        y = ag.matmul(ag.gelu(h), w2)
        root = ag.add(y, ag.scale(y, 2.0))  # y's gradient is accumulated
        interior = [v for v in ag._toposort(root) if v._backward is not None]
        g = rng.standard_normal((3, 2))
        root.backward(g)
        assert len(interior) == 5
        assert all(v.grad is None for v in interior)
        act, dact = gelu_reference(h.data)
        gy = g + g * 2.0
        gh = (gy @ w2.data.T) * dact
        for leaf, want in ((w2, act.T @ gy), (w1, x.data.T @ gh),
                           (x, gh @ w1.data.T)):
            assert np.allclose(leaf.grad, want, rtol=1e-12, atol=1e-14)

    def test_unfreezing_after_the_forward_adds_no_gradient(self):
        # what a backward reads is chosen when the op is recorded, so a flag
        # flipped after the forward changes nothing for that graph
        rng = np.random.default_rng(27)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)))
        out = ag.matmul(x, w)
        w.requires_grad = True
        out.backward(np.ones((3, 2)))
        assert x.grad is not None and w.grad is None

    def test_freezing_after_the_forward_keeps_the_gradient(self):
        rng = np.random.default_rng(34)
        table = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        ids = np.array([0, 5, 5])
        out = ag.add(ag.embedding_lookup(table, ids), w)
        table.requires_grad = w.requires_grad = False
        g = rng.standard_normal((3, 4))
        out.backward(g)
        want = np.zeros((6, 4))
        np.add.at(want, ids, g)
        assert np.array_equal(table.grad, want)
        assert np.array_equal(w.grad, g)

    def test_backward_on_a_frozen_leaf_does_nothing(self):
        x = Tensor(np.array(2.0))
        x.backward()
        assert x.grad is None


class TestReleasedTape:
    """Backward frees each node's saved arrays as it runs it, so a graph is
    walked once and a training step holds one tape."""

    @staticmethod
    def _desk_long_model():
        config = enc.desk_config()
        config.max_seq_len = 256
        return build_model(config, FreezePolicy(0), AFFINE_SPAN, 0)

    @pytest.mark.parametrize("second_root", [
        lambda y, out: out,
        lambda y, out: ag.scale(y, 2.0),
    ], ids=["same-root", "shared-subgraph"])
    def test_a_graph_is_walked_once(self, second_root):
        x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        y = ag.gelu(x)
        out = ag.add(y, y)
        out.backward(np.ones(2))
        first = x.grad
        root = second_root(y, out)
        with pytest.raises(RuntimeError, match="rebuild"):
            root.backward(np.ones(2))
        assert x.grad is first

    def test_backward_frees_the_input_matmul_kept_for_its_weight(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        h = ag.matmul(x, w1)
        kept, h_data = weakref.ref(h.data), h.data.copy()
        out = ag.matmul(h, w2)
        del h
        assert kept() is not None
        g = rng.standard_normal((4, 2))
        out.backward(g)
        assert kept() is None
        gh = g @ w2.data.T
        for leaf, want in ((w2, h_data.T @ g), (w1, x.data.T @ gh),
                           (x, gh @ w1.data.T)):
            assert np.allclose(leaf.grad, want, rtol=1e-12, atol=1e-14)

    def test_a_desk_long_step_keeps_only_the_weight_gradients(self):
        model = self._desk_long_model()
        batch = stack(generate_dataset(0, 8, 256, 64))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            loss = example_loss(model, batch)
            loss.backward()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grads = {id(t.grad): t.grad.nbytes
                 for _, t in model.registry.trainable_items()
                 if t.grad is not None}
        assert grads
        assert after - before <= sum(grads.values()) + 64 * 1024

    def test_training_peaks_at_one_tape_whatever_the_step_count(self):
        dataset = generate_dataset(0, 24, 256, 64)
        peaks = []
        for count in (8, 24):  # one step, then three, of batch 8
            model = self._desk_long_model()
            tracemalloc.start()
            try:
                train(model, dataset[:count], TrainConfig(epochs=1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 256 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="glibc's mallopt")
    def test_later_steps_reuse_the_memory_a_step_freed(self):
        model = self._desk_long_model()
        dataset = generate_dataset(0, 48, 256, 64)
        train(model, dataset[:8], TrainConfig(epochs=1))  # the heap grows
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(model, dataset, TrainConfig(epochs=1))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # a step's tape is about 15 MB, some 3,700 pages
        assert faults < 500


def _nodes_without_leaves(root):
    """The nodes of a graph in reverse topological order, from the same
    iterative walk over node parents alone, leaves left out."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack += [(p, False) for p in node._parents
                      if isinstance(p, ag._Node) and id(p) not in visited]
    return order[::-1]


class TestLeafHandOff:
    """``backward(on_leaf=...)`` hands each trainable leaf over once its
    gradient is complete, so an optimizer can use it up during the walk."""

    @staticmethod
    def _desk_step(policy):
        model = build_model(enc.desk_config(), policy, AFFINE_SPAN, 0)
        loss = example_loss(model, stack(generate_dataset(0, 4, 32, 64)))
        return model, loss

    @pytest.mark.parametrize("policy", [FreezePolicy(2, True), FreezePolicy(1),
                                        FreezePolicy(0)],
                             ids=["k2-embeddings", "k1", "k0"])
    def test_each_leaf_is_handed_once_after_every_node_reading_it(
            self, policy, monkeypatch):
        model, loss = self._desk_step(policy)
        readers = {}  # leaf id -> the nodes that read it
        seen, todo = set(), [loss._node]
        while todo:
            node = todo.pop()
            for p in node._parents:
                if isinstance(p, Tensor):
                    readers.setdefault(id(p), []).append(node)
                elif id(p) not in seen:
                    seen.add(id(p))
                    todo.append(p)
        trainable = {id(t): n for n, t in model.registry.trainable_items()}
        opt = Adam(model.registry, lr=1e-3)
        accumulated = []  # every gradient handed on, in order
        accumulate = ag._accumulate
        monkeypatch.setattr(ag, "_accumulate", lambda vertex, grad: (
            accumulated.append(vertex), accumulate(vertex, grad)))
        handed = []  # (leaf, other leaves holding a gradient, len(accumulated))

        def on_leaf(leaf):
            assert all(node._backward is None for node in readers[id(leaf)])
            holders = {trainable[id(t)] for _, t in model.registry.items()
                       if t.grad is not None and t is not leaf}
            handed.append((trainable[id(leaf)], holders, len(accumulated)))
            opt.update(leaf)

        loss.backward(on_leaf=on_leaf)
        assert sorted(n for n, _, _ in handed) == sorted(trainable.values())
        # another leaf may hold a gradient only if the same closure completed
        # it (a layer norm's gain and bias): it is handed over before the
        # next gradient is handed on
        together = {}
        for name, _, mark in handed:
            together.setdefault(mark, set()).add(name)
        for _, holders, mark in handed:
            assert holders <= together[mark]
        assert all(t.grad is None for _, t in model.registry.items())

    def test_nodes_keep_their_order(self):
        model, loss = self._desk_step(FreezePolicy(2, True))
        walk = [v for v in ag._toposort(loss._node) if isinstance(v, ag._Node)]
        assert walk == _nodes_without_leaves(loss._node)

    def test_a_weight_read_by_two_matmuls_arrives_once_with_both_sums(self):
        rng = np.random.default_rng(40)
        x1 = Tensor(rng.standard_normal((5, 3)))
        x2 = Tensor(rng.standard_normal((2, 5, 3)))
        w_data = rng.standard_normal((3, 4))
        g = rng.standard_normal((2, 5, 4))

        def graph():
            w = Tensor(w_data, requires_grad=True)
            deep = ag.gelu(ag.matmul(x1, w))
            return w, ag.add(ag.matmul(x2, w), deep)

        w, out = graph()
        handed = []
        out.backward(g, on_leaf=lambda t: handed.append((t, t.grad)))
        assert len(handed) == 1 and handed[0][0] is w
        w_plain, out_plain = graph()
        out_plain.backward(g)
        assert np.array_equal(handed[0][1], w_plain.grad)
        _, dx = gelu_reference(x1.data @ w_data)
        want = (x1.data.T @ (g.sum(axis=0) * dx)
                + x2.data.reshape(-1, 3).T @ g.reshape(-1, 4))
        assert np.allclose(handed[0][1], want, rtol=1e-12, atol=1e-14)

    def test_a_leaf_missing_from_adams_set_keeps_its_gradient(self):
        rng = np.random.default_rng(42)
        reg = enc.ParameterRegistry().allocate(
            [enc.Param(n, (3, 2), "head", None, "zeros") for n in "ab"], seed=0)
        for _, tensor in reg.items():
            tensor.data[...] = rng.standard_normal((3, 2))
        reg["b"].requires_grad = False
        opt = Adam(reg, lr=1e-2)
        reg["b"].requires_grad = True  # after the optimizer was built
        a_data, b_data = reg["a"].data.copy(), reg["b"].data.copy()
        x = Tensor(rng.standard_normal((4, 3)))
        g = rng.standard_normal((4, 2))
        ag.add(ag.matmul(x, reg["a"]), ag.matmul(x, reg["b"])).backward(
            g, on_leaf=opt.update)
        want, _, _ = adam_reference(a_data, np.zeros((3, 2)), np.zeros((3, 2)),
                                    x.data.T @ g, 1, lr=1e-2)
        assert reg["a"].grad is None
        assert np.array_equal(reg["a"].data, want)
        assert np.array_equal(reg["b"].grad, x.data.T @ g)
        assert np.array_equal(reg["b"].data, b_data)
        opt.step()
        assert np.array_equal(reg["b"].data, b_data) and opt.t == 1


class TestBatchAxis:
    def test_conv1d_batch_rows_equal_per_example_and_loop_oracle(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 7, 2))
        shared = rng.standard_normal((4, 3, 2))
        per_sample = rng.standard_normal((3, 4, 3, 2))
        for padding in ("same", "valid"):
            got = ag.conv1d(Tensor(x), Tensor(shared), padding).data
            got_ps = ag.conv1d(Tensor(x), Tensor(per_sample), padding).data
            for b in range(3):
                one = ag.conv1d(Tensor(x[b]), Tensor(shared), padding).data
                assert np.array_equal(got[b], one)
                assert np.array_equal(got[b], conv1d_loops(x[b], shared, padding))
                assert np.array_equal(
                    got_ps[b], conv1d_loops(x[b], per_sample[b], padding))

    def test_conv1d_rejects_filters_of_another_batch(self):
        with pytest.raises(ShapeError):
            ag.conv1d(Tensor(np.zeros((2, 4, 1))), Tensor(np.zeros((3, 1, 1, 1))),
                      "same")

    def test_attention_equals_the_unfused_chain(self):
        # [2, 130, 12] with 3 heads has one head per group, so six groups
        rng = np.random.default_rng(17)
        for shape in ((2, 5, 12), (2, 130, 12)):
            q, k, v = (rng.standard_normal(shape) for _ in range(3))
            g = rng.standard_normal(shape)
            fused = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = ag.attention(*fused, 3)
            out.backward(g)
            for b in range(shape[0]):
                for h in range(3):
                    cols = slice(4 * h, 4 * h + 4)
                    qh, kh, vh = (Tensor(a[b, :, cols], requires_grad=True)
                                  for a in (q, k, v))
                    scores = ag.scale(ag.matmul(qh, ag.transpose(kh)),
                                      1.0 / math.sqrt(4))
                    ref = ag.matmul(ag.softmax(scores, 1), vh)
                    ref.backward(g[b, :, cols])
                    assert np.allclose(out.data[b, :, cols], ref.data,
                                       rtol=1e-12, atol=1e-14)
                    for t, ref in zip(fused, (qh, kh, vh)):
                        assert np.allclose(t.grad[b, :, cols], ref.grad,
                                           rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("num_heads", [0, -1, 5])
    def test_attention_rejects_a_head_count_that_does_not_split_the_width(
            self, num_heads):
        q = Tensor(np.zeros((2, 3, 12)))
        with pytest.raises(ShapeError, match="heads"):
            ag.attention(q, q, q, num_heads)

    @pytest.mark.parametrize("other", [(2, 4, 12), (2, 3, 6), (3, 12)])
    @pytest.mark.parametrize("slot", [1, 2])
    def test_attention_rejects_a_k_or_v_shaped_unlike_q(self, other, slot):
        qkv = [Tensor(np.zeros((2, 3, 12))) for _ in range(3)]
        qkv[slot] = Tensor(np.zeros(other))
        with pytest.raises(ShapeError, match="incompatible"):
            ag.attention(*qkv, 3)

    @staticmethod
    def _attention_run(q, k, v, g, num_heads):
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = ag.attention(*ts, num_heads)
        out.backward(g)
        return [out.data] + [t.grad for t in ts]

    # group sizes at the default BLOCK: 1310 (one group per row of 3 heads),
    # 3 (which divides neither A = 5 nor B·A = 10), 2 (of A = 3), and 2 for
    # a single head without leading axes
    @pytest.mark.parametrize("shape, num_heads", [
        ((2, 5, 12), 3),
        ((2, 100, 20), 5),
        ((120, 6), 3),
        ((128, 4), 1),
    ])
    def test_attention_is_bitwise_the_same_at_every_group_size(
            self, monkeypatch, shape, num_heads):
        rng = np.random.default_rng(20)
        q, k, v, g = (rng.standard_normal(shape) for _ in range(4))
        default = self._attention_run(q, k, v, g, num_heads)
        for block in (16, 2 ** 40):
            monkeypatch.setattr(ag, "BLOCK", block)
            for got, want in zip(self._attention_run(q, k, v, g, num_heads),
                                 default):
                assert np.array_equal(got, want)

    def test_no_grad_attention_equals_the_training_forward(self):
        rng = np.random.default_rng(21)
        q, k, v = (Tensor(rng.standard_normal((2, 70, 12)),
                          requires_grad=True) for _ in range(3))
        trained = ag.attention(q, k, v, 3)
        with ag.no_grad():
            inferred = ag.attention(q, k, v, 3)
        assert trained._backward is not None and inferred._backward is None
        assert np.array_equal(inferred.data, trained.data)

    @staticmethod
    def _traced(fn):
        """Run ``fn``; return (its result, bytes before, after, peak)."""
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = fn()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, before, after, peak

    def test_no_grad_attention_keeps_one_group_of_scores(self):
        B, A, L, d = 8, 4, 256, 8
        rng = np.random.default_rng(28)
        q, k, v = (Tensor(rng.standard_normal((B, L, A * d)), requires_grad=True)
                   for _ in range(3))
        group = max(1, ag.BLOCK // (L * L))
        group_bytes = min(group, A) * L * L * 8
        with ag.no_grad():
            _, before, _, peak = self._traced(
                lambda: ag.attention(q, k, v, A))
        # the output is q-sized; the scaled q and the scores take one group
        assert peak - before < 2 * q.data.nbytes + 2 * group_bytes

    def test_self_attention_on_one_tensor_sums_the_three_gradients(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 6, 6))
        g = rng.standard_normal((2, 6, 6))
        shared = Tensor(x, requires_grad=True)
        ag.attention(shared, shared, shared, 2).backward(g)
        _, gq, gk, gv = self._attention_run(x, x, x, g, 2)
        assert np.allclose(shared.grad, gq + gk + gv, rtol=1e-13, atol=1e-15)

    def test_training_attention_keeps_no_score_sized_array(self):
        # desk-long's shape: one head per group, whose scores take 0.5 MiB,
        # where the exps of all heads would take 16 MiB
        B, A, L, d = 8, 4, 256, 8
        rng = np.random.default_rng(18)
        q, k, v = (Tensor(rng.standard_normal((B, L, A * d)), requires_grad=True)
                   for _ in range(3))
        group_bytes = max(1, ag.BLOCK // (L * L)) * L * L * 8
        out, before, _, peak = self._traced(
            lambda: ag.attention(q, k, v, A))
        assert out._backward is not None
        # the peak, and so what the call keeps: beyond the output, the row
        # maxima and sums, one group of scaled q and one group of scores
        assert peak - before - out.data.nbytes < 4 * q.data.nbytes + group_bytes

    def test_attention_backward_holds_two_groups_of_scores(self):
        B, A, L, d = 8, 4, 256, 8
        rng = np.random.default_rng(29)
        leaves = [Tensor(rng.standard_normal((B, L, A * d)), requires_grad=True)
                  for _ in range(3)]
        # interior operands adopt their gradients, so the backward's own
        # arrays are all that tracemalloc sees
        q, k, v = (ag.scale(t, 1.0) for t in leaves)
        out = ag.attention(q, k, v, A)
        g = rng.standard_normal((B, L, A * d))
        group_bytes = max(1, ag.BLOCK // (L * L)) * L * L * 8
        _, before, after, peak = self._traced(lambda: out._backward(g))
        grads = [t._node.grad for t in (q, k, v)]
        assert all(grad is not None and grad.shape == q.shape
                   and grad.nbytes == q.data.nbytes for grad in grads)
        assert after - before >= sum(grad.nbytes for grad in grads)
        # beyond the three gradients it hands on, the backward holds the
        # recomputed exps and their gradient, each group-sized, and per-group
        # temporaries (scaled q, dO / z, numpy's ufunc buffer) smaller than q
        assert peak - after < 2 * group_bytes + q.data.nbytes

    # the oracle runs at the caller's BLAS thread count; the op's head loops
    # run on one thread, or at that count where the setter is absent
    @pytest.mark.parametrize("setter", ["found", "absent"])
    # desk-long's shape at L = 256 (one head per group), a whole row of
    # heads per group, three heads per group of A = 5, one head without
    # leading axes, and BERT-base's heads of width 64 at L = 128
    @pytest.mark.parametrize("shape, num_heads", [
        ((2, 256, 32), 4),
        ((2, 64, 32), 4),
        ((2, 100, 20), 5),
        ((128, 4), 1),
        ((2, 128, 768), 12),
    ])
    @pytest.mark.parametrize("trains", [(True, True, True), (True, False, False),
                                        (False, True, False),
                                        (False, False, True)])
    def test_attention_is_bitwise_the_stored_exps_oracle(
            self, monkeypatch, shape, num_heads, trains, setter):
        if setter == "absent":
            monkeypatch.setattr(ag, "_set_blas_threads", None)
        rng = np.random.default_rng(30)
        q, k, v, g = (rng.standard_normal(shape) for _ in range(4))
        d = shape[-1] // num_heads
        ts = [Tensor(a, requires_grad=r) for a, r in zip((q, k, v), trains)]
        out = ag.attention(*ts, num_heads)
        out.backward(g)

        def heads(a):  # [..., L, H] -> the per-head view [..., A, L, d]
            return np.swapaxes(a.reshape(a.shape[:-1] + (num_heads, d)), -3, -2)

        want = attention_stored_exps(heads(q), heads(k), heads(v), heads(g),
                                     1.0 / math.sqrt(d))
        assert np.array_equal(heads(out.data), want[0])
        for t, r, grad in zip(ts, trains, want[1:]):
            assert (t.grad is not None) == r
            assert not r or np.array_equal(heads(t.grad), grad)

    def test_cross_entropy_batch_is_the_sum_of_rows(self):
        rng = np.random.default_rng(19)
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 5, 2, 2])
        batched = ag.cross_entropy_from_logits(Tensor(logits), targets).item()
        rows = sum(ag.cross_entropy_from_logits(Tensor(row), t).item()
                   for row, t in zip(logits, targets))
        assert batched == pytest.approx(rows, rel=1e-14)


class TestOneBlasThread:
    @staticmethod
    def _count(setter):
        """The current BLAS thread count, read through the setter's return."""
        count = setter(1)
        setter(count)
        return count

    @pytest.mark.parametrize("raises", [False, True])
    def test_scope_restores_the_previous_count(self, raises):
        setter = ag._set_blas_threads
        if setter is None:
            pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
        original = setter(2)
        try:
            with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
                with ag._one_blas_thread():
                    assert self._count(setter) == 1
                    if raises:
                        raise RuntimeError("body failed")
            assert self._count(setter) == 2
        finally:
            setter(original)

    def test_attention_loops_run_on_one_thread_and_restore(self, monkeypatch):
        calls = []

        def fake(count):  # a caller at 2 threads, logging each setting
            calls.append(count)
            return 2
        monkeypatch.setattr(ag, "_set_blas_threads", fake)
        rng = np.random.default_rng(32)
        q, k, v = (Tensor(rng.standard_normal((2, 9, 8)), requires_grad=True)
                   for _ in range(3))
        with ag.no_grad():
            ag.attention(q, k, v, 2)
        assert calls == [1, 2]
        out = ag.attention(q, k, v, 2)
        assert calls == [1, 2] * 2
        out.backward(rng.standard_normal((2, 9, 8)))
        assert calls == [1, 2] * 3

    def test_attention_starts_no_thread(self):
        rng = np.random.default_rng(33)
        q, k, v = (Tensor(rng.standard_normal((8, 256, 32)), requires_grad=True)
                   for _ in range(3))
        before = threading.active_count()
        out = ag.attention(q, k, v, 4)
        assert threading.active_count() == before
        out.backward(rng.standard_normal((8, 256, 32)))
        assert threading.active_count() == before
