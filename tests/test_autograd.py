import math
import tracemalloc

import numpy as np
import pytest

from peftlab import autograd as ag
from peftlab.autograd import ShapeError, Tensor
from peftlab.checks import TOLERANCE, check_gradients, random_tensor, run_suite

from oracles import conv1d_loops, gelu_reference


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
        out = ag.max_reduce(Tensor([[1.0, 9.0], [5.0, 2.0], [3.0, 3.0]]), 0)
        assert np.array_equal(out.data, [5.0, 9.0])

    def test_single_row(self):
        out = ag.max_reduce(Tensor([[4.0, 7.0]]), 0)
        assert np.array_equal(out.data, [4.0, 7.0])

    def test_tie_routes_to_first_index(self):
        x = Tensor([[2.0, 1.0], [2.0, 1.0]], requires_grad=True)
        ag.max_reduce(x, 0).backward(np.ones(2))
        assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])

    def test_gradient_distinct_entries(self):
        x = Tensor(np.array([[0.1, 0.9], [0.5, 0.3], [0.2, 0.7]]),
                   requires_grad=True)
        assert check_gradients(lambda: ag.max_reduce(x, 0), [x]) < 1e-6


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
            ag.split(Tensor(np.zeros((4, 2))), [1, 2], 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_all_ops_gradient(self, seed):
        for name, err, passed in run_suite(seed=seed, include_composites=False):
            assert passed, f"{name}: max rel err {err:.3e}"


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
        checked = [name for name, _, _ in run_suite(include_composites=False)]
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
    def test_leaf_gradients_do_not_alias(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        ag.add(a, b).backward(np.ones((2, 3)))
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)

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

    @pytest.mark.parametrize("freeze_after_forward", [False, True])
    def test_frozen_embedding_table_gets_no_dense_gradient(
            self, freeze_after_forward):
        rng = np.random.default_rng(14)
        table = Tensor(rng.standard_normal((50000, 64)),
                       requires_grad=freeze_after_forward)
        w = Tensor(rng.standard_normal((16, 64)), requires_grad=True)
        ids = rng.integers(0, 50000, size=16)
        out = ag.add(ag.embedding_lookup(table, ids), w)
        g = np.ones((16, 64))
        table.requires_grad = False
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
        # (2, 3, 130, 4) has one head per group, so six groups
        rng = np.random.default_rng(17)
        for shape in ((2, 3, 5, 4), (2, 3, 130, 4)):
            q, k, v = (rng.standard_normal(shape) for _ in range(3))
            g = rng.standard_normal(shape)
            fused = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = ag.attention(*fused, 0.5)
            out.backward(g)
            for b in range(shape[0]):
                for h in range(shape[1]):
                    qh, kh, vh = (Tensor(a[b, h], requires_grad=True)
                                  for a in (q, k, v))
                    scores = ag.scale(ag.matmul(qh, ag.transpose(kh)), 0.5)
                    ref = ag.matmul(ag.softmax(scores, 1), vh)
                    ref.backward(g[b, h])
                    assert np.allclose(out.data[b, h], ref.data, rtol=1e-12,
                                       atol=1e-14)
                    for t, ref in zip(fused, (qh, kh, vh)):
                        assert np.allclose(t.grad[b, h], ref.grad,
                                           rtol=1e-12, atol=1e-14)

    @staticmethod
    def _attention_run(q, k, v, g):
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = ag.attention(*ts, 0.3)
        out.backward(g)
        return [out.data] + [t.grad for t in ts]

    # group sizes at the default BLOCK: 1310 (one group per row of A = 3
    # heads), 3 (which divides neither A = 5 nor B·A = 10), the same on the
    # encoder's head-transposed views, 2 (of A = 3), and 2 for a single head
    # without leading axes
    @pytest.mark.parametrize("q_shape, kv_shape, transposed", [
        ((2, 3, 5, 4), (2, 3, 5, 4), False),
        ((2, 5, 100, 4), (2, 5, 90, 4), False),
        ((2, 5, 100, 4), (2, 5, 90, 4), True),
        ((3, 120, 2), (3, 100, 2), False),
        ((130, 4), (120, 4), False),
    ])
    def test_attention_is_bitwise_the_same_at_every_group_size(
            self, monkeypatch, q_shape, kv_shape, transposed):
        rng = np.random.default_rng(20)

        def draw(shape):  # [B, A, L, d], optionally a view of [B, L, A, d]
            if not transposed:
                return rng.standard_normal(shape)
            b, a, n, d = shape
            return rng.standard_normal((b, n, a, d)).transpose(0, 2, 1, 3)

        q = draw(q_shape)
        k, v = draw(kv_shape), draw(kv_shape)
        g = draw(q_shape)
        default = self._attention_run(q, k, v, g)
        for block in (16, 2 ** 40):
            monkeypatch.setattr(ag, "BLOCK", block)
            for got, want in zip(self._attention_run(q, k, v, g), default):
                assert np.array_equal(got, want)

    def test_no_grad_attention_equals_the_training_forward(self):
        rng = np.random.default_rng(21)
        q, k, v = (Tensor(rng.standard_normal((2, 3, 70, 4)),
                          requires_grad=True) for _ in range(3))
        trained = ag.attention(q, k, v, 0.5)
        with ag.no_grad():
            inferred = ag.attention(q, k, v, 0.5)
        assert trained._backward is not None and inferred._backward is None
        assert np.array_equal(inferred.data, trained.data)

    def test_self_attention_on_one_tensor_sums_the_three_gradients(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 2, 6, 3))
        g = rng.standard_normal((2, 2, 6, 3))
        shared = Tensor(x, requires_grad=True)
        ag.attention(shared, shared, shared, 0.3).backward(g)
        _, gq, gk, gv = self._attention_run(x, x, x, g)
        assert np.allclose(shared.grad, gq + gk + gv, rtol=1e-13, atol=1e-15)

    def test_training_attention_keeps_one_score_sized_array(self):
        B, A, L, d = 2, 2, 96, 2
        rng = np.random.default_rng(18)
        q, k, v = (Tensor(rng.standard_normal((B, A, L, d)), requires_grad=True)
                   for _ in range(3))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = ag.attention(q, k, v, 0.5)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        score_bytes = B * A * L * L * 8
        assert out._backward is not None
        assert kept - before - out.data.nbytes < 2 * score_bytes

    def test_cross_entropy_batch_is_the_sum_of_rows(self):
        rng = np.random.default_rng(19)
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 5, 2, 2])
        batched = ag.cross_entropy_from_logits(Tensor(logits), targets).item()
        rows = sum(ag.cross_entropy_from_logits(Tensor(row), t).item()
                   for row, t in zip(logits, targets))
        assert batched == pytest.approx(rows, rel=1e-14)
