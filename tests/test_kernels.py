"""Blocked in-place kernels and weight init against their unblocked oracles.

gelu and Adam run over blocks of ``autograd.BLOCK`` elements; the truncated
normal init redraws only rejected entries. Each must stay bitwise equal to
the whole-array form, at block edges and beyond.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from peftlab import autograd as ag
from peftlab import encoder as enc
from peftlab.autograd import BLOCK, Tensor
from peftlab.trainer import Adam

import oracles
from oracles import adam_reference, gelu_reference

SIZES = [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


def gelu_and_grad(v, g):
    x = Tensor(v, requires_grad=True)
    out = ag.gelu(x)
    out.backward(g)
    return out.data, x.grad


class TestBlockedGelu:
    @pytest.mark.parametrize("shape", [(n,) for n in SIZES] + [(2, 128, 3072)],
                             ids=str)
    def test_bitwise_equal_to_unblocked_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        v = rng.standard_normal(shape) * 3.0
        g = rng.standard_normal(shape)
        out, grad = gelu_and_grad(v, g)
        want_out, want_dx = gelu_reference(v)
        assert out.shape == grad.shape == shape
        assert out.tobytes() == want_out.tobytes()
        assert np.array_equal(grad, g * want_dx)
        with ag.no_grad():  # the call that computes no derivative
            assert ag.gelu(Tensor(v)).data.tobytes() == want_out.tobytes()

    @pytest.mark.parametrize("view", ["offset", "strided"])
    def test_bitwise_on_views(self, view):
        base = np.random.default_rng(3).standard_normal(2 * (3 * BLOCK + 9))
        v = base[1:3 * BLOCK + 8] if view == "offset" else base[::2]
        g = np.random.default_rng(4).standard_normal(v.shape)
        out, grad = gelu_and_grad(v, g)
        want_out, want_dx = gelu_reference(v)
        assert np.array_equal(out, want_out)
        assert np.array_equal(grad, g * want_dx)

    def test_forward_peak_memory_below_three_and_a_half_inputs(self):
        x = Tensor(np.random.default_rng(5).standard_normal((2, 128, 3072)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            ag.gelu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * x.data.nbytes

    @pytest.mark.parametrize("n", [BLOCK - 1, 3 * BLOCK + 7])
    def test_a_recorded_gelu_keeps_only_its_derivative(self, n):
        rng = np.random.default_rng(n)
        leaf = Tensor(rng.standard_normal(n) * 3.0, requires_grad=True)
        x = ag.scale(leaf, 1.0)  # an activation, which only the tape could keep
        kept = weakref.ref(x.data)
        out = ag.gelu(x)
        del x
        assert kept() is None
        g = rng.standard_normal(n)
        out.backward(g)
        assert np.array_equal(leaf.grad, g * gelu_reference(leaf.data)[1])

    @pytest.mark.parametrize("n", SIZES)
    def test_no_grad_peak_is_its_output_and_one_block(self, n):
        x = Tensor(np.random.default_rng(n).standard_normal(n))
        tracemalloc.start()
        try:
            with ag.no_grad():
                out = ag.gelu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 4 KiB for the Python objects: the Tensor, views and tuples
        assert peak <= out.data.nbytes + 8 * min(n, BLOCK) + 4096


class TestBlockedAdam:
    def test_matches_textbook_reference_bitwise_beyond_one_block(self):
        rng = np.random.default_rng(8)
        reg = enc.ParameterRegistry().allocate(
            [enc.Param("w", (3, BLOCK + 5), "head", None, "zeros"),
             enc.Param("b", (11,), "head", None, "zeros")], seed=0)
        for _, tensor in reg.items():
            tensor.data[...] = rng.standard_normal(tensor.shape)
        ref = {n: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape))
               for n, t in reg.items()}
        opt = Adam(reg, lr=1e-2)
        for t in (1, 2, 3):
            for name, tensor in reg.items():
                tensor.grad = (rng.standard_normal(tensor.shape)
                               * 10.0 ** rng.integers(-6, 3))
                ref[name] = adam_reference(*ref[name], tensor.grad, t, lr=1e-2)
            opt.step()
            for name, tensor in reg.items():
                data, m, v = ref[name]
                assert np.array_equal(tensor.data, data), (name, t)
                assert np.array_equal(opt.m[name], m), (name, t)
                assert np.array_equal(opt.v[name], v), (name, t)


class _CountingRng:
    """A generator that counts its ``normal`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.normal(*args, **kwargs)


class TestTruncatedNormal:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bitwise_equal_to_rescanning_oracle(self, seed):
        shape = (400, 500)
        lib_rng = _CountingRng(seed)
        ref_rng = np.random.default_rng(seed)
        got = enc._truncated_normal(lib_rng, shape)
        want = oracles._truncated_normal(ref_rng, shape)
        assert lib_rng.calls >= 4  # the first draw and several redraw rounds
        assert np.array_equal(got, want)
        assert lib_rng.rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.abs(got).max() <= 2.0 * enc.INIT_STD
