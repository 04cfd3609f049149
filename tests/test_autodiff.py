"""Gradient correctness of every primitive, checked by central differences.

Each op builds a scalar loss through a weighting vector so all output
elements contribute with distinct coefficients; the analytic gradient must
match (f(x+h) - f(x-h)) / 2h in float64.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import oracle
import pytest
from conftest import toy_model_config

from fragreel import layers
from fragreel.autodiff import (
    Tensor,
    _is_basic_index,
    assert_finite,
    clip,
    concat,
    erf,
    gelu,
    layernorm,
    linear,
    log_softmax,
    matmul,
    mean,
    no_grad,
    power,
    reshape,
    softmax,
    sum_,
    transpose,
)
from fragreel.catalogue import GameId
from fragreel.errors import NonFiniteActivation
from fragreel.params import ModelParams
from fragreel.textmodel import classification_logits, prompt_set_for
from fragreel.videomodel import encode_video

H = 1e-6
TOL = 1e-7


def numeric_grad(fn, x: np.ndarray, h: float = H) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn()
        flat[i] = orig - h
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def check_op(build, *shapes, seed=0):
    """Compare analytic and numeric gradients of ``build(*tensors)``."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    weights = rng.normal(size=out.shape)
    loss = sum_(out * Tensor(weights))
    loss.backward()

    for arr, tensor in zip(arrays, tensors):
        def scalar():
            with no_grad():
                return float(np.sum(build(*[Tensor(a) for a in arrays]).data * weights))
        expected = numeric_grad(scalar, arr)
        np.testing.assert_allclose(tensor.grad, expected, atol=TOL, rtol=TOL)


class TestElementwiseGrads:
    def test_add_broadcast(self):
        check_op(lambda a, b: a + b, (3, 4), (4,))

    def test_sub_and_neg(self):
        check_op(lambda a, b: a - b, (2, 3), (2, 3))
        check_op(lambda a: -a, (5,))

    def test_mul_broadcast(self):
        check_op(lambda a, b: a * b, (2, 1, 4), (3, 4))

    def test_div_by_scalar_tensor(self):
        check_op(lambda a, b: a / (b * b + 2.0), (3,), ())

    def test_power(self):
        check_op(lambda a: power(a * a + 1.0, -0.5), (4,))

    def test_gelu(self):
        check_op(gelu, (3, 5), seed=2)

    def test_clip(self):
        check_op(lambda a: clip(a * 2.0, -0.8, 0.8), (3, 4))

    def test_clip_values_and_boundary_subgradient(self):
        t = Tensor(np.array([-2.0, -1.0, 0.3, 1.0, 2.0]), requires_grad=True)
        out = clip(t, -1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, -1.0, 0.3, 1.0, 1.0])
        sum_(out).backward()
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0, 0.0, 0.0])


class TestMatmulGrads:
    def test_plain(self):
        check_op(lambda a, b: matmul(a, b), (3, 4), (4, 2))

    def test_batched(self):
        check_op(lambda a, b: matmul(a, b), (2, 3, 4), (2, 4, 5))

    def test_batched_broadcast_rhs(self):
        check_op(lambda a, b: matmul(a, b), (2, 3, 4), (4, 5))


class TestLinear:
    """The fused linear: one node, x @ w + b, flat products in backward."""

    def test_grads(self):
        check_op(linear, (5, 4), (4, 3), (3,), seed=6)

    def test_layers_linear_grads_on_3d_input(self):
        def build(x, w, b):
            return layers.linear(x, {"l.w": w, "l.b": b}, "l")

        check_op(build, (2, 3, 4), (4, 5), (5,), seed=7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [2, 3, 17])
    def test_forward_bytes_equal_batched_matmul_plus_bias(self, dtype, rows):
        # one row per batch is left out: numpy runs that case row by row
        rng = np.random.default_rng(rows)
        shapes = ((6, rows, 24), (24, 40), (40,))
        x, w, b = (Tensor(rng.normal(size=s).astype(dtype)) for s in shapes)
        got = layers.linear(x, {"l.w": w, "l.b": b}, "l").data
        want = (matmul(x, w) + b).data
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError):
            linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))

    def test_no_gradient_for_operands_that_need_none(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)))
        g = rng.normal(size=(3, 2))
        gx, gw, gb = linear(x, w, b)._backward(g)
        assert gx is None and gb is None
        assert gw.tobytes() == (x.data.T @ g).tobytes()
        ga, gm = matmul(x, w)._backward(g)
        assert ga is None and gm.tobytes() == gw.tobytes()


class TestShapeGrads:
    def test_reshape(self):
        check_op(lambda a: reshape(a, (6,)), (2, 3))

    def test_transpose(self):
        check_op(lambda a: transpose(a, (1, 0, 2)), (2, 3, 4))

    def test_getitem_row(self):
        check_op(lambda a: a[1], (3, 4))

    def test_getitem_fancy(self):
        idx = np.array([2, 0, 2])
        check_op(lambda a: a[idx], (4, 3))

    def test_concat(self):
        check_op(lambda a, b: concat([a, b], axis=1), (2, 3), (2, 2))


def random_basic_index(rng, shape):
    """A random tuple of ints, slices (any step sign), None and Ellipsis."""
    parts = []
    for n in shape:
        kind = rng.integers(3)
        if kind == 0:
            parts.append(int(rng.integers(-n, n)))
        elif kind == 1:
            step = int(rng.choice([-2, -1, 1, 2, 3]))
            parts.append(slice(int(rng.integers(-n, n)), int(rng.integers(-n - 1, n + 1)), step))
        else:
            parts.append(slice(None))
    if rng.integers(2):
        parts.insert(int(rng.integers(len(parts) + 1)), None)
    if rng.integers(2):
        parts = [Ellipsis, *parts[1:]]
    return tuple(parts)


def random_advanced_index(rng, shape, duplicates: bool):
    rows = rng.integers(0, shape[0], size=6 if duplicates else 1)
    if duplicates:
        rows[1] = rows[0]  # at least one element is read twice
    if rng.integers(2):
        return rows
    cols = rng.integers(0, shape[1], size=rows.shape)
    return (rows[:, None], slice(1, None), cols[:, None]) if rng.integers(2) else (rows, cols)


class TestGetitemBackward:
    """getitem backward adds into a view for basic indices and uses np.add.at
    for advanced ones; both must equal np.add.at byte for byte."""

    SHAPE = (4, 5, 6)

    def backward_of(self, index, rng):
        a = Tensor(rng.normal(size=self.SHAPE), requires_grad=True)
        out = a[index]
        g = rng.normal(size=out.shape)
        want = np.zeros(self.SHAPE)
        np.add.at(want, index, g)
        return out._backward(g)[0], want

    def test_basic_indices(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            index = random_basic_index(rng, self.SHAPE)
            assert _is_basic_index(index), index
            got, want = self.backward_of(index, rng)
            assert got.tobytes() == want.tobytes(), index

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_advanced_indices(self, duplicates):
        rng = np.random.default_rng(1)
        for _ in range(100):
            index = random_advanced_index(rng, self.SHAPE, duplicates)
            assert not _is_basic_index(index), index
            got, want = self.backward_of(index, rng)
            assert got.tobytes() == want.tobytes(), index

    def test_bools_are_not_basic(self):
        assert not _is_basic_index(True)
        assert not _is_basic_index((slice(None), np.array([True, False])))


class TestReductionGrads:
    def test_sum_all(self):
        check_op(lambda a: reshape(sum_(a), (1,)), (3, 4))

    def test_sum_axis_keepdims(self):
        check_op(lambda a: sum_(a, axis=1, keepdims=True), (3, 4))

    def test_mean_axis(self):
        check_op(lambda a: mean(a, axis=0), (5, 2))


class TestNormalizerGrads:
    def test_softmax(self):
        check_op(softmax, (3, 4), seed=3)

    def test_log_softmax(self):
        check_op(log_softmax, (2, 5), seed=4)

    def test_layernorm(self):
        check_op(lambda x, g, b: layernorm(x, g, b), (3, 6), (6,), (6,), seed=5)


class TestFreshArrayFormulas:
    """softmax, layernorm and gelu work in buffers they own, with the same
    bytes as the formulas that made a fresh array per step."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax(self, dtype):
        x = (np.random.default_rng(0).normal(size=(3, 5, 7)) * 4).astype(dtype)
        got = softmax(Tensor(x)).data
        want = oracle.o_softmax_rows(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layernorm(self, dtype):
        rng = np.random.default_rng(1)
        x, g, b = (rng.normal(size=s).astype(dtype) for s in ((4, 6, 9), (9,), (9,)))
        got = layernorm(Tensor(x), Tensor(g), Tensor(b)).data
        want = oracle.o_layernorm_fresh(x, g, b)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, dtype):
        x = (np.random.default_rng(2).normal(size=(5, 11)) * 3).astype(dtype)
        got = gelu(Tensor(x)).data
        want = oracle.o_gelu_fresh(x)
        assert got.dtype == want.dtype == np.float64  # float32 in, float64 out
        assert got.tobytes() == want.tobytes()


class TestErf:
    """GELU's numpy erf against the C library's ``math.erf``."""

    def test_within_half_an_ulp_of_one_on_a_dense_grid(self):
        x = np.linspace(-8.0, 8.0, 320_001)
        want = np.array([math.erf(v) for v in x])
        assert np.abs(erf(x) - want).max() <= 4.5e-16

    def test_edges(self):
        tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308])  # subnormals and the least normal
        x = np.array([0.0, 1.0, 6.0, 1e300, np.inf, *tiny])
        got = erf(np.concatenate([x, -x, [np.nan]]))
        want = np.array([math.erf(v) for v in x])
        np.testing.assert_array_max_ulp(got[: x.size], want, maxulp=1)
        np.testing.assert_array_max_ulp(got[x.size : -1], -want, maxulp=1)
        assert np.isnan(got[-1])
        assert not np.signbit(got[0]) and np.signbit(got[x.size])  # erf(-0.0) is -0.0
        assert got[2] == got[3] == got[4] == 1.0

    def test_raises_no_warning_at_any_float(self):
        x = np.array([0.0, -0.0, 5e-324, 1.0, 6.0, 27.0, 1e154, 1e300, np.finfo(float).max,
                      np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 1000):  # one chunk and two
                erf(np.tile(x, n))

    def test_bitwise_odd(self):
        x = np.random.default_rng(3).normal(size=20_000) * 3
        assert erf(-x).tobytes() == (-erf(x)).tobytes()

    def test_slices_give_the_same_bits(self):
        x = np.random.default_rng(4).normal(size=600_000) * 2
        whole = erf(x)  # chunks of the largest size
        cuts = [0, 1, 257, 8_450, 16_900, 20_000, 120_000, 600_000]  # every chunk size between
        parts = np.concatenate([erf(x[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert parts.tobytes() == whole.tobytes()
        assert erf(x.reshape(1000, 600)).tobytes() == whole.tobytes()


class TestSoftmaxValues:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(Tensor(rng.normal(size=(10, 7)) * 30)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert out.min() >= 0.0

    def test_two_logit_example(self):
        out = softmax(Tensor(np.array([1.0, -1.0]))).data
        np.testing.assert_allclose(out, [0.8808, 0.1192], atol=5e-5)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), atol=1e-12
        )


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        loss = sum_(a * a + a)
        loss.backward()
        np.testing.assert_allclose(a.grad, 2.0 * a.data + 1.0)

    def test_no_grad_blocks_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert out.requires_grad is False

    def test_zero_grad_resets(self):
        a = Tensor(np.ones(2), requires_grad=True)
        sum_(a * 3.0).backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 1.0).backward()


class TestGraphRelease:
    """backward frees the graph it has spent; the leaf gradients are those
    of a backward that keeps everything."""

    def toy_loss(self, params):
        clip_ = np.random.default_rng(5).normal(size=(2, 4, 4, 3))
        v = encode_video(clip_, params)
        logits = classification_logits(v, prompt_set_for(GameId.OW2), params, text_grad=True)
        return reshape(-log_softmax(logits)[1], (1,))

    def graph_nodes(self, loss):
        nodes, seen, stack = [], set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        return nodes

    def test_interior_nodes_released_and_leaf_grads_unchanged(self):
        params = ModelParams.init(toy_model_config(), seed=7, dtype=np.float64)
        loss = self.toy_loss(params)
        interior = [n for n in self.graph_nodes(loss) if n._backward is not None]
        assert len(interior) > 100
        loss.backward()
        for node in interior:
            assert node.grad is None and node._parents == () and node._backward is None
        got = {name: params[name].grad.tobytes() for name in params.names()}

        params.zero_grads()
        oracle.keep_graph_backward(self.toy_loss(params))
        assert got == {name: params[name].grad.tobytes() for name in params.names()}

    @pytest.mark.parametrize("add_first", [True, False])
    def test_add_hands_both_parents_the_same_array_without_harm(self, add_first):
        # add passes one gradient array to a and to b; a then gets a second
        # contribution, which must not be added into b's gradient as well
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        terms = [sum_(a + b), sum_(a * a)]
        loss = terms[0] + terms[1] if add_first else terms[1] + terms[0]
        loss.backward()
        np.testing.assert_array_equal(a.grad, 2.0 * a.data + 1.0)
        np.testing.assert_array_equal(b.grad, np.ones(2))


class TestAssertFinite:
    def test_passes_finite(self):
        t = Tensor(np.ones(3))
        assert assert_finite(t, "x") is t

    def test_raises_on_nan(self):
        with pytest.raises(NonFiniteActivation):
            assert_finite(Tensor(np.array([1.0, np.nan])), "x")

    def test_raises_on_inf(self):
        with pytest.raises(NonFiniteActivation):
            assert_finite(Tensor(np.array([np.inf])), "x")
