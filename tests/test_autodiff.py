"""Kernel, backward, and gradient-check tests for the autodiff engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstmn import autodiff as ad
from lstmn.autodiff import (
    GraphStateError,
    NonFiniteError,
    ShapeMismatchError,
    Tensor,
    backward,
    grad_check,
    zero_grad,
)


def softmax_oracle(z):
    """Direct exp/sum evaluation, no stabilization tricks."""
    e = np.exp(np.asarray(z, dtype=np.float64))
    return e / e.sum()


class TestForwardKernels:
    def test_matmul_identity(self):
        out = ad.matmul(Tensor(np.eye(2)), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 4.0])

    def test_masked_softmax_equal_logits(self):
        out = ad.masked_softmax(Tensor([0.0, 0.0]), mask=[1.0, 1.0])
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_masked_softmax_matches_direct_formula(self):
        z = [0.7, -1.2, 3.0]
        out = ad.masked_softmax(Tensor(z))
        np.testing.assert_allclose(out.data, softmax_oracle(z), atol=1e-12)

    def test_masked_softmax_masked_positions_exactly_zero(self):
        out = ad.masked_softmax(Tensor([[1.0, 2.0, 3.0]]), mask=[[1.0, 0.0, 1.0]])
        assert out.data[0, 1] == 0.0
        assert out.data[0].sum() == pytest.approx(1.0, abs=1e-9)
        assert (out.data >= 0).all()

    def test_masked_softmax_all_masked_row_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ad.masked_softmax(Tensor([[1.0, 2.0]]), mask=[[0.0, 0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_nonfinite_output_raises(self):
        big = Tensor(np.array([[1e308]]))
        with pytest.raises(NonFiniteError):
            ad.mul(big, big)

    def test_concat_and_slice_roundtrip(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.full((2, 2), 2.0))
        cat = ad.concat([a, b], axis=1)
        assert cat.data.shape == (2, 5)
        np.testing.assert_array_equal(ad.slice_cols(cat, 3, 5).data, b.data)

    def test_mean_axis(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(ad.mean(x, axis=0).data, [2.0, 3.0])

    def test_lookup_gathers_rows(self):
        table = Tensor(np.arange(6.0).reshape(3, 2))
        out = ad.lookup(table, np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [[4.0, 5.0], [0.0, 1.0]])

    def test_lookup_range_error(self):
        with pytest.raises(IndexError):
            ad.lookup(Tensor(np.zeros((3, 2))), np.array([3]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariance(logits, shift):
    base = ad.masked_softmax(Tensor(logits)).data
    shifted = ad.masked_softmax(Tensor(np.asarray(logits) + shift)).data
    np.testing.assert_allclose(base, shifted, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_softmax_normalized_nonnegative(logits):
    p = ad.masked_softmax(Tensor(logits)).data
    assert abs(p.sum() - 1.0) <= 1e-9
    assert (p >= 0).all()


class TestBackward:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_constant_loss_zero_grads(self):
        w = Tensor(np.random.default_rng(0).normal(size=(2, 2)), requires_grad=True)
        loss = ad.sum_all(Tensor(np.zeros((1, 1))))
        backward(loss, params=[w])
        np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))

    def test_accumulation_x_plus_x(self):
        x = Tensor([3.0], requires_grad=True)
        backward(ad.sum_all(ad.add(x, x)))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_dloss_dloss_is_one(self):
        x = Tensor([5.0], requires_grad=True)
        loss = ad.sum_all(x)
        backward(loss)
        np.testing.assert_array_equal(loss.grad, np.ones(()))

    def test_backward_twice_is_state_error(self):
        x = Tensor([1.0], requires_grad=True)
        loss = ad.sum_all(x)
        backward(loss)
        with pytest.raises(GraphStateError):
            backward(loss)

    def test_nonscalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            backward(ad.mul(x, x))

    def test_interior_grads_freed_leaf_and_loss_grads_kept(self):
        rng = np.random.default_rng(4)
        x, w = _rng_tensor(rng, 3, 2), _rng_tensor(rng, 4, 2)
        hidden = ad.linear(x, w)
        act = ad.tanh(hidden)
        loss = ad.sum_all(act)
        backward(loss)
        assert hidden.grad is None and act.grad is None
        np.testing.assert_array_equal(loss.grad, np.ones(()))
        np.testing.assert_allclose(w.grad, (1.0 - act.data ** 2).T @ x.data, rtol=1e-12)
        assert x.grad.shape == (3, 2)

    def test_gradient_handed_to_two_parents_is_not_shared(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        early = ad.sum_all(ad.mul(x, Tensor([7.0, 8.0])))   # replayed after the add
        term = ad.sum_all(ad.mul(ad.add(x, y), Tensor([5.0, 6.0])))
        loss = ad.add(ad.add(term, term), early)
        backward(loss)
        np.testing.assert_array_equal(x.grad, [17.0, 20.0])
        np.testing.assert_array_equal(y.grad, [10.0, 12.0])
        np.testing.assert_array_equal(loss.grad, np.ones(()))

    def test_lookup_repeated_ids_match_dense_scatter(self):
        rng = np.random.default_rng(5)
        table = _rng_tensor(rng, 6, 3)
        steps = [np.array([4, 1, 4, 4]), np.array([1, 0, 1, 5])]
        coefs = [rng.normal(size=(4, 3)) for _ in steps]
        terms = [ad.sum_all(ad.mul(ad.lookup(table, ids), Tensor(c)))
                 for ids, c in zip(steps, coefs)]
        backward(ad.add(terms[0], terms[1]))
        dense = np.zeros((6, 3))
        for ids, c in zip(steps, coefs):
            np.add.at(dense, ids, c)
        np.testing.assert_allclose(table.grad, dense, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(table.grad[[2, 3]], 0.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        backward(ad.sum_all(ad.mul(x, x)))
        backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [8.0])
        zero_grad([x])
        assert x.grad is None


def _rng_tensor(rng, *shape, requires_grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


class TestGradCheck:
    def test_linear_model(self):
        rng = np.random.default_rng(1)
        w = _rng_tensor(rng, 2, 2)
        x = rng.normal(size=(3, 2))

        def loss():
            return ad.sum_all(ad.tanh(ad.linear(Tensor(x), w)))

        report = grad_check(loss, {"w": w}, tolerance=1e-7)
        assert report.passed, str(report)

    def test_unused_parameter_reports_zero_error(self):
        rng = np.random.default_rng(2)
        used = _rng_tensor(rng, 2)
        unused = _rng_tensor(rng, 3)

        def loss():
            return ad.sum_all(ad.mul(used, used))

        report = grad_check(loss, {"used": used, "unused": unused})
        by_name = {e.name: e for e in report.entries}
        assert by_name["unused"].max_rel_error == 0.0
        assert report.passed

    def test_nondeterministic_loss_refused(self):
        rng = np.random.default_rng(3)
        x = _rng_tensor(rng, 2)
        noise = iter(np.linspace(0.1, 0.9, 50))

        def loss():
            return ad.sum_all(ad.mul(x, Tensor(np.full(2, next(noise)))))

        with pytest.raises(GraphStateError, match="deterministic"):
            grad_check(loss, {"x": x})

    def test_float32_params_refused(self):
        ad.set_default_dtype(np.float32)
        try:
            x = Tensor([1.0], requires_grad=True)
        finally:
            ad.set_default_dtype(np.float64)
        with pytest.raises(GraphStateError, match="float64"):
            grad_check(lambda: ad.sum_all(x), {"x": x})


# Every registered kernel must pass a finite-difference check on random
# small shapes.  Each case builds a scalar loss exercising one kernel.
def _kernel_cases():
    rng = np.random.default_rng(7)

    def t(*shape):
        return _rng_tensor(rng, *shape)

    x23, y23 = t(2, 3), t(2, 3)
    bias = t(3)
    w43 = t(4, 3)
    m22, v2 = t(2, 2), t(2)
    x3d = t(2, 4, 3)
    q = t(2, 3)
    vdot = t(3)
    wts = Tensor(np.abs(rng.normal(size=(2, 4))), requires_grad=True)
    slots = [t(2, 3) for _ in range(3)]
    table = t(5, 3)
    logits = t(3, 4)
    x24 = t(2, 4)

    cases = {
        "add": ({"a": x23, "b": y23}, lambda: ad.sum_all(ad.tanh(ad.add(x23, y23)))),
        "add_bias": ({"a": x23, "b": bias}, lambda: ad.sum_all(ad.tanh(ad.add(x23, bias)))),
        "neg": ({"a": x23}, lambda: ad.sum_all(ad.tanh(ad.neg(x23)))),
        "mul": ({"a": x23, "b": y23}, lambda: ad.sum_all(ad.mul(x23, y23))),
        "mul_scalar": ({"a": x23}, lambda: ad.sum_all(ad.mul(x23, 1.7))),
        "matmul_2d": ({"a": m22, "b": v2}, lambda: ad.sum_all(ad.tanh(ad.matmul(m22, v2)))),
        "linear": ({"x": x23, "w": w43}, lambda: ad.sum_all(ad.tanh(ad.linear(x23, w43)))),
        "concat": ({"a": x23, "b": y23},
                   lambda: ad.sum_all(ad.tanh(ad.concat([x23, y23], axis=1)))),
        "slice_cols": ({"a": x23}, lambda: ad.sum_all(ad.slice_cols(x23, 1, 3))),
        # Gate-style blocks of one parent, plus a dense use of it.
        "slice_cols_blocks": ({"a": x24}, lambda: ad.add(
            ad.sum_all(ad.mul(ad.tanh(ad.slice_cols(x24, 0, 1)), ad.sigmoid(ad.slice_cols(x24, 1, 2)))),
            ad.add(ad.sum_all(ad.tanh(ad.slice_cols(x24, 2, 4))), ad.sum_all(ad.mul(x24, x24))))),
        "sigmoid": ({"a": x23}, lambda: ad.sum_all(ad.sigmoid(x23))),
        "tanh": ({"a": x23}, lambda: ad.sum_all(ad.tanh(x23))),
        "relu": ({"a": x23}, lambda: ad.sum_all(ad.relu(ad.add(x23, 0.3)))),
        "masked_softmax": ({"a": x23},
                           lambda: ad.sum_all(ad.mul(ad.masked_softmax(x23, [[1, 1, 0], [1, 1, 1]]), y23))),
        "stack_slots": ({f"s{i}": s for i, s in enumerate(slots)},
                        lambda: ad.sum_all(ad.tanh(ad.stack_slots(slots)))),
        "bcast_add_slots": ({"x3": x3d, "q": q},
                            lambda: ad.sum_all(ad.tanh(ad.bcast_add_slots(x3d, q)))),
        "slot_dot": ({"x3": x3d, "v": vdot},
                     lambda: ad.sum_all(ad.tanh(ad.slot_dot(x3d, vdot)))),
        "slot_linear": ({"x3": x3d, "w": w43},
                        lambda: ad.sum_all(ad.tanh(ad.slot_linear(x3d, w43)))),
        "attend": ({"w": wts, "x3": x3d}, lambda: ad.sum_all(ad.tanh(ad.attend(wts, x3d)))),
        "mean": ({"a": x23}, lambda: ad.sum_all(ad.mean(x23, axis=0))),
        "lookup": ({"table": table},
                   lambda: ad.sum_all(ad.tanh(ad.lookup(table, np.array([0, 2, 2]))))),
        # Row gradients added before and after dense ones into one buffer.
        "lookup_shared_table": ({"table": table}, lambda: ad.add(
            ad.add(ad.sum_all(ad.mul(table, table)),
                   ad.sum_all(ad.tanh(ad.lookup(table, np.array([[3, 1], [1, 1]]))))),
            ad.sum_all(ad.sigmoid(ad.mul(table, 0.5))))),
        "masked_nll": ({"logits": logits},
                       lambda: ad.masked_nll(logits, np.array([1, 0, 3]), [1.0, 0.0, 1.0])),
    }
    return cases


_KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("kernel", sorted(_KERNEL_CASES))
def test_kernel_grad_check(kernel):
    params, loss = _KERNEL_CASES[kernel]
    report = grad_check(loss, params, tolerance=1e-6)
    assert report.passed, f"{kernel}:\n{report}"


def test_masked_nll_matches_per_token_oracle():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(4, 6))
    targets = np.array([1, 5, 0, 3])
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    total = ad.masked_nll(Tensor(z), targets, mask).item()
    expected = 0.0
    for b in range(4):
        if mask[b]:
            expected += -np.log(softmax_oracle(z[b])[targets[b]])
    assert total == pytest.approx(expected, abs=1e-10)


def test_masked_nll_target_range_error():
    with pytest.raises(IndexError, match="out of range"):
        ad.masked_nll(Tensor(np.zeros((1, 3))), np.array([3]))
