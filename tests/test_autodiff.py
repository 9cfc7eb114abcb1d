"""Kernel, backward, and gradient-check tests for the autodiff engine."""

import contextlib
import ctypes
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lstmn import autodiff as ad
from lstmn.autodiff import (
    GraphStateError,
    NonFiniteError,
    ShapeMismatchError,
    TapeError,
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
    def test_masked_softmax_equal_logits(self):
        out = ad.softmax(np.array([0.0, 0.0]), mask=[1.0, 1.0])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_masked_softmax_matches_direct_formula(self):
        z = [0.7, -1.2, 3.0]
        out = ad.softmax(np.array(z))
        np.testing.assert_allclose(out, softmax_oracle(z), atol=1e-12)

    def test_masked_softmax_masked_positions_exactly_zero(self):
        out = ad.softmax(np.array([[1.0, 2.0, 3.0]]), mask=[[1.0, 0.0, 1.0]])
        assert out[0, 1] == 0.0
        assert out[0].sum() == pytest.approx(1.0, abs=1e-9)
        assert (out >= 0).all()

    def test_masked_softmax_all_masked_row_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ad.softmax(np.array([[1.0, 2.0]]), mask=[[0.0, 0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_nonfinite_output_raises(self):
        big = Tensor(np.array([[1e308]]))
        with pytest.raises(NonFiniteError), pytest.warns(RuntimeWarning, match="overflow"):
            ad.mul(big, big)

    def test_concat_and_slice_roundtrip(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.full((2, 2), 2.0))
        cat = ad.concat([a, b], axis=1)
        assert cat.data.shape == (2, 5)
        np.testing.assert_array_equal(ad.slice_cols(cat, 3, 5).data, b.data)

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
    base = ad.softmax(np.asarray(logits))
    shifted = ad.softmax(np.asarray(logits) + shift)
    np.testing.assert_allclose(base, shifted, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_softmax_normalized_nonnegative(logits):
    p = ad.softmax(np.asarray(logits, dtype=np.float64))
    assert abs(p.sum() - 1.0) <= 1e-9
    assert (p >= 0).all()


class TestBackward:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_constant_loss_is_graph_state_error(self):
        # A loss that reaches no parameter has nothing to differentiate;
        # zero-filling every gradient would hide the mistake.
        w = Tensor(np.random.default_rng(0).normal(size=(2, 2)), requires_grad=True)
        loss = ad.sum_all(Tensor(np.zeros((1, 1))))
        with pytest.raises(GraphStateError, match="no graph"):
            backward(loss, params=[w])
        assert w.grad is None

    def test_unreached_param_gets_zero_grad(self):
        x = Tensor([1.5], requires_grad=True)
        w = Tensor(np.random.default_rng(0).normal(size=(2, 2)), requires_grad=True)
        backward(ad.sum_all(ad.mul(x, x)), params=[x, w])
        np.testing.assert_array_equal(x.grad, [3.0])
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
        act = _square(hidden)
        loss = ad.sum_all(act)
        backward(loss)
        assert hidden.grad is None and act.grad is None
        np.testing.assert_array_equal(loss.grad, np.ones(()))
        np.testing.assert_allclose(w.grad, (2.0 * hidden.data).T @ x.data, rtol=1e-12)
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

    def test_increasing_rows_add_like_add_at(self):
        # The row gradient lands on a dense one already in the buffer.  A
        # strictly increasing index is added by a fancy-index +=; a sorted
        # index with a repeat, and an unsorted one, still sum every row.
        rng = np.random.default_rng(6)
        for ids in (np.array([0, 2, 5]), np.array([0, 2, 2, 5]), np.array([5, 2, 0, 2])):
            table = _rng_tensor(rng, 6, 3)
            coef, dense = rng.normal(size=(len(ids), 3)), rng.normal(size=(6, 3))
            rows = ad.sum_all(ad.mul(ad.lookup(table, ids), Tensor(coef)))
            backward(ad.add(rows, ad.sum_all(ad.mul(table, Tensor(dense)))))
            expected = dense.copy()
            np.add.at(expected, ids, coef)
            assert table.grad.tobytes() == expected.tobytes(), ids

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        backward(ad.sum_all(ad.mul(x, x)))
        backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [8.0])
        zero_grad([x])
        assert x.grad is None


class TestOuter:
    def test_weight_terms_of_every_step_sum_to_one_product(self):
        # One weight read by linear at 5 packed steps: backward joins the
        # steps' Outer terms into one product.
        rng = np.random.default_rng(30)
        w = _rng_tensor(rng, 4, 3)
        xs = [rng.normal(size=(b, 3)) for b in (4, 3, 3, 2, 1)]
        gs = [rng.normal(size=(b, 4)) for b in (4, 3, 3, 2, 1)]

        def loss():
            terms = [ad.sum_all(ad.mul(ad.linear(Tensor(x), w), Tensor(g)))
                     for x, g in zip(xs, gs)]
            total = terms[0]
            for t in terms[1:]:
                total = ad.add(total, t)
            return total

        backward(loss())
        np.testing.assert_allclose(w.grad, sum(g.T @ x for x, g in zip(xs, gs)), rtol=1e-13)
        report = grad_check(loss, {"w": w})
        assert report.passed, str(report)

    def test_interior_weight_forms_its_terms_at_once(self):
        rng = np.random.default_rng(31)
        w0, x, y = _rng_tensor(rng, 3, 2), _rng_tensor(rng, 4, 2), _rng_tensor(rng, 2, 2)

        def loss():
            w = ad.mul(w0, 2.0)
            return ad.add(ad.sum_all(_square(ad.linear(x, w))),
                          ad.sum_all(_square(ad.linear(y, w))))

        report = grad_check(loss, {"w0": w0, "x": x})
        assert report.passed, str(report)

    def test_outer_and_dense_terms_of_one_leaf_add(self):
        rng = np.random.default_rng(32)
        w, x = _rng_tensor(rng, 3, 2), rng.normal(size=(4, 2))
        c, d = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
        backward(ad.add(ad.sum_all(ad.mul(ad.linear(Tensor(x), w), Tensor(c))),
                        ad.sum_all(ad.mul(w, Tensor(d)))))
        np.testing.assert_allclose(w.grad, c.T @ x + d, rtol=1e-13)

    def test_constant_weight_gets_no_gradient(self):
        rng = np.random.default_rng(33)
        w, x = _rng_tensor(rng, 3, 2, requires_grad=False), _rng_tensor(rng, 4, 2)
        backward(ad.sum_all(ad.linear(x, w)), params=[x])
        assert w.grad is None
        np.testing.assert_allclose(x.grad, np.ones((4, 3)) @ w.data, rtol=1e-15)


def _square(t: Tensor) -> Tensor:
    """t * t: a smooth nonlinearity from a kernel of its own (``mul``)."""
    return ad.mul(t, t)


def _rng_tensor(rng, *shape, requires_grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


@contextlib.contextmanager
def _nll_block_rows(rows: int, vocab: int, itemsize: int = 8):
    """Inside the block, ``affine_nll`` without a graph forms its logits
    ``rows`` rows at a time (rows of ``vocab`` logits of ``itemsize``
    bytes)."""
    budget = ad.NLL_BLOCK_BYTES
    ad.NLL_BLOCK_BYTES = rows * vocab * itemsize
    try:
        yield
    finally:
        ad.NLL_BLOCK_BYTES = budget


def _tape(memory: Tensor, a: int = 2) -> Tensor:
    """A (B, T, d + a) memory, values in its first d columns and keys in
    its last a, as the tape ``tape_attend`` reads: one ``tape_write`` of
    all its slots into fresh buffers."""
    d = memory.data.shape[2] - a
    return ad.tape_write(None, (ad.slice_cols(memory, 0, d),),
                         ad.slice_cols(memory, d, d + a), memory.data.shape[1])


class TestGradCheck:
    def test_linear_model(self):
        rng = np.random.default_rng(1)
        w = _rng_tensor(rng, 2, 2)
        x = rng.normal(size=(3, 2))

        def loss():
            return ad.sum_all(_square(ad.linear(Tensor(x), w)))

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

    def test_roundoff_sized_gradients_pass(self):
        # Gradients near 1e-9 under a loss near 240: the central difference
        # at the default step resolves them only to its round-off, about
        # eps * 240 / 1e-5 = 5.3e-9, and they agree to that.
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)) * 1e-9)
        shift = Tensor(np.full((4, 2), 30.0))

        def loss():
            return ad.sum_all(ad.relu(ad.add(ad.linear(x, w), shift)))

        report = grad_check(loss, {"w": w})
        assert report.passed, str(report)

    @pytest.mark.parametrize("tolerance", [1e-4, 1e-6])
    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    @pytest.mark.parametrize("factor,passes", [(1.0, True), (1.01, False)])
    def test_wrong_backward_fails(self, factor, passes, scale, tolerance):
        # L = scale * sum(w^2) / 2, whose gradient scale * w has entries
        # between scale and 2 scale; the backward returns ``factor`` times it.
        w = Tensor(1.0 + np.random.default_rng(4).uniform(size=3), requires_grad=True)

        def loss():
            return ad._make(np.asarray(0.5 * scale * (w.data ** 2).sum()), (w,),
                            lambda g: (g * scale * factor * w.data,), "scaled_square")

        report = grad_check(loss, {"w": w}, tolerance=tolerance)
        assert report.passed == passes, str(report)

    def test_nonpositive_tolerance_refused(self):
        # The round-off floor divides by the tolerance; 0 would pass anything.
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="tolerance"):
            grad_check(lambda: ad.sum_all(ad.mul(x, x)), {"x": x}, tolerance=0.0)


# Every registered kernel must pass a finite-difference check on random
# small shapes.  Each case builds a scalar loss exercising one kernel.
def _kernel_cases():
    rng = np.random.default_rng(7)

    def t(*shape):
        return _rng_tensor(rng, *shape)

    x23, y23 = t(2, 3), t(2, 3)
    bias = t(3)
    w43 = t(4, 3)
    x3d = t(2, 4, 3)
    wts = np.abs(rng.normal(size=(2, 4)))   # constant weights: no gradient
    att_x = t(4, 3)
    table = t(5, 3)
    nll_h = t(4, 3)
    x24 = t(2, 4)
    shift = Tensor(np.full((2, 3), 0.3))
    # Fused attention over a (2, 5, 3 + 2) slot memory: values in the
    # first 3 columns, keys in the last 2 (= len(v)).
    mem, q_x, w_qx, q_p, w_qp = t(2, 5, 5), t(2, 3), t(2, 3), t(2, 4), t(2, 4)
    v_att, b_att, y_att = t(2), t(2), Tensor(rng.normal(size=(2, 3)))
    attend_params = {"memory": mem, "x": q_x, "W_x": w_qx, "prev": q_p, "W_prev": w_qp,
                     "v": v_att}
    slot_h, slot_k = [t(2, 3) for _ in range(3)], [t(2, 2) for _ in range(3)]
    nll_w, nll_b = t(5, 3), t(5)
    nll_wf = Tensor(np.asfortranarray(t(5, 3).data), requires_grad=True)
    # Gate cell with h = 3 over a (2, 6) [rec | carried] block and a
    # 2-wide input, with deep fusion's (2, 6) summary block [g~ | a~] and
    # (3, 5) transfer gate; a random readout weighs both halves of [h | c].
    g_state, g_x, g_w, g_bias, g_inter = t(2, 6), t(2, 2), t(12, 5), t(12), t(2, 6)
    g_read = Tensor(rng.normal(size=(2, 6)))
    summary_prev = t(2, 6)   # a [h~ | c~] block; the query reads its first 4 columns
    w34, b4 = t(3, 4), t(4)
    # A packed batch: a (3, 5, 5) memory read by 2 live rows, and writes
    # by 3, 2 and 1 live rows, each with a query of its own rows.
    mem3, px, pp = t(3, 5, 5), t(2, 3), t(2, 4)
    pk_h, pk_k = [t(3 - n, 3) for n in range(3)], [t(3 - n, 2) for n in range(3)]
    pk_x, pk_p = [t(3 - n, 3) for n in range(3)], [t(3 - n, 4) for n in range(3)]
    y3 = rng.normal(size=(3, 3))

    def tape_chain():
        # Three writes into a 2-slot buffer that grows to 4 before the
        # third, each followed by a read of every slot written so far.
        node, total = None, ad.sum_all(Tensor(np.zeros(1)))
        for h, k in zip(slot_h, slot_k):
            node = ad.tape_write(node, (h,), k, 2)
            out = ad.tape_attend(node, 0, q_x, w_qx, q_p, w_qp, v_att)[0]
            total = ad.add(total, ad.sum_all(ad.mul(out, y_att)))
        return total

    # A two-slot source tape written once from 3-D parts and read by three
    # packed reads (3, 2, then 1 live row) under a padded-source mask.
    src_v, src_k = t(3, 2, 3), t(3, 2, 2)
    src_x, src_p = [t(3 - r, 3) for r in range(3)], [t(3 - r, 4) for r in range(3)]
    # Carried operands with more rows than the step input: a 3-row [h | c]
    # state for a 2-row x, a 3-row prev for a 2-row read; and a packed
    # block of steps of 3, 3, 2 and 1 rows under (3, 9) weights that read
    # only each sorted row's positions, into output rows [2, 0, 1].
    g_state3, pp3 = t(3, 6), t(3, 4)
    pool_x, pk_ranks = t(9, 3), np.array([0, 1, 2, 0, 1, 2, 0, 1, 0])
    pk_wts = np.zeros((3, 9))
    pk_wts[np.array([2, 0, 1])[pk_ranks], np.arange(9)] = np.abs(rng.normal(size=9))
    # The transfer gate, and a 3-row summary block for a 2-row step.
    g_wr, g_inter3 = t(3, 5), t(3, 6)

    def source_reads():
        node = ad.tape_write(None, (src_v,), src_k, 2)
        total = ad.sum_all(Tensor(np.zeros(1)))
        for r in range(3):
            out = ad.tape_attend(node, 0, src_x[r], w_qx, src_p[r], w_qp, v_att,
                                 mask=[[1, 1], [0, 1], [1, 0]])[0]
            total = ad.add(total, ad.sum_all(ad.mul(out, Tensor(y3[:3 - r]))))
        return total

    def packed_tape_chain():
        # Each write is followed by a read of every slot written so far by
        # the rows still live; the buffer's ended rows are never read.
        node, total = None, ad.sum_all(Tensor(np.zeros(1)))
        for n, (h, k) in enumerate(zip(pk_h, pk_k)):
            node = ad.tape_write(node, (h,), k, 3)
            out = ad.tape_attend(node, 0, pk_x[n], w_qx, pk_p[n], w_qp, v_att)[0]
            total = ad.add(total, ad.sum_all(ad.mul(out, Tensor(y3[:3 - n]))))
        return total

    # Seven rows: one block while the graph is recorded, and under no_grad
    # blocks of two rows, the last taking three, whose value must match.
    blk_rng = np.random.default_rng(17)
    blk_h, blk_w, blk_b = (_rng_tensor(blk_rng, *shape) for shape in ((7, 3), (5, 3), (5,)))

    def blocked_nll():
        with _nll_block_rows(2, 5):
            return ad.affine_nll(blk_h, blk_w, blk_b, np.array([1, 4, 1, 0, 2, 3, 4]))[0]

    # Input blocks whose interior rows [1, 3) a step reads, as a packed
    # step reads its rows of a layer's step-major block; an x wider than
    # the (4, 3) weight; and a (3, 4, 5) tape of a packed batch's slots.
    blk_x2, blk_x3, x25, slots3 = t(5, 2), t(4, 3), t(2, 5), t(3, 4, 5)

    cases = {
        "add": ({"a": x23, "b": y23}, lambda: ad.sum_all(_square(ad.add(x23, y23)))),
        "mul": ({"a": x23, "b": y23}, lambda: ad.sum_all(ad.mul(x23, y23))),
        "mul_scalar": ({"a": x23}, lambda: ad.sum_all(ad.mul(x23, 1.7))),
        "linear": ({"x": x23, "w": w43}, lambda: ad.sum_all(_square(ad.linear(x23, w43)))),
        "linear_bias": ({"x": x24, "w": w34, "b": bias},
                        lambda: ad.sum_all(_square(ad.linear(x24, w34, bias)))),
        # One projection of every slot of a (B, T, n) block.
        # x's first 3 columns; the other 2 get exactly 0.
        "linear_first_columns": ({"x": x25, "w": w43},
                                 lambda: ad.sum_all(_square(ad.linear(x25, w43)))),
        "linear_slots": ({"x3": x3d, "w": w43, "b": b4},
                         lambda: ad.sum_all(_square(ad.linear(x3d, w43, b4)))),
        "concat": ({"a": x23, "b": y23},
                   lambda: ad.sum_all(_square(ad.concat([x23, y23], axis=1)))),
        "slice_cols": ({"a": x23}, lambda: ad.sum_all(ad.slice_cols(x23, 1, 3))),
        # The last axis of a (B, T, n) block, as the encoder's source read cuts it.
        "slice_cols_slots": ({"a": x3d}, lambda: ad.sum_all(_square(ad.slice_cols(x3d, 1, 3)))),
        # Gate-style blocks of one parent, plus a dense use of it.
        "slice_cols_blocks": ({"a": x24}, lambda: ad.add(
            ad.sum_all(ad.mul(_square(ad.slice_cols(x24, 0, 1)),
                              _square(ad.slice_cols(x24, 1, 2)))),
            ad.add(ad.sum_all(_square(ad.slice_cols(x24, 2, 4))),
                   ad.sum_all(ad.mul(x24, x24))))),
        # The live rows of steps of 3, 2, 2 and 1 rows, step-major.
        "slice_cols_packed": ({"a": slots3}, lambda: ad.sum_all(_square(
            ad.slice_cols(slots3, 1, 4, rows=[3, 2, 2, 1])))),
        "relu": ({"a": x23}, lambda: ad.sum_all(ad.relu(ad.add(x23, shift)))),
        "sum_all": ({"a": x23}, lambda: _square(ad.sum_all(x23))),
        "attend": ({"x": att_x}, lambda: ad.sum_all(_square(ad.attend(wts, att_x)))),
        "attend_packed": ({"x": pool_x},
                          lambda: ad.sum_all(_square(ad.attend(pk_wts, pool_x)))),
        # B=2, a capacity-style read window [1, 5) of five slots, with bias.
        "tape_attend": ({**attend_params, "bias": b_att}, lambda: ad.sum_all(ad.mul(
            ad.tape_attend(_tape(mem), 1, q_x, w_qx, q_p, w_qp, v_att, b_att)[0], y_att))),
        # No attention bias, every slot, and a padded-source mask.
        "tape_attend_masked": (attend_params, lambda: ad.sum_all(ad.mul(
            ad.tape_attend(_tape(mem), 0, q_x, w_qx, q_p, w_qp, v_att,
                           mask=[[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])[0], y_att))),
        # 2 live rows of a 3-row memory, a capacity-style window [1, 5) and
        # a mask; the ended third row's mask is all 0, which a read of it
        # would reject, and its memory gradient must be exactly 0.
        "tape_attend_packed": (
            {"memory": mem3, "x": px, "W_x": w_qx, "prev": pp, "W_prev": w_qp, "v": v_att,
             "bias": b_att},
            lambda: ad.sum_all(ad.mul(ad.tape_attend(
                _tape(mem3), 1, px, w_qx, pp, w_qp, v_att, b_att,
                mask=[[1, 1, 0, 1], [1, 0, 1, 1], [0, 0, 0, 0]])[0], y_att))),
        "tape_attend_carried_prev": (
            {"memory": mem3, "x": px, "prev": pp3, "W_prev": w_qp},
            lambda: ad.sum_all(ad.mul(ad.tape_attend(
                _tape(mem3), 0, px, Tensor(w_qx.data), pp3, w_qp, Tensor(v_att.data))[0],
                y_att))),
        # The two stages tape_attend fuses, each checked on its own inputs:
        # the broadcast add of the query onto every slot key (query path
        # only, memory held fixed) and the per-slot v . tanh(...) scores
        # (v and the memory only, over a window that starts past the first slot).
        "bcast_add_slots": ({"x": q_x, "W_x": w_qx, "prev": q_p, "W_prev": w_qp, "bias": b_att},
                            lambda: ad.sum_all(ad.mul(ad.tape_attend(
                                _tape(Tensor(mem.data[:, :3])), 0, q_x, w_qx, q_p, w_qp,
                                Tensor(v_att.data), b_att)[0], y_att))),
        "slot_dot": ({"memory": mem, "v": v_att}, lambda: ad.sum_all(ad.mul(ad.tape_attend(
            _tape(mem), 2, Tensor(q_x.data), Tensor(w_qx.data), Tensor(q_p.data),
            Tensor(w_qp.data), v_att)[0], y_att))),
        "tape_attend_summary_prev": (
            {"prev": summary_prev, "W_prev": w_qp},
            lambda: ad.sum_all(ad.mul(ad.tape_attend(
                _tape(Tensor(mem.data)), 0, Tensor(q_x.data), Tensor(w_qx.data),
                summary_prev, w_qp, Tensor(v_att.data))[0], y_att))),
        "gate_cell": ({"state": g_state, "x": g_x, "W": g_w, "bias": g_bias,
                       "inter": g_inter, "W_r": g_wr},
                      lambda: ad.sum_all(ad.mul(ad.gate_cell(
                          g_state, g_x, g_w, g_bias, g_inter, g_wr), g_read))),
        "gate_cell_plain": ({"state": g_state, "x": g_x, "W": g_w, "bias": g_bias},
                            lambda: ad.sum_all(ad.mul(ad.gate_cell(g_state, g_x, g_w, g_bias),
                                                      g_read))),
        "gate_cell_carried": ({"state": g_state3, "x": g_x, "W": g_w, "inter": g_inter3,
                               "W_r": g_wr},
                              lambda: ad.sum_all(ad.mul(ad.gate_cell(
                                  g_state3, g_x, g_w, g_bias, g_inter3, g_wr), g_read))),
        "gate_cell_span": ({"state": g_state, "x": blk_x2, "W": g_w, "bias": g_bias},
                           lambda: ad.sum_all(ad.mul(ad.gate_cell(
                               g_state, blk_x2, g_w, g_bias, span=(1, 3)), g_read))),
        "gate_cell_span_deep": ({"state": g_state, "x": blk_x2, "W": g_w, "bias": g_bias,
                                 "inter": g_inter, "W_r": g_wr},
                                lambda: ad.sum_all(ad.mul(ad.gate_cell(
                                    g_state, blk_x2, g_w, g_bias, g_inter, g_wr, span=(1, 3)),
                                    g_read))),
        "tape_attend_span": ({"memory": mem, "x": blk_x3, "W_x": w_qx, "prev": q_p,
                              "W_prev": w_qp, "v": v_att, "bias": b_att},
                             lambda: ad.sum_all(ad.mul(ad.tape_attend(
                                 _tape(mem), 1, blk_x3, w_qx, q_p, w_qp, v_att, b_att,
                                 span=(1, 3))[0], y_att))),
        "tape_write": ({**{f"h{i}": h for i, h in enumerate(slot_h)},
                        **{f"k{i}": k for i, k in enumerate(slot_k)}}, tape_chain),
        "tape_write_packed": ({**{f"h{i}": h for i, h in enumerate(pk_h)},
                               **{f"k{i}": k for i, k in enumerate(pk_k)},
                               **{f"x{i}": x for i, x in enumerate(pk_x)},
                               **{f"prev{i}": p for i, p in enumerate(pk_p)}},
                              packed_tape_chain),
        "tape_write_slots": ({"values": src_v, "keys": src_k,
                              **{f"x{r}": x for r, x in enumerate(src_x)},
                              **{f"prev{r}": p for r, p in enumerate(src_p)}}, source_reads),
        "lookup": ({"table": table},
                   lambda: ad.sum_all(_square(ad.lookup(table, np.array([0, 2, 2]))))),
        # Row gradients added before and after dense ones into one buffer.
        "lookup_shared_table": ({"table": table}, lambda: ad.add(
            ad.add(ad.sum_all(ad.mul(table, table)),
                   ad.sum_all(_square(ad.lookup(table, np.array([[3, 1], [1, 1]]))))),
            ad.sum_all(_square(ad.mul(table, 0.5))))),
        # Four rows, one target repeated.
        "affine_nll": ({"h": nll_h, "W": nll_w, "b": nll_b},
                       lambda: ad.affine_nll(nll_h, nll_w, nll_b, np.array([1, 4, 1, 0]))[0]),
        # The output projection's layout: W stored column-major.
        "affine_nll_column_major_W": (
            {"h": nll_h, "W": nll_wf, "b": nll_b},
            lambda: ad.affine_nll(nll_h, nll_wf, nll_b, np.array([1, 4, 1, 0]))[0]),
        "affine_nll_row_blocks": ({"h": blk_h, "W": blk_w, "b": blk_b}, blocked_nll),
    }
    return cases


_KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("kernel", sorted(_KERNEL_CASES))
def test_kernel_grad_check(kernel):
    params, loss = _KERNEL_CASES[kernel]
    report = grad_check(loss, params, tolerance=1e-6)
    assert report.passed, f"{kernel}:\n{report}"


def test_every_kernel_has_a_grad_check_case(monkeypatch):
    # The kernels as the benchmark tracer finds them: public functions of
    # autodiff that build graph nodes through ``_make``.  Each must have a
    # case of its own name above, and that case must call it.
    kernels = sorted(name for name, fn in vars(ad).items()
                     if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                     and not name.startswith("_") and "_make" in fn.__code__.co_names)
    # One kernel per job: a new one must come with its case and a line here.
    assert kernels == sorted([
        "add", "mul", "relu", "sum_all", "concat", "slice_cols", "linear",
        "lookup", "attend", "gate_cell", "tape_write", "tape_attend", "affine_nll"])
    missing = [name for name in kernels if name not in _KERNEL_CASES]
    assert not missing, f"kernels without a grad_check case: {missing}"
    called = set()
    for name in kernels:
        def counted(*args, _name=name, _fn=getattr(ad, name), **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ad, name, counted)
    for name in kernels:
        called.clear()
        _KERNEL_CASES[name][1]()
        assert name in called, f"grad_check case {name!r} never calls the kernel"


def _records_graph() -> bool:
    """Whether a kernel called now records its parents."""
    return ad.mul(Tensor([1.0], requires_grad=True), 2.0).requires_grad


@pytest.fixture
def made_nodes(monkeypatch):
    """The list of every node ``_make`` makes from here on."""
    made = []
    make = ad._make

    def recording_make(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(ad, "_make", recording_make)
    return made


@pytest.mark.parametrize("kernel", sorted(_KERNEL_CASES))
def test_no_grad_records_no_graph_and_keeps_values(kernel, made_nodes):
    params, loss = _KERNEL_CASES[kernel]
    zero_grad(params.values())
    expected = loss().data
    made_nodes.clear()
    with ad.no_grad():
        value = loss()
    assert made_nodes and all(n._parents == () and n._backward_fn is None
                              and not n.requires_grad for n in made_nodes)
    assert value.data.tobytes() == expected.tobytes()
    with pytest.raises(GraphStateError, match="no graph"):
        backward(value, params=list(params.values()))
    assert all(p.grad is None for p in params.values())


class TestNoGradMode:
    def test_restored_after_the_block_and_when_nested(self):
        assert _records_graph()
        with ad.no_grad():
            assert not _records_graph()
            with ad.no_grad():
                assert not _records_graph()
            assert not _records_graph()
        assert _records_graph()

    def test_restored_when_the_block_raises(self):
        with pytest.raises(ShapeMismatchError):
            with ad.no_grad():
                ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert _records_graph()

    def test_nonfinite_screen_stays_on(self):
        big = Tensor(np.array([[1e308]]), requires_grad=True)
        with ad.no_grad(), pytest.raises(NonFiniteError), \
                pytest.warns(RuntimeWarning, match="overflow"):
            ad.mul(big, big)

    def test_leaves_keep_requires_grad(self):
        # Only op outputs lose the flag; a parameter made in the block
        # still trains after it.
        with ad.no_grad():
            w = Tensor([2.0], requires_grad=True)
        backward(ad.sum_all(ad.mul(w, w)))
        np.testing.assert_array_equal(w.grad, [4.0])


def test_tape_attend_row_prefix_matches_oracle():
    # x has 2 rows and reads the first 2 rows of a 3-row memory of four
    # slots over the window [1, 4), masked; each row against the oracle over its own
    # unmasked window slots.  The third row's all-zero mask is never read.
    rng = np.random.default_rng(13)
    hid, att = 2, 3
    H, C = rng.normal(size=(3, 5, hid)), rng.normal(size=(3, 5, hid))
    w_h, w_x, w_ht = (rng.normal(size=(att, n)) for n in (hid, 4, hid))
    v, bias = rng.normal(size=att), rng.normal(size=att)
    memory = np.concatenate([H, C, H @ w_h.T], axis=2)
    x, prev = rng.normal(size=(2, 4)), rng.normal(size=(2, hid))
    mask = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 0]])
    out, weights = ad.tape_attend(_tape(Tensor(memory[:, :4]), att), 1, Tensor(x), Tensor(w_x),
                                  Tensor(prev), Tensor(w_ht), Tensor(v), Tensor(bias),
                                  mask=mask)
    assert out.data.shape == (2, 2 * hid) and weights.shape == (2, 3)
    for r in range(2):
        keep = [1 + j for j in range(3) if mask[r, j]]
        w_ref, ht_ref, ct_ref = oracles.intra_summaries_ref(
            x[r], H[r, keep], C[r, keep], prev[r], v, w_h, w_x, w_ht, bias, hid)
        np.testing.assert_allclose(out.data[r], np.concatenate([ht_ref, ct_ref]), atol=1e-12)
        np.testing.assert_allclose(weights[r, mask[r] != 0], w_ref, atol=1e-12)
        assert (weights[r, mask[r] == 0] == 0.0).all()


def _attend_read(rng, read: str):
    """tape_attend's arguments over the tape of a (2, 5, 3 + 2) memory:
    the intra read (window [1, 5), with bias) or the inter read (every
    slot, masked)."""
    mem, x, w_x, prev, w_prev, v, bias = (
        _rng_tensor(rng, *shape) for shape in [(2, 5, 5), (2, 3), (2, 3), (2, 4), (2, 4), (2,),
                                               (2,)])
    tape = _tape(mem)
    if read == "intra":
        return (tape, 1, x, w_x, prev, w_prev, v, bias), {}
    return (tape, 0, x, w_x, prev, w_prev, v), {"mask": [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]]}


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("read", ["intra", "inter"])
def test_tape_attend_makes_one_node(read, record, made_nodes):
    args, kwargs = _attend_read(np.random.default_rng(15), read)
    made_nodes.clear()
    with contextlib.nullcontext() if record else ad.no_grad():
        out, weights = ad.tape_attend(*args, **kwargs)
    assert len(made_nodes) == 1 and made_nodes[0] is out
    assert out.requires_grad == record and isinstance(weights, np.ndarray)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("read", ["intra", "inter"])
def test_tape_attend_weights_are_an_array_in_the_memory_dtype(read, dtype):
    ad.set_default_dtype(dtype)
    try:
        args, kwargs = _attend_read(np.random.default_rng(16), read)
        out, weights = ad.tape_attend(*args, **kwargs)
    finally:
        ad.set_default_dtype(np.float64)
    assert args[0].data.dtype == args[0].keys.dtype == out.data.dtype == dtype
    assert type(weights) is np.ndarray and weights.dtype == dtype
    assert weights.shape == (2, args[0].end - args[1])
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-6)


def test_tape_attend_refuses_a_memory_no_tape_write_made():
    args, kwargs = _attend_read(np.random.default_rng(17), "intra")
    leaf = Tensor(args[0].data, requires_grad=True)
    for mode in (contextlib.nullcontext(), ad.no_grad()):
        with mode, pytest.raises(TapeError, match="tape_write"):
            ad.tape_attend(leaf, *args[1:], **kwargs)


def test_tape_attend_memory_gradient_is_the_key_columns_only():
    # 2 live rows of a 3-row tape, window [1, 5): the tape gets a
    # ReadTerm, the read's weights and output gradient for its log and the
    # key gradient of those slots and rows of the slot-major keys; no
    # value gradient is formed.
    args, _ = _attend_read(np.random.default_rng(18), "intra")
    tape = _tape(_rng_tensor(np.random.default_rng(19), 3, 5, 5))
    out, weights = ad.tape_attend(tape, *args[1:])
    g = np.ones(out.data.shape)
    grads = out._backward_fn(g)
    assert isinstance(grads[0], ad.ReadTerm) and grads[0].lo == 1
    assert grads[0].weights is weights and grads[0].g is g
    assert grads[0].key_grad.shape == (4, 2, 2)
    assert not any(isinstance(gr, ad.Partial) and gr.values.ndim == 3 for gr in grads[1:])


def test_capacity_chain_memory_gradients_match_dense_oracle():
    # Five packed writes of [h | key] (rows 3, 3, 2, 2, 1), each step first
    # reading the window [n - 2, n) of the slots written: every part's
    # gradient is the dense sum over the reads of its slot, weights_r x g_r
    # in the value columns plus the key terms.  The last slot is never read.
    rng = np.random.default_rng(20)
    rows, hid, att = [3, 3, 2, 2, 1], 3, 2
    hs = [_rng_tensor(rng, b, hid) for b in rows]
    keys = [_rng_tensor(rng, b, att) for b in rows]
    xs, prevs = [_rng_tensor(rng, b, 4) for b in rows], [_rng_tensor(rng, b, 2) for b in rows]
    w_x, w_p, v, bias = (_rng_tensor(rng, *s) for s in [(att, 4), (att, 2), (att,), (att,)])
    ys = [rng.normal(size=(b, hid)) for b in rows]
    node, total, reads = None, None, []
    for n, b in enumerate(rows):
        if n:
            lo = max(0, n - 2)
            out, weights = ad.tape_attend(node, lo, xs[n], w_x, prevs[n], w_p, v, bias)
            term = ad.sum_all(ad.mul(out, Tensor(ys[n])))
            total = term if total is None else ad.add(total, term)
            reads.append((n, lo, weights))
        node = ad.tape_write(node, (hs[n],), keys[n], 5)
    backward(total, params=hs + keys)
    vbuf, kbuf = node.data, node.keys.swapaxes(0, 1)

    want_h = [np.zeros(h.data.shape) for h in hs]
    want_k = [np.zeros(k.data.shape) for k in keys]
    for n, lo, weights in reads:
        q = xs[n].data @ w_x.data.T + prevs[n].data @ w_p.data.T + bias.data
        for r in range(rows[n]):
            gval, gkey = oracles.read_memory_grads_ref(
                vbuf[r, lo:n], kbuf[r, lo:n], q[r], v.data, weights[r], ys[n][r])
            for j in range(lo, n):
                want_h[j][r] += gval[j - lo]
                want_k[j][r] += gkey[j - lo]
    for got, want in zip(hs + keys, want_h + want_k):
        np.testing.assert_allclose(got.grad, want, rtol=1e-12, atol=1e-300)
    assert not hs[-1].grad.any() and not keys[-1].grad.any()


def test_tape_write_row_prefix():
    # Slot 1 written by 1 live row of 3: its other rows stay zero, and each
    # value part's gradient is exactly its columns of the rows it wrote.
    # The tape holds [h | c] row by row and the key k slot by slot; a key
    # that no read reached gets no gradient.
    rng = np.random.default_rng(14)
    h3, c3, k3 = _rng_tensor(rng, 3, 2), _rng_tensor(rng, 3, 1), _rng_tensor(rng, 3, 2)
    h1, c1, k1 = _rng_tensor(rng, 1, 2), _rng_tensor(rng, 1, 1), _rng_tensor(rng, 1, 2)
    node = ad.tape_write(ad.tape_write(None, (h3, c3), k3, 2), (h1, c1), k1, 2)
    vbuf, kbuf = node.data, node.keys
    assert vbuf.shape == (3, 2, 3) and kbuf.shape == (2, 3, 2)
    np.testing.assert_array_equal(vbuf[:, 0], np.concatenate([h3.data, c3.data], axis=1))
    np.testing.assert_array_equal(vbuf[0, 1], np.concatenate([h1.data[0], c1.data[0]]))
    np.testing.assert_array_equal(kbuf[0], k3.data)
    np.testing.assert_array_equal(kbuf[1, 0], k1.data[0])
    assert (vbuf[1:, 1] == 0.0).all() and (kbuf[1, 1:] == 0.0).all()
    gv = rng.normal(size=vbuf.shape)
    backward(ad.sum_all(ad.mul(node, Tensor(gv))))
    for part, want in [(h3, gv[:, 0, :2]), (c3, gv[:, 0, 2:]), (h1, gv[:1, 1, :2]),
                       (c1, gv[:1, 1, 2:])]:
        np.testing.assert_array_equal(part.grad, want)
    assert k3.grad is None and k1.grad is None


def test_tape_write_rejects_extra_or_unequal_rows():
    # After a 2-row slot of [h | c] width 3 and key width 2: more rows, a
    # wider value, a wider key, a key of other rows, each refused; and a
    # first write of parts of unequal rows.
    def zeros(*shape):
        return Tensor(np.zeros(shape))
    first = ad.tape_write(None, (zeros(2, 2), zeros(2, 1)), zeros(2, 2), 2)
    for parts, key in [((zeros(3, 2), zeros(3, 1)), zeros(3, 2)),
                       ((zeros(2, 2), zeros(2, 2)), zeros(2, 2)),
                       ((zeros(2, 2), zeros(2, 1)), zeros(2, 3)),
                       ((zeros(2, 2), zeros(2, 1)), zeros(1, 2))]:
        with pytest.raises(TapeError, match="tape_write"):
            ad.tape_write(first, parts, key, 2)
    with pytest.raises(TapeError, match="tape_write"):
        ad.tape_write(None, (zeros(2, 2), zeros(1, 1)), zeros(2, 2), 2)


def _written(count: int, slots: int = 8):
    """A tape of ``slots`` allocated slots, the first ``count`` written one
    by one, and the (part, key) that wrote each slot."""
    rng, node, leaves = np.random.default_rng(35), None, []
    for n in range(count):
        part, key = _rng_tensor(rng, 2, 2), _rng_tensor(rng, 2, 2)
        node = ad.tape_write(node, (part,), key, slots)
        leaves.append((part, key))
    return node, leaves


@pytest.mark.parametrize("changed", ["values", "keys"])
def test_a_written_slot_is_never_written_again(changed):
    # After writes of slots 0 and 1 and a read of both, a write from the
    # node before the chain's end would rewrite slot 1 under the read,
    # whose backward reads it again.  It is refused before anything is
    # written, when the rewrite changes only the slot's values (its key as
    # written) or only its key (its values as written).
    first, leaves = _written(1, slots=4)
    rng = np.random.default_rng(36)
    leaves.append((_rng_tensor(rng, 2, 2), _rng_tensor(rng, 2, 2)))
    node = ad.tape_write(first, (leaves[1][0],), leaves[1][1], 4)
    out, _ = ad.tape_attend(node, 0, _rng_tensor(rng, 2, 3), _rng_tensor(rng, 2, 3),
                            _rng_tensor(rng, 2, 4), _rng_tensor(rng, 2, 4), _rng_tensor(rng, 2))
    before = node.data.tobytes() + node.keys.tobytes()
    seven = Tensor(np.full((2, 2), 7.0))
    part, key = (seven, leaves[1][1]) if changed == "values" else (leaves[1][0], seven)
    with pytest.raises(TapeError, match="written once, in order"):
        ad.tape_write(first, (part,), key, 4)
    assert node.data.tobytes() + node.keys.tobytes() == before and node.log.end == 2
    backward(ad.sum_all(out))


def _read_older_node(slots: int, further: bool):
    """A read of the node after two writes into a tape of ``slots``
    allocated slots; if ``further``, made after a third write from that
    node, with the loss also weighing the third slot's values.  Returns
    the read's weights and the gradients of the two written parts, their
    keys and the read's inputs."""
    tape, leaves = _written(2, slots)
    rng = np.random.default_rng(38)
    args = [_rng_tensor(rng, *shape) for shape in [(2, 3), (2, 3), (2, 4), (2, 4), (2,)]]
    third = (_rng_tensor(rng, 2, 2), _rng_tensor(rng, 2, 2))
    newer = ad.tape_write(tape, (third[0],), third[1], slots) if further else None
    out, weights = ad.tape_attend(tape, 0, *args)
    loss = ad.sum_all(out)
    if further:
        g = np.zeros(newer.data.shape)
        g[:, 2] = rng.normal(size=(2, 2))
        loss = ad.add(loss, ad.sum_all(ad.mul(newer, Tensor(g))))
    backward(loss)
    if further:
        np.testing.assert_array_equal(third[0].grad, g[:, 2])
        assert third[1].grad is None
    return [weights] + [t.grad for pair in leaves for t in pair] + [t.grad for t in args]


@pytest.mark.parametrize("slots", [2, 8])
def test_a_read_of_an_older_node_covers_its_own_slots(slots):
    # A read of the node after two writes, made after a third write from
    # it (which grows a 2-slot tape, or fills an 8-slot one in place),
    # covers slots [0, 2): its weights and every gradient equal those of
    # a tape that was never written further, and the third slot's part
    # gets only the loss's own term and its key no gradient.
    got, want = _read_older_node(slots, True), _read_older_node(slots, False)
    assert got[0].shape == (2, 2)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_source_read_three_times_keeps_three_read_columns():
    # The forward counts the chain's reads, and the first backward record
    # sizes the read log to them: no doubling to 4.
    rng = np.random.default_rng(21)
    tape = ad.tape_write(None, (_rng_tensor(rng, 2, 2, 3),), _rng_tensor(rng, 2, 2, 2), 2)
    w_x, w_p, v = _rng_tensor(rng, 2, 3), _rng_tensor(rng, 2, 4), _rng_tensor(rng, 2)
    total = None
    for _ in range(3):
        out, _ = ad.tape_attend(tape, 0, _rng_tensor(rng, 2, 3), w_x,
                                _rng_tensor(rng, 2, 4), w_p, v)
        total = ad.sum_all(out) if total is None else ad.add(total, ad.sum_all(out))
    backward(total)
    assert tape.log.weights.shape == (2, 2, 3) and tape.log.grads.shape == (2, 3, 3)
    assert tape.log.key_grads.shape == (2, 2, 2)


def _write_read_chain(slots, hs, ks, xs, g, slot_rank=False):
    """Writes slot n of a tape, its values from hs[n] and its key from
    ks[n], as (B, k) parts or as (B, 1, k) ones, and after each write reads
    every slot written; backward of the reads plus sum(values * g).
    Returns the buffers, as one (B, T, 3) array [values | keys], and the
    parts' gradients."""
    rng = np.random.default_rng(23)
    w_x, w_p, v = (Tensor(rng.normal(size=s)) for s in [(1, 3), (1, 3), (1,)])
    node, total, parts = None, ad.sum_all(Tensor(np.zeros(1))), []
    for h, k, x in zip(hs, ks, xs):
        pair = [Tensor(a[:, None] if slot_rank else a, requires_grad=True) for a in (h, k)]
        parts += pair
        node = ad.tape_write(node, pair[:1], pair[1], slots)
        out, _ = ad.tape_attend(node, 0, Tensor(x), w_x, Tensor(x), w_p, v)
        total = ad.add(total, ad.sum_all(ad.mul(out, out)))
    backward(ad.add(total, ad.sum_all(ad.mul(node, Tensor(g[:, :node.data.shape[1], :2])))))
    buf = np.concatenate([node.data, node.keys.swapaxes(0, 1)], axis=2)
    return buf, [p.grad.reshape(p.data.shape[0], -1) for p in parts]


def _chain_inputs(rows):
    rng = np.random.default_rng(22)
    return ([rng.normal(size=(b, 2)) for b in rows], [rng.normal(size=(b, 1)) for b in rows],
            [rng.normal(size=(b, 3)) for b in rows], rng.normal(size=(rows[0], 4, 3)))


def test_flat_part_writes_like_a_one_slot_part():
    # A (B, k) part takes the m = 1 path: the same buffer and gradients as
    # the same values given as (B, 1, k), bit for bit.
    inputs = _chain_inputs([3, 3, 2])
    buf_flat, grads_flat = _write_read_chain(3, *inputs)
    buf_slot, grads_slot = _write_read_chain(3, *inputs, slot_rank=True)
    assert buf_flat.tobytes() == buf_slot.tobytes()
    for a, b in zip(grads_flat, grads_slot):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tape_write_growth_matches_one_allocation():
    # slots=1 grows 1 -> 2 -> 4 over three writes; slots=3 is allocated once.
    inputs = _chain_inputs([3, 2, 2])
    buf_grown, grads_grown = _write_read_chain(1, *inputs)
    buf_fixed, grads_fixed = _write_read_chain(3, *inputs)
    assert buf_grown.shape == (3, 4, 3) and buf_fixed.shape == (3, 3, 3)
    assert buf_grown[:, :3].tobytes() == buf_fixed.tobytes() and not buf_grown[:, 3:].any()
    for a, b in zip(grads_grown, grads_fixed):
        assert a.tobytes() == b.tobytes()


def test_gate_cell_matches_oracle_per_row():
    rng = np.random.default_rng(12)
    hid, batch = 3, 4
    state, x = rng.normal(size=(batch, 2 * hid)), rng.normal(size=(batch, 2))
    w, b, w_r = rng.normal(size=(4 * hid, hid + 2)), rng.normal(size=4 * hid), \
        rng.normal(size=(hid, hid + 2))
    inter = rng.normal(size=(batch + 1, 2 * hid))   # one row more, as in a packed batch
    out = ad.gate_cell(Tensor(state), Tensor(x), Tensor(w), Tensor(b), Tensor(inter),
                       Tensor(w_r))
    plain = ad.gate_cell(Tensor(state), Tensor(x), Tensor(w), Tensor(b))
    for r in range(batch):
        rec, carried = state[r, :hid], state[r, hid:]
        h_ref, c_ref = oracles.lstm_step_ref(x[r], rec, carried, w, b)
        np.testing.assert_allclose(plain.data[r], np.concatenate([h_ref, c_ref]), atol=1e-12)
        h_ref, c_ref, _ = oracles.deep_fusion_cell_ref(
            x[r], rec, carried, inter[r, :hid], inter[r, hid:], w, b, w_r)
        np.testing.assert_allclose(out.data[r], np.concatenate([h_ref, c_ref]), atol=1e-12)


def _value_and_grads(build, leaves, read):
    """The kernel output of ``build()`` and the leaves' gradients under the
    loss sum(out * read)."""
    zero_grad(leaves)
    out = build()
    backward(ad.sum_all(ad.mul(out, Tensor(read))), params=leaves)
    return [out.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("kernel", ["gate_cell", "gate_cell_inter", "tape_attend"])
def test_carried_operand_is_read_in_its_row_prefix(kernel):
    # The carried operand (gate_cell's state or deep-fusion summary block,
    # tape_attend's prev) has 3 rows for a 2-row x: values and gradients
    # equal, bit for bit, those of the same call on its first 2 rows, and
    # its third row gets exactly 0.
    rng = np.random.default_rng(25)
    carried = _rng_tensor(rng, 3, 6)
    cut = Tensor(carried.data[:2].copy(), requires_grad=True)
    if kernel == "gate_cell":
        x, w, b = _rng_tensor(rng, 2, 2), _rng_tensor(rng, 12, 5), _rng_tensor(rng, 12)
        others = [x, w, b]

        def build(state):
            return lambda: ad.gate_cell(state, x, w, b)
    elif kernel == "gate_cell_inter":
        state, x, w, b, w_r = (_rng_tensor(rng, *s) for s in [(2, 6), (2, 2), (12, 5), (12,),
                                                              (3, 5)])
        others = [state, x, w, b, w_r]

        def build(inter):
            return lambda: ad.gate_cell(state, x, w, b, inter, w_r)
    else:
        mem = _rng_tensor(rng, 3, 4, 5)
        x, w_x, w_p, v = (_rng_tensor(rng, *s) for s in [(2, 3), (2, 3), (2, 4), (2,)])
        others = [mem, x, w_x, w_p, v]

        def build(prev):
            return lambda: ad.tape_attend(_tape(mem), 0, x, w_x, prev, w_p, v)[0]
    read = rng.normal(size=build(cut)().data.shape)
    full = _value_and_grads(build(carried), [carried] + others, read)
    alone = _value_and_grads(build(cut), [cut] + others, read)
    assert full[1][:2].tobytes() == alone[1].tobytes() and not full[1][2:].any()
    for a, b in zip(full[:1] + full[2:], alone[:1] + alone[2:]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel", ["gate_cell", "gate_cell_inter", "tape_attend"])
def test_carried_operand_with_fewer_rows_is_refused(kernel):
    rng = np.random.default_rng(26)
    x = _rng_tensor(rng, 3, 2)
    if kernel == "gate_cell":
        with pytest.raises(ShapeMismatchError, match="gate_cell"):
            ad.gate_cell(_rng_tensor(rng, 2, 6), x, _rng_tensor(rng, 12, 5), _rng_tensor(rng, 12))
    elif kernel == "gate_cell_inter":
        with pytest.raises(ShapeMismatchError, match="gate_cell"):
            ad.gate_cell(_rng_tensor(rng, 3, 6), x, _rng_tensor(rng, 12, 5), _rng_tensor(rng, 12),
                         _rng_tensor(rng, 2, 6), _rng_tensor(rng, 3, 5))
    else:
        with pytest.raises(ShapeMismatchError, match="tape_attend"):
            ad.tape_attend(_tape(_rng_tensor(rng, 3, 2, 5)), 0, x, _rng_tensor(rng, 2, 2),
                           _rng_tensor(rng, 2, 4), _rng_tensor(rng, 2, 4), _rng_tensor(rng, 2))


def _span_call(kernel: str, rng, block: Tensor, span):
    """``kernel`` over the rows ``span`` of ``block`` (None: all of it),
    with the other operands drawn from ``rng``: (output, other leaves)."""
    if kernel == "tape_attend":
        mem, w_x, prev, w_p, v = (_rng_tensor(rng, *s) for s in [(2, 4, 5), (2, 3), (2, 4),
                                                                 (2, 4), (2,)])
        return ad.tape_attend(_tape(mem), 0, block, w_x, prev, w_p, v, span=span)[0], \
            [mem, w_x, prev, w_p, v]
    state, w, b, inter, w_r = (_rng_tensor(rng, *s) for s in [(2, 6), (12, 5), (12,), (2, 6),
                                                              (3, 5)])
    if kernel == "gate_cell":
        return ad.gate_cell(state, block, w, b, span=span), [state, w, b]
    return ad.gate_cell(state, block, w, b, inter, w_r, span=span), [state, w, b, inter, w_r]


@pytest.mark.parametrize("kernel", ["gate_cell", "gate_cell_inter", "tape_attend"])
def test_a_step_reads_its_row_range_of_the_block(kernel):
    # Rows [1, 3) of a 5-row block give the values and gradients, bit for
    # bit, of the same call on a copy of those rows, and every other row
    # of the block gets exactly 0.
    width = 3 if kernel == "tape_attend" else 2
    block = _rng_tensor(np.random.default_rng(27), 5, width)
    rows = Tensor(block.data[1:3].copy(), requires_grad=True)
    results = []
    for x, span in ((block, (1, 3)), (rows, None)):
        out, others = _span_call(kernel, np.random.default_rng(28), x, span)
        read = np.random.default_rng(29).normal(size=out.data.shape)
        zero_grad([x] + others)
        backward(ad.sum_all(ad.mul(out, Tensor(read))), params=[x] + others)
        results.append([out.data, x.grad] + [leaf.grad for leaf in others])
    (out, g_block, *g_others), (alone, g_rows, *g_alone) = results
    assert out.tobytes() == alone.tobytes()
    assert g_block[1:3].tobytes() == g_rows.tobytes()
    assert not g_block[:1].any() and not g_block[3:].any()
    for a, b in zip(g_others, g_alone):
        assert a.tobytes() == b.tobytes()


def test_a_row_range_read_matches_the_oracles():
    # Rows [2, 4) of a 5-row block, each against the straight-line cell
    # and attention oracles on its own row.
    rng = np.random.default_rng(30)
    hid, att = 3, 2
    block = rng.normal(size=(5, 2))
    state, inter = rng.normal(size=(2, 2 * hid)), rng.normal(size=(2, 2 * hid))
    w, b, w_r = rng.normal(size=(4 * hid, hid + 2)), rng.normal(size=4 * hid), \
        rng.normal(size=(hid, hid + 2))
    H, C = rng.normal(size=(2, 3, hid)), rng.normal(size=(2, 3, hid))
    w_h, w_x, w_ht = (rng.normal(size=(att, n)) for n in (hid, 2, hid))
    v, bias = rng.normal(size=att), rng.normal(size=att)
    tape = ad.tape_write(None, (Tensor(np.concatenate([H, C], axis=2)),),
                         Tensor(H @ w_h.T), 3)
    plain = ad.gate_cell(Tensor(state), Tensor(block), Tensor(w), Tensor(b), span=(2, 4))
    deep = ad.gate_cell(Tensor(state), Tensor(block), Tensor(w), Tensor(b), Tensor(inter),
                        Tensor(w_r), span=(2, 4))
    read, weights = ad.tape_attend(tape, 0, Tensor(block), Tensor(w_x), Tensor(state),
                                   Tensor(w_ht), Tensor(v), Tensor(bias), span=(2, 4))
    for r in range(2):
        x, rec, carried = block[2 + r], state[r, :hid], state[r, hid:]
        h_ref, c_ref = oracles.lstm_step_ref(x, rec, carried, w, b)
        np.testing.assert_allclose(plain.data[r], np.concatenate([h_ref, c_ref]), atol=1e-12)
        h_ref, c_ref, _ = oracles.deep_fusion_cell_ref(
            x, rec, carried, inter[r, :hid], inter[r, hid:], w, b, w_r)
        np.testing.assert_allclose(deep.data[r], np.concatenate([h_ref, c_ref]), atol=1e-12)
        w_ref, ht_ref, ct_ref = oracles.intra_summaries_ref(
            x, H[r], C[r], rec, v, w_h, w_x, w_ht, bias, hid)
        np.testing.assert_allclose(read.data[r], np.concatenate([ht_ref, ct_ref]), atol=1e-12)
        np.testing.assert_allclose(weights[r], w_ref, atol=1e-12)


@pytest.mark.parametrize("kernel", ["gate_cell", "gate_cell_inter", "tape_attend"])
@pytest.mark.parametrize("span", [(3, 6), (5, 6), (2, 2), (3, 2), (-1, 1)])
def test_a_row_range_past_the_block_or_empty_is_refused(kernel, span, made_nodes):
    # A 5-row block: a range past its rows, an empty or reversed one, or
    # one before its first row is refused before any node is made, and a
    # refused read leaves the tape's read count as it was.
    width = 3 if kernel == "tape_attend" else 2
    block = _rng_tensor(np.random.default_rng(31), 5, width)
    rng = np.random.default_rng(32)
    tape = _tape(_rng_tensor(rng, 2, 4, 5))
    made_nodes.clear()
    with pytest.raises(ShapeMismatchError, match=kernel.split("_inter")[0]):
        if kernel == "tape_attend":
            ad.tape_attend(tape, 0, block, *(_rng_tensor(rng, *s) for s in [(2, 3), (2, 4),
                                                                             (2, 4), (2,)]),
                           span=span)
        else:
            _span_call(kernel, rng, block, span)
    assert made_nodes == [] and tape.log.reads == 0


def test_linear_reads_the_first_columns_of_a_wider_x():
    # A [h | c] block passes whole where h is wanted: the value of the
    # product with its first columns, and their gradient, bit for bit;
    # the other columns get exactly 0.  A narrower x is refused.
    rng = np.random.default_rng(33)
    x, w, b = _rng_tensor(rng, 2, 5), _rng_tensor(rng, 4, 3), _rng_tensor(rng, 4)
    first = Tensor(x.data[:, :3].copy(), requires_grad=True)
    read = rng.normal(size=(2, 4))
    results = []
    for leaf in (x, first):
        zero_grad([leaf, w, b])
        out = ad.linear(leaf, w, b)
        backward(ad.sum_all(ad.mul(out, Tensor(read))), params=[leaf, w, b])
        results.append((out.data, leaf.grad, w.grad, b.grad))
    (out, gx, gw, gb), (alone, g_first, gw_alone, gb_alone) = results
    assert out.tobytes() == alone.tobytes()
    assert gx[:, :3].tobytes() == g_first.tobytes() and not gx[:, 3:].any()
    assert gw.tobytes() == gw_alone.tobytes() and gb.tobytes() == gb_alone.tobytes()
    with pytest.raises(ShapeMismatchError, match="linear"):
        ad.linear(_rng_tensor(rng, 2, 2), w)


def test_slice_cols_gathers_the_packed_rows_of_a_tape():
    # Steps of 3, 2, 2 and 1 rows over a (3, 5, 4) tape: step t's first
    # B_t rows, step after step; rows past the tape's are refused.
    x = Tensor(np.arange(60.0).reshape(3, 5, 4), requires_grad=True)
    out = ad.slice_cols(x, 1, 3, rows=[3, 2, 2, 1])
    want = np.concatenate([x.data[:b, t, 1:3] for t, b in enumerate([3, 2, 2, 1])])
    assert out.data.tobytes() == want.tobytes()
    read = np.random.default_rng(34).normal(size=out.data.shape)
    backward(ad.sum_all(ad.mul(out, Tensor(read))), params=[x])
    dense = np.zeros_like(x.data)
    at = 0
    for t, b in enumerate([3, 2, 2, 1]):
        dense[:b, t, 1:3] = read[at:at + b]
        at += b
    assert x.grad.tobytes() == dense.tobytes()
    for rows in ([4, 1], [1] * 6, [], [2, -1]):
        with pytest.raises(ShapeMismatchError, match="slice_cols"):
            ad.slice_cols(x, 0, 2, rows=rows)


def test_attend_sums_prefix_slots_like_a_dense_oracle():
    # A packed block of steps of 3, 2, 2 and 1 rows, (B, T, n) slots' live
    # prefixes, under weights that read only each sorted row's positions
    # and put sorted row i in output row order[i]: that row sums only the
    # slots that have row i, and a position's gradient is its weight
    # times its output row's.
    rng = np.random.default_rng(27)
    rows, order = [3, 2, 2, 1], np.array([1, 2, 0])
    full = rng.normal(size=(3, 4, 4))
    steps = np.repeat(np.arange(4), rows)
    ranks = np.concatenate([np.arange(b) for b in rows])
    x = Tensor(full[ranks, steps], requires_grad=True)
    dense = rng.uniform(size=(3, 4)) * (np.arange(3)[:, None] < rows)
    weights = np.zeros((3, 8))
    weights[order[ranks], np.arange(8)] = dense[ranks, steps]
    out = ad.attend(weights, x)
    for i in range(3):
        want = sum(dense[i, t] * full[i, t] for t in range(4) if i < rows[t])
        np.testing.assert_allclose(out.data[order[i]], want, rtol=1e-14)
    g = rng.normal(size=out.data.shape)
    backward(ad.sum_all(ad.mul(out, Tensor(g))))
    np.testing.assert_allclose(x.grad, dense[ranks, steps, None] * g[order[ranks]], rtol=1e-15)
    with pytest.raises(ShapeMismatchError, match="attend"):
        ad.attend(weights[:, :7], x)


def _read_twice():
    """A 2-slot tape and two reads of it, A and B."""
    rng = np.random.default_rng(28)
    node = ad.tape_write(None, (_rng_tensor(rng, 2, 2, 3),), _rng_tensor(rng, 2, 2, 2), 2)
    w_x, w_p, v = _rng_tensor(rng, 2, 3), _rng_tensor(rng, 2, 4), _rng_tensor(rng, 2)
    reads = [ad.tape_attend(node, 0, _rng_tensor(rng, 2, 3), w_x, _rng_tensor(rng, 2, 4),
                            w_p, v)[0] for _ in range(2)]
    return node, reads


@pytest.mark.parametrize("second", ["other read", "same read", "tape"])
def test_a_tape_chain_runs_backward_once(second):
    # After backward(sum(A)) the read log holds A's record, and the tape
    # has run backward: a second loss through the chain would add A's
    # value and key gradients again.
    node, (a, b) = _read_twice()
    backward(ad.sum_all(a))
    loss = {"other read": lambda: ad.sum_all(b), "same read": lambda: ad.sum_all(ad.mul(a, 2.0)),
            "tape": lambda: ad.sum_all(node)}[second]()
    with pytest.raises(GraphStateError, match="backward once"):
        backward(loss)


def test_a_read_of_a_constant_tape_runs_backward_once():
    # The read keeps no log record for a constant tape, but it is spent
    # after its backward like any node: a second loss through it is
    # refused.
    rng = np.random.default_rng(34)
    node = ad.tape_write(None, (_rng_tensor(rng, 2, 3, 3, requires_grad=False),),
                         _rng_tensor(rng, 2, 3, 2, requires_grad=False), 3)
    x = _rng_tensor(rng, 2, 3)
    w_x, prev, w_p, v = (_rng_tensor(rng, *shape, requires_grad=False)
                         for shape in [(2, 3), (2, 4), (2, 4), (2,)])
    out, _ = ad.tape_attend(node, 0, x, w_x, prev, w_p, v)
    backward(ad.sum_all(out))
    with pytest.raises(GraphStateError, match="backward once"):
        backward(ad.sum_all(ad.mul(out, 1.0)))


def test_gate_cell_shape_errors_name_the_operands():
    state, x, w = Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 2))), Tensor(np.zeros((12, 5)))
    b = Tensor(np.zeros(12))
    for bad in [(Tensor(np.zeros((2, 4))), x, w, b), (state, Tensor(np.zeros((3, 2))), w, b),
                (state, x, Tensor(np.zeros((12, 4))), b), (state, x, w, Tensor(np.zeros(11)))]:
        with pytest.raises(ShapeMismatchError, match="gate_cell: state"):
            ad.gate_cell(*bad)
    inter, w_r = Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 5)))
    for bad, named in [((Tensor(np.zeros((2, 4))), w_r), r"inter \(2, 4\), W_r \(3, 5\)"),
                       ((Tensor(np.zeros((1, 6))), w_r), r"inter \(1, 6\)"),
                       ((inter, Tensor(np.zeros((3, 4)))), r"W_r \(3, 4\)"),
                       ((inter, None), r"inter \(2, 6\), W_r None"),
                       ((None, w_r), r"inter None, W_r \(3, 5\)")]:
        with pytest.raises(ShapeMismatchError, match=named):
            ad.gate_cell(state, x, w, b, *bad)


def test_affine_nll_matches_per_token_oracle():
    rng = np.random.default_rng(11)
    h, w, b = rng.normal(size=(4, 3)), rng.normal(size=(6, 3)), rng.normal(size=6)
    targets = np.array([1, 5, 0, 3])
    nll, hits = ad.affine_nll(Tensor(h), Tensor(w), Tensor(b), targets)
    expected, argmax_hits = 0.0, []
    for row, target in zip(h, targets):
        logits = w @ row + b
        expected += -np.log(softmax_oracle(logits)[target])
        argmax_hits.append(logits.argmax() == target)
    assert nll.item() == pytest.approx(expected, abs=1e-10)
    np.testing.assert_array_equal(hits, argmax_hits)
    # Tied logits: only the first largest counts as the greedy choice.
    _, tied = ad.affine_nll(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))),
                            Tensor(np.zeros(4)), np.array([0, 2]))
    np.testing.assert_array_equal(tied, [True, False])


def test_affine_nll_target_range_error():
    zeros = Tensor(np.zeros((1, 3)))
    for bad in (3, -1):
        with pytest.raises(IndexError, match="out of range"):
            ad.affine_nll(zeros, Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)),
                          np.array([bad]))


def test_affine_nll_nonfinite_logit_raises():
    # Finite operands whose product overflows to -inf in one logit only.
    h = Tensor(np.array([[1e200]]))
    w = Tensor(np.array([[-1e200], [1.0]]))
    with pytest.raises(NonFiniteError, match="affine_nll"), \
            pytest.warns(RuntimeWarning, match="overflow"):
        ad.affine_nll(h, w, Tensor(np.zeros(2)), np.array([1]))


def _affine_nll_grads(h, w, b, targets, scale):
    """(h, W) gradients of ``scale`` times ``affine_nll``'s NLL."""
    ht, wt = Tensor(h, requires_grad=True), Tensor(w, requires_grad=True)
    backward(ad.mul(ad.affine_nll(ht, wt, Tensor(b, requires_grad=True), targets)[0], scale))
    return ht.grad, wt.grad


def test_affine_nll_weight_gradient_comes_in_the_weight_layout():
    rng = np.random.default_rng(12)
    h, w, b = rng.normal(size=(6, 4)), rng.normal(size=(9, 4)), rng.normal(size=9)
    targets = np.array([1, 8, 0, 3, 3, 5])
    gh_c, gw_c = _affine_nll_grads(h, w, b, targets, 0.25)
    gh_f, gw_f = _affine_nll_grads(h, np.asfortranarray(w), b, targets, 0.25)
    assert gw_c.flags.c_contiguous and not gw_c.flags.f_contiguous
    assert gw_f.flags.f_contiguous and not gw_f.flags.c_contiguous
    assert gh_c.flags.c_contiguous and gh_f.flags.c_contiguous
    np.testing.assert_allclose(gw_f, gw_c, rtol=1e-12)
    np.testing.assert_allclose(gh_f, gh_c, rtol=1e-12)


def test_affine_nll_row_major_weight_gradient_is_the_plain_product():
    # A row-major W (the classifier heads) gets exactly z.T @ h of the
    # backward's (N, V) buffer z = g (softmax - one-hot), rebuilt here in
    # the kernel's own operation order.
    rng = np.random.default_rng(13)
    h, w, b = rng.normal(size=(7, 5)), rng.normal(size=(4, 5)), rng.normal(size=4)
    targets, g = np.array([0, 3, 3, 1, 2, 0, 1]), 0.125
    _, gw = _affine_nll_grads(h, w, b, targets, g)
    rows = np.arange(len(targets))
    z = h @ w.T
    z += b
    z -= z.max(axis=1)[:, None]
    np.exp(z, out=z)
    np.multiply(z, (g / z.sum(axis=1))[:, None], out=z)
    z[rows, targets] -= g
    np.testing.assert_array_equal(gw, z.T @ h)


def test_row_blocks_come_in_multiples_of_12_rows_and_never_end_in_one(monkeypatch):
    monkeypatch.setattr(ad, "NLL_BLOCK_BYTES", 100 * 8)    # 100 one-logit rows fit
    assert ad._row_blocks(250, 8) == [0, 96, 192, 250]
    assert ad._row_blocks(96, 8) == [0, 96]
    assert ad._row_blocks(193, 8) == [0, 96, 193]
    assert ad._row_blocks(1, 8) == [0, 1]
    assert ad._row_blocks(0, 8) == [0]
    monkeypatch.setattr(ad, "NLL_BLOCK_BYTES", 5 * 8)      # fewer than 12 rows fit
    assert ad._row_blocks(11, 8) == [0, 5, 11]
    monkeypatch.undo()
    # The PTB vocabulary in float64: 96 rows, about 7.7 MB, per block.
    assert ad._row_blocks(514, 10_004 * 8) == [0, 96, 192, 288, 384, 480, 514]


def _blocked_nll_inputs():
    """Seven rows over a 5-word vocabulary; every other target is its row's
    argmax, so the hits record holds both values."""
    rng = np.random.default_rng(21)
    h, w, b = (Tensor(rng.normal(size=shape)) for shape in ((7, 3), (5, 3), (5,)))
    targets = rng.integers(0, 5, size=7)
    targets[::2] = (h.data @ w.data.T + b.data).argmax(axis=1)[::2]
    return h, w, b, targets


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_affine_nll_row_blocks_match_one_block(rows):
    h, w, b, targets = _blocked_nll_inputs()
    whole, whole_hits = ad.affine_nll(h, w, b, targets)
    with _nll_block_rows(rows, 5):
        nll, hits = ad.affine_nll(h, w, b, targets)
    assert nll.item() == pytest.approx(whole.item(), rel=1e-12, abs=0)
    np.testing.assert_array_equal(hits, whole_hits)
    assert hits.any() and not hits.all()


def test_affine_nll_screens_the_last_row_block():
    h, w, b, targets = _blocked_nll_inputs()
    h.data[6, 1] = np.nan     # past the screen at creation; rows 4-6 are the last block
    with _nll_block_rows(2, 5), pytest.raises(NonFiniteError, match="affine_nll"):
        ad.affine_nll(h, w, b, targets)


def test_affine_nll_row_blocks_stay_float32(monkeypatch):
    row_bytes, row_blocks = [], ad._row_blocks
    monkeypatch.setattr(ad, "_row_blocks",
                        lambda n, size: row_bytes.append(size) or row_blocks(n, size))
    h64, w64, b64, targets = _blocked_nll_inputs()
    ad.set_default_dtype(np.float32)
    try:
        h, w, b = (Tensor(t.data, requires_grad=True) for t in (h64, w64, b64))
        with _nll_block_rows(2, 5, itemsize=4):
            recorded, _ = ad.affine_nll(h, w, b, targets)
            assert row_bytes == []           # a recorded graph forms one block
            with ad.no_grad():
                blocked, _ = ad.affine_nll(h, w, b, targets)
        backward(recorded, params=[h, w, b])
    finally:
        ad.set_default_dtype(np.float64)
    assert row_bytes == [5 * 4]              # float32 logits, 4 bytes each
    assert blocked.data.tobytes() == recorded.data.tobytes()
    assert [t.grad.dtype for t in (h, w, b)] == [np.float32] * 3
    whole64 = ad.affine_nll(h64, w64, b64, targets)[0].item()
    assert recorded.item() != whole64
    assert recorded.item() == pytest.approx(whole64, rel=1e-6)


def test_affine_nll_without_a_graph_holds_one_block_of_logits():
    # N = 600 rows over the PTB vocabulary: the whole (N, V) logits would
    # take 48 MB; one block of them takes under NLL_BLOCK_BYTES.
    rng = np.random.default_rng(23)
    h, w = Tensor(rng.normal(size=(600, 8))), Tensor(0.1 * rng.normal(size=(10_004, 8)))
    b, targets = Tensor(np.zeros(10_004)), rng.integers(0, 10_004, size=600)
    tracemalloc.start()
    try:
        with ad.no_grad():
            ad.affine_nll(h, w, b, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * ad.NLL_BLOCK_BYTES


def _glibc_mallinfo2():
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (OSError, TypeError, AttributeError):
        return None

    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
            "uordblks", "fordblks", "keepcost")]
    fn.restype = MallInfo2
    return fn


@pytest.mark.skipif(_glibc_mallinfo2() is None, reason="needs glibc's mallinfo2")
def test_a_large_array_is_mapped_even_after_a_larger_one_was_freed():
    # Unpinned, freeing the 4x larger mapped block would raise glibc's
    # mmap threshold past the next block, which would then come from the
    # heap, where its space stays resident after it is freed.
    mallinfo2 = _glibc_mallinfo2()
    size = ad.MMAP_THRESHOLD_BYTES
    larger = np.ones(4 * size // 8)
    del larger
    mapped = mallinfo2().hblkhd
    block = np.ones(size // 8)
    assert mallinfo2().hblkhd - mapped >= size
    del block
    assert mallinfo2().hblkhd == mapped
