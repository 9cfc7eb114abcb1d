"""Kernel, backward, and gradient-check tests for the autodiff engine."""

import contextlib
import inspect

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
        act = ad.sigmoid(hidden)
        loss = ad.sum_all(act)
        backward(loss)
        assert hidden.grad is None and act.grad is None
        np.testing.assert_array_equal(loss.grad, np.ones(()))
        np.testing.assert_allclose(w.grad, (act.data * (1.0 - act.data)).T @ x.data,
                                   rtol=1e-12)
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


def _rng_tensor(rng, *shape, requires_grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


class TestGradCheck:
    def test_linear_model(self):
        rng = np.random.default_rng(1)
        w = _rng_tensor(rng, 2, 2)
        x = rng.normal(size=(3, 2))

        def loss():
            return ad.sum_all(ad.sigmoid(ad.linear(Tensor(x), w)))

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
        # Gradients near 1e-10 under a loss near 7.6: the central difference
        # at the default step resolves them only to its round-off, about
        # eps * 7.6 / 1e-5 = 1.7e-10, and they agree to that.
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)) * 1e-9)
        shift = Tensor(np.full((4, 2), 3.0))

        def loss():
            return ad.sum_all(ad.sigmoid(ad.add(ad.linear(x, w), shift)))

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
    slots = [t(2, 3) for _ in range(3)]
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
    # Gate cell with h = 3 over a (2, 6) [rec | carried] block and a
    # 2-wide input; a random readout weighs both halves of [h | c].
    g_state, g_x, g_w, g_bias, g_transfer = t(2, 6), t(2, 2), t(12, 5), t(12), t(2, 3)
    g_read = Tensor(rng.normal(size=(2, 6)))
    summary_prev = t(2, 6)   # a [h~ | c~] block; the query reads its first 4 columns
    w34, b4 = t(3, 4), t(4)
    slots.append(t(2, 3))
    # A packed batch: a (3, 5, 5) memory read by 2 live rows, and writes
    # by 3, 2 and 1 live rows, each with a query of its own rows.
    mem3, px, pp = t(3, 5, 5), t(2, 3), t(2, 4)
    pk_h, pk_k = [t(3 - n, 3) for n in range(3)], [t(3 - n, 2) for n in range(3)]
    pk_x, pk_p = [t(3 - n, 3) for n in range(3)], [t(3 - n, 4) for n in range(3)]
    y3 = rng.normal(size=(3, 3))

    def tape_chain():
        # Three writes into a 2-slot buffer that grows to 4 before the
        # third, each followed by a read of every slot written so far.
        buf, node, total = np.zeros((2, 2, 5)), None, ad.sum_all(Tensor(np.zeros(1)))
        for n, (h, k) in enumerate(zip(slot_h, slot_k)):
            if n == buf.shape[1]:
                buf = np.concatenate([buf, np.zeros_like(buf)], axis=1)
            node = ad.tape_write(node, buf, n, (h, k))
            out = ad.tape_attend(node, 0, n + 1, q_x, w_qx, q_p, w_qp, v_att)[0]
            total = ad.add(total, ad.sum_all(ad.mul(out, y_att)))
        return total

    def packed_tape_chain():
        # Each write is followed by a read of every slot written so far by
        # the rows still live; the buffer's ended rows are never read.
        buf, node, total = np.zeros((3, 3, 5)), None, ad.sum_all(Tensor(np.zeros(1)))
        for n, parts in enumerate(zip(pk_h, pk_k)):
            node = ad.tape_write(node, buf, n, parts)
            out = ad.tape_attend(node, 0, n + 1, pk_x[n], w_qx, pk_p[n], w_qp, v_att)[0]
            total = ad.add(total, ad.sum_all(ad.mul(out, Tensor(y3[:3 - n]))))
        return total

    cases = {
        "add": ({"a": x23, "b": y23}, lambda: ad.sum_all(ad.sigmoid(ad.add(x23, y23)))),
        "mul": ({"a": x23, "b": y23}, lambda: ad.sum_all(ad.mul(x23, y23))),
        "mul_scalar": ({"a": x23}, lambda: ad.sum_all(ad.mul(x23, 1.7))),
        "linear": ({"x": x23, "w": w43}, lambda: ad.sum_all(ad.sigmoid(ad.linear(x23, w43)))),
        "linear_bias": ({"x": x24, "w": w34, "b": bias},
                        lambda: ad.sum_all(ad.sigmoid(ad.linear(x24, w34, bias)))),
        # One projection of every slot of a (B, T, n) block.
        "linear_slots": ({"x3": x3d, "w": w43, "b": b4},
                         lambda: ad.sum_all(ad.sigmoid(ad.linear(x3d, w43, b4)))),
        "concat": ({"a": x23, "b": y23},
                   lambda: ad.sum_all(ad.sigmoid(ad.concat([x23, y23], axis=1)))),
        "slice_cols": ({"a": x23}, lambda: ad.sum_all(ad.slice_cols(x23, 1, 3))),
        # The last axis of a (B, T, n) block, as the encoder's source read cuts it.
        "slice_cols_slots": ({"a": x3d}, lambda: ad.sum_all(ad.sigmoid(ad.slice_cols(x3d, 1, 3)))),
        # Gate-style blocks of one parent, plus a dense use of it.
        "slice_cols_blocks": ({"a": x24}, lambda: ad.add(
            ad.sum_all(ad.mul(ad.sigmoid(ad.slice_cols(x24, 0, 1)),
                              ad.sigmoid(ad.slice_cols(x24, 1, 2)))),
            ad.add(ad.sum_all(ad.sigmoid(ad.slice_cols(x24, 2, 4))),
                   ad.sum_all(ad.mul(x24, x24))))),
        "sigmoid": ({"a": x23}, lambda: ad.sum_all(ad.sigmoid(x23))),
        "relu": ({"a": x23}, lambda: ad.sum_all(ad.relu(ad.add(x23, shift)))),
        "sum_all": ({"a": x23}, lambda: ad.sigmoid(ad.sum_all(x23))),
        "attend": ({f"s{i}": s for i, s in enumerate(slots)},
                   lambda: ad.sum_all(ad.sigmoid(ad.attend(wts, slots)))),
        # B=2, a capacity-style read window [1, 4) of five slots, with bias.
        "tape_attend": ({**attend_params, "bias": b_att}, lambda: ad.sum_all(ad.mul(
            ad.tape_attend(mem, 1, 4, q_x, w_qx, q_p, w_qp, v_att, b_att)[0], y_att))),
        # No attention bias, every slot, and a padded-source mask.
        "tape_attend_masked": (attend_params, lambda: ad.sum_all(ad.mul(
            ad.tape_attend(mem, 0, 5, q_x, w_qx, q_p, w_qp, v_att,
                           mask=[[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])[0], y_att))),
        # 2 live rows of a 3-row memory, a capacity-style window [1, 4) and
        # a mask; the ended third row's mask is all 0, which a read of it
        # would reject, and its memory gradient must be exactly 0.
        "tape_attend_packed": (
            {"memory": mem3, "x": px, "W_x": w_qx, "prev": pp, "W_prev": w_qp, "v": v_att,
             "bias": b_att},
            lambda: ad.sum_all(ad.mul(ad.tape_attend(
                mem3, 1, 4, px, w_qx, pp, w_qp, v_att, b_att,
                mask=[[1, 1, 0], [1, 0, 1], [0, 0, 0]])[0], y_att))),
        # The two stages tape_attend fuses, each checked on its own inputs:
        # the broadcast add of the query onto every slot key (query path
        # only, memory held fixed) and the per-slot v . tanh(...) scores
        # (v and the memory only), over a window that ends at the last slot.
        "bcast_add_slots": ({"x": q_x, "W_x": w_qx, "prev": q_p, "W_prev": w_qp, "bias": b_att},
                            lambda: ad.sum_all(ad.mul(ad.tape_attend(
                                Tensor(mem.data), 0, 3, q_x, w_qx, q_p, w_qp,
                                Tensor(v_att.data), b_att)[0], y_att))),
        "slot_dot": ({"memory": mem, "v": v_att}, lambda: ad.sum_all(ad.mul(ad.tape_attend(
            mem, 2, 5, Tensor(q_x.data), Tensor(w_qx.data), Tensor(q_p.data),
            Tensor(w_qp.data), v_att)[0], y_att))),
        "tape_attend_summary_prev": (
            {"prev": summary_prev, "W_prev": w_qp},
            lambda: ad.sum_all(ad.mul(ad.tape_attend(
                Tensor(mem.data), 0, 5, Tensor(q_x.data), Tensor(w_qx.data), summary_prev,
                w_qp, Tensor(v_att.data))[0], y_att))),
        "gate_cell": ({"state": g_state, "x": g_x, "W": g_w, "bias": g_bias,
                       "transfer": g_transfer},
                      lambda: ad.sum_all(ad.mul(ad.gate_cell(
                          g_state, g_x, g_w, g_bias, g_transfer), g_read))),
        "gate_cell_plain": ({"state": g_state, "x": g_x, "W": g_w, "bias": g_bias},
                            lambda: ad.sum_all(ad.mul(ad.gate_cell(g_state, g_x, g_w, g_bias),
                                                      g_read))),
        "tape_write": ({**{f"h{i}": h for i, h in enumerate(slot_h)},
                        **{f"k{i}": k for i, k in enumerate(slot_k)}}, tape_chain),
        "tape_write_packed": ({**{f"h{i}": h for i, h in enumerate(pk_h)},
                               **{f"k{i}": k for i, k in enumerate(pk_k)},
                               **{f"x{i}": x for i, x in enumerate(pk_x)},
                               **{f"prev{i}": p for i, p in enumerate(pk_p)}},
                              packed_tape_chain),
        "lookup": ({"table": table},
                   lambda: ad.sum_all(ad.sigmoid(ad.lookup(table, np.array([0, 2, 2]))))),
        # Row gradients added before and after dense ones into one buffer.
        "lookup_shared_table": ({"table": table}, lambda: ad.add(
            ad.add(ad.sum_all(ad.mul(table, table)),
                   ad.sum_all(ad.sigmoid(ad.lookup(table, np.array([[3, 1], [1, 1]]))))),
            ad.sum_all(ad.sigmoid(ad.mul(table, 0.5))))),
        # Four rows, one target repeated.
        "affine_nll": ({"h": nll_h, "W": nll_w, "b": nll_b},
                       lambda: ad.affine_nll(nll_h, nll_w, nll_b, np.array([1, 4, 1, 0]))[0]),
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
        "add", "mul", "sigmoid", "relu", "sum_all", "concat", "slice_cols", "linear",
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
    # x has 2 rows and reads the first 2 rows of a 3-row memory over the
    # window [1, 4), masked; each row against the oracle over its own
    # unmasked window slots.  The third row's all-zero mask is never read.
    rng = np.random.default_rng(13)
    hid, att = 2, 3
    H, C = rng.normal(size=(3, 5, hid)), rng.normal(size=(3, 5, hid))
    w_h, w_x, w_ht = (rng.normal(size=(att, n)) for n in (hid, 4, hid))
    v, bias = rng.normal(size=att), rng.normal(size=att)
    memory = np.concatenate([H, C, H @ w_h.T], axis=2)
    x, prev = rng.normal(size=(2, 4)), rng.normal(size=(2, hid))
    mask = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 0]])
    out, weights = ad.tape_attend(Tensor(memory), 1, 4, Tensor(x), Tensor(w_x),
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
    """tape_attend's arguments over a (2, 5, 3 + 2) memory: the intra read
    (window [1, 4), with bias) or the inter read (every slot, masked)."""
    mem, x, w_x, prev, w_prev, v, bias = (
        _rng_tensor(rng, *shape) for shape in [(2, 5, 5), (2, 3), (2, 3), (2, 4), (2, 4), (2,),
                                               (2,)])
    if read == "intra":
        return (mem, 1, 4, x, w_x, prev, w_prev, v, bias), {}
    return (mem, 0, 5, x, w_x, prev, w_prev, v), {"mask": [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]]}


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
    assert args[0].data.dtype == dtype and out.data.dtype == dtype
    assert type(weights) is np.ndarray and weights.dtype == dtype
    assert weights.shape == (2, args[2] - args[1])
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-6)


def test_tape_write_row_prefix():
    # Slot 1 written by 1 live row of 3: its other rows stay zero, and each
    # part's gradient is exactly its columns of the rows it wrote.
    rng = np.random.default_rng(14)
    h3, k3 = _rng_tensor(rng, 3, 2), _rng_tensor(rng, 3, 1)
    h1, k1 = _rng_tensor(rng, 1, 2), _rng_tensor(rng, 1, 1)
    buf = np.zeros((3, 2, 3))
    node = ad.tape_write(ad.tape_write(None, buf, 0, (h3, k3)), buf, 1, (h1, k1))
    np.testing.assert_array_equal(buf[:, 0], np.concatenate([h3.data, k3.data], axis=1))
    np.testing.assert_array_equal(buf[0, 1], np.concatenate([h1.data[0], k1.data[0]]))
    assert (buf[1:, 1] == 0.0).all()
    g = rng.normal(size=buf.shape)
    backward(ad.sum_all(ad.mul(node, Tensor(g))))
    np.testing.assert_array_equal(h3.grad, g[:, 0, :2])
    np.testing.assert_array_equal(k3.grad, g[:, 0, 2:])
    np.testing.assert_array_equal(h1.grad, g[:1, 1, :2])
    np.testing.assert_array_equal(k1.grad, g[:1, 1, 2:])


def test_tape_write_rejects_extra_or_unequal_rows():
    buf = np.zeros((2, 2, 3))
    with pytest.raises(ShapeMismatchError, match="tape_write"):
        ad.tape_write(None, buf, 0, (Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 1)))))
    with pytest.raises(ShapeMismatchError, match="tape_write"):
        ad.tape_write(None, buf, 0, (Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 1)))))


def test_gate_cell_matches_oracle_per_row():
    rng = np.random.default_rng(12)
    hid, batch = 3, 4
    state, x = rng.normal(size=(batch, 2 * hid)), rng.normal(size=(batch, 2))
    w, b, transfer = rng.normal(size=(4 * hid, hid + 2)), rng.normal(size=4 * hid), \
        rng.normal(size=(batch, hid))
    out = ad.gate_cell(Tensor(state), Tensor(x), Tensor(w), Tensor(b), Tensor(transfer))
    plain = ad.gate_cell(Tensor(state), Tensor(x), Tensor(w), Tensor(b))
    for r in range(batch):
        rec, carried = state[r, :hid], state[r, hid:]
        h_ref, c_ref = oracles.lstm_step_ref(x[r], rec, carried, w, b)
        np.testing.assert_allclose(plain.data[r], np.concatenate([h_ref, c_ref]), atol=1e-12)
        i, f, o, chat = oracles.gate_blocks(rec, x[r], w, b)
        c_ref = transfer[r] + f * carried + i * chat
        np.testing.assert_allclose(out.data[r], np.concatenate([o * np.tanh(c_ref), c_ref]),
                                   atol=1e-12)


def test_gate_cell_shape_errors_name_the_operands():
    state, x, w = Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 2))), Tensor(np.zeros((12, 5)))
    b = Tensor(np.zeros(12))
    for bad in [(Tensor(np.zeros((2, 4))), x, w, b), (state, Tensor(np.zeros((3, 2))), w, b),
                (state, x, Tensor(np.zeros((12, 4))), b), (state, x, w, Tensor(np.zeros(11)))]:
        with pytest.raises(ShapeMismatchError, match="gate_cell: state"):
            ad.gate_cell(*bad)
    with pytest.raises(ShapeMismatchError, match=r"transfer \(2, 2\)"):
        ad.gate_cell(state, x, w, b, transfer=Tensor(np.zeros((2, 2))))


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
