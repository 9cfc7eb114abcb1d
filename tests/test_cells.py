"""Cell-level tests: closed forms, naive-oracle equivalence, gradients."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lstmn import autodiff as ad
from lstmn import cells
from lstmn.autodiff import Tensor, backward, grad_check, zero_grad
from lstmn.cells import (
    GateWeights,
    IntraAttentionWeights,
    LstmnLayerWeights,
    TapeError,
    Tapes,
    lstm_step,
    lstmn_step,
    run_stack,
    zero_state,
)


def row(vec):
    """Lift a 1-D vector to a batch-of-one row."""
    return Tensor(np.asarray(vec, dtype=np.float64)[None, :])


def zero_gate_weights(hidden, in_size):
    return GateWeights(
        w=Tensor(np.zeros((4 * hidden, hidden + in_size)), requires_grad=True),
        bias=Tensor(np.zeros(4 * hidden), requires_grad=True),
    )


def random_layer(rng, hidden, in_size, attn, bias=True):
    return cells.init_lstmn_layer(rng, hidden, in_size, attn, attention_bias=bias)


def randomize_layer(rng, layer, scale=0.6):
    """init_* zeroes v and biases; fill everything for generic-position tests."""
    for t in (layer.gates.w, layer.gates.bias, layer.attn.v, layer.attn.w_h,
              layer.attn.w_x, layer.attn.w_htilde, layer.attn.bias):
        if t is not None:
            t.data[...] = rng.normal(scale=scale, size=t.data.shape)
    return layer


def layer_ref_args(layer):
    a = layer.attn
    return dict(W=layer.gates.w.data, b=layer.gates.bias.data,
                v=a.v.data, w_h=a.w_h.data, w_x=a.w_x.data,
                w_ht=a.w_htilde.data,
                bias=None if a.bias is None else a.bias.data)


class TestLstmStep:
    def test_zero_weights_zero_memory(self):
        w = zero_gate_weights(1, 1)
        state = lstm_step(row([0.0]), zero_state(1, 1), w)
        np.testing.assert_array_equal(state.h.data, [[0.0]])
        np.testing.assert_array_equal(state.c.data, [[0.0]])

    def test_zero_weights_unit_memory(self):
        # sigma(0) = 0.5 gates halve the carried memory.
        w = zero_gate_weights(1, 1)
        state = lstm_step(row([0.3]), row([0.0, 1.0]), w)
        assert state.c.item() == pytest.approx(0.5, abs=1e-15)
        assert state.h.item() == pytest.approx(0.5 * np.tanh(0.5), abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        w = GateWeights(w=Tensor(rng.normal(size=(12, 6))),
                        bias=Tensor(rng.normal(size=12)))
        x, h0, c0 = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        state = lstm_step(row(x), row(np.concatenate([h0, c0])), w)
        h_ref, c_ref = oracles.lstm_step_ref(x, h0, c0, w.w.data, w.bias.data)
        np.testing.assert_allclose(state.h.data[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(state.c.data[0], c_ref, atol=1e-12)

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(6)
        w = GateWeights(w=Tensor(rng.normal(scale=3.0, size=(8, 5))),
                        bias=Tensor(rng.normal(scale=3.0, size=8)))
        state = lstm_step(row(rng.normal(size=3)), row(rng.normal(size=4)), w)
        assert np.all(np.abs(state.h.data) <= 1.0)


class TestIntraAttend:
    def test_zero_v_gives_uniform(self):
        rng = np.random.default_rng(7)
        layer = random_layer(rng, 2, 2, 3)   # v stays zero from init
        tapes = Tapes()
        htilde = Tensor(np.zeros((1, 2)))
        for t in range(4):
            _, htilde, weights = lstmn_step(row(rng.normal(size=2)), tapes, htilde, layer)
            if weights is not None:
                np.testing.assert_allclose(weights[0], np.full(t, 1.0 / t), atol=1e-12)

    def test_singleton_tape_weight_one(self):
        rng = np.random.default_rng(8)
        layer = randomize_layer(rng, random_layer(rng, 2, 2, 3))
        tapes = Tapes()
        h = row(rng.normal(size=2))
        tapes.append(h, row(rng.normal(size=2)), ad.linear(h, layer.attn.w_h))
        summary, weights = cells.intra_attend(
            row(rng.normal(size=2)), tapes, row(rng.normal(size=2)), layer.attn)
        np.testing.assert_array_equal(weights, [[1.0]])
        np.testing.assert_array_equal(summary.data[:, :2], h.data)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        layer = randomize_layer(rng, random_layer(rng, 2, 2, 3))
        H = [rng.normal(size=2) for _ in range(3)]
        x, htilde_prev = rng.normal(size=2), rng.normal(size=2)
        tapes = Tapes()
        for h_i in H:
            tapes.append(row(h_i), row(np.zeros(2)), ad.linear(row(h_i), layer.attn.w_h))
        _, weights = cells.intra_attend(row(x), tapes, row(htilde_prev), layer.attn)
        a = layer.attn
        ref_scores = oracles.intra_scores_ref(
            x, H, htilde_prev, a.v.data, a.w_h.data, a.w_x.data,
            a.w_htilde.data, a.bias.data)
        np.testing.assert_allclose(weights[0], oracles.softmax(ref_scores), atol=1e-12)

    def test_empty_tape_rejected(self):
        rng = np.random.default_rng(10)
        layer = random_layer(rng, 2, 2, 3)
        with pytest.raises(TapeError, match="empty"):
            cells.intra_attend(row([0.0, 0.0]), Tapes(), Tensor(np.zeros((1, 2))),
                               layer.attn)


class TestLstmnStep:
    def test_first_step_zero_weights(self):
        layer = LstmnLayerWeights(
            gates=zero_gate_weights(2, 2),
            attn=IntraAttentionWeights(
                v=Tensor(np.zeros(3), requires_grad=True),
                w_h=Tensor(np.zeros((3, 2)), requires_grad=True),
                w_x=Tensor(np.zeros((3, 2)), requires_grad=True),
                w_htilde=Tensor(np.zeros((3, 2)), requires_grad=True)))
        tapes = Tapes()
        state, _, weights = lstmn_step(row([1.0, -1.0]), tapes, Tensor(np.zeros((1, 2))), layer)
        np.testing.assert_array_equal(state.h.data, np.zeros((1, 2)))
        np.testing.assert_array_equal(state.c.data, np.zeros((1, 2)))
        assert weights is None
        assert len(tapes) == 1

    def test_second_step_equals_lstm_on_first_state(self):
        # With one tape slot the softmax is a point mass, so the update is
        # exactly an LSTM step whose recurrent inputs are (h_1, c_1).
        rng = np.random.default_rng(11)
        layer = randomize_layer(rng, random_layer(rng, 3, 2, 2))
        tapes = Tapes()
        htp = Tensor(np.zeros((1, 3)))
        x1, x2 = row(rng.normal(size=2)), row(rng.normal(size=2))
        s1, summary1, _ = lstmn_step(x1, tapes, htp, layer)
        s2, summary2, _ = lstmn_step(x2, tapes, summary1, layer)
        ref = lstm_step(x2, s1.hc, layer.gates)
        np.testing.assert_array_equal(s2.hc.data, ref.hc.data)
        np.testing.assert_array_equal(summary2.data, s1.hc.data)

    def test_matches_naive_oracle_over_sequence(self):
        rng = np.random.default_rng(12)
        layer = randomize_layer(rng, random_layer(rng, 3, 3, 2))
        xs = [rng.normal(size=3) for _ in range(4)]
        tapes = Tapes()
        htilde = Tensor(np.zeros((1, 3)))
        H, C = [], []
        hp = np.zeros(3)
        for x in xs:
            state, htilde, weights = lstmn_step(row(x), tapes, htilde, layer)
            h_ref, c_ref, w_ref, ht_ref, _ = oracles.lstmn_step_ref(
                x, H, C, hp, **layer_ref_args(layer))
            np.testing.assert_allclose(state.h.data[0], h_ref, atol=1e-12)
            np.testing.assert_allclose(state.c.data[0], c_ref, atol=1e-12)
            if weights is not None:
                np.testing.assert_allclose(weights[0], w_ref, atol=1e-12)
            H.append(h_ref)
            C.append(c_ref)
            hp = ht_ref

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(13)
        layer = randomize_layer(rng, random_layer(rng, 3, 3, 2))
        xs = [rng.normal(size=(1, 3)) for _ in range(4)]
        params = dict(layer.named("layer1"))

        def loss():
            tapes = Tapes()
            htilde = Tensor(np.zeros((1, 3)))
            total = None
            for x in xs:
                state, htilde, _ = lstmn_step(Tensor(x), tapes, htilde, layer)
                term = ad.sum_all(ad.mul(state.h, state.h))
                total = term if total is None else ad.add(total, term)
            return total

        report = grad_check(loss, params, tolerance=1e-4)
        assert report.passed, str(report)

    def test_unequal_tapes_rejected(self):
        # h and c share one buffer slot per step, so their tapes cannot
        # get out of step: a slot whose h and c differ is never written.
        rng = np.random.default_rng(14)
        layer = random_layer(rng, 2, 2, 2)
        tapes = Tapes()
        h = row([0.0, 0.0])
        with pytest.raises(TapeError, match="differ"):
            tapes.append(h, row([0.0, 0.0, 0.0]), ad.linear(h, layer.attn.w_h))
        assert len(tapes) == 0
        lstmn_step(row([0.0, 0.0]), tapes, Tensor(np.zeros((1, 2))), layer)
        with pytest.raises(TapeError, match="differ"):
            tapes.append(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))),
                         Tensor(np.zeros((2, 2))))
        assert len(tapes) == 1

    def test_tape_growth_unbounded(self):
        rng = np.random.default_rng(15)
        layer = randomize_layer(rng, random_layer(rng, 2, 2, 2))
        tapes = Tapes()
        htilde = Tensor(np.zeros((1, 2)))
        for t in range(6):
            _, htilde, _ = lstmn_step(row(rng.normal(size=2)), tapes, htilde, layer)
            assert len(tapes) == t + 1

    def test_capacity_drops_oldest_slot(self):
        # Against the naive oracle restricted to the newest `cap` states:
        # eviction is FIFO, so attention at step t sees exactly those.
        rng = np.random.default_rng(15)
        cap = 3
        layer = randomize_layer(rng, random_layer(rng, 2, 2, 2))
        tapes = Tapes(capacity=cap)
        htilde = Tensor(np.zeros((1, 2)))
        H, C = [], []
        hp = np.zeros(2)
        for t in range(6):
            x = rng.normal(size=2)
            state, htilde, _ = lstmn_step(row(x), tapes, htilde, layer)
            h_ref, c_ref, _, ht_ref, _ = oracles.lstmn_step_ref(
                x, H[-cap:], C[-cap:], hp, **layer_ref_args(layer))
            np.testing.assert_allclose(state.h.data[0], h_ref, atol=1e-12)
            np.testing.assert_allclose(state.c.data[0], c_ref, atol=1e-12)
            assert len(tapes) == min(t + 1, cap)
            H.append(h_ref)
            C.append(c_ref)
            hp = ht_ref


class TestFusedTape:
    def test_batched_capacity_window_matches_oracle_per_row(self):
        rng = np.random.default_rng(24)
        cap, batch = 3, 3
        layer = randomize_layer(rng, random_layer(rng, 3, 2, 4))
        tapes = Tapes(capacity=cap)
        htilde = Tensor(np.zeros((batch, 3)))
        H = [[] for _ in range(batch)]
        C = [[] for _ in range(batch)]
        hp = [np.zeros(3) for _ in range(batch)]
        for _ in range(7):
            x = rng.normal(size=(batch, 2))
            state, htilde, weights = lstmn_step(Tensor(x), tapes, htilde, layer)
            for b in range(batch):
                h_ref, c_ref, w_ref, ht_ref, ct_ref = oracles.lstmn_step_ref(
                    x[b], H[b][-cap:], C[b][-cap:], hp[b], **layer_ref_args(layer))
                np.testing.assert_allclose(state.h.data[b], h_ref, atol=1e-12)
                np.testing.assert_allclose(state.c.data[b], c_ref, atol=1e-12)
                np.testing.assert_allclose(htilde.data[b, 3:], ct_ref, atol=1e-12)
                if weights is not None:
                    np.testing.assert_allclose(weights[b], w_ref, atol=1e-12)
                H[b].append(h_ref)
                C[b].append(c_ref)
                hp[b] = ht_ref

    def test_growth_past_first_allocation_same_results(self):
        # Tapes() starts at INITIAL_SLOTS and doubles twice over 40 steps;
        # values and gradients match a tape allocated for 40 slots.
        rng = np.random.default_rng(25)
        layer = randomize_layer(rng, random_layer(rng, 3, 2, 2))
        xs = [rng.normal(size=(2, 2)) for _ in range(40)]
        params = list(layer.named("layer1").values())

        def run(tapes):
            zero_grad(params)
            htilde, total, hs = Tensor(np.zeros((2, 3))), None, []
            for x in xs:
                state, htilde, _ = lstmn_step(Tensor(x), tapes, htilde, layer)
                hs.append(state.h.data.copy())
                term = ad.sum_all(ad.mul(state.h, state.h))
                total = term if total is None else ad.add(total, term)
            backward(total, params=params)
            return hs, [p.grad.copy() for p in params]

        grown = Tapes()
        hs_grown, grads_grown = run(grown)
        assert grown.memory.data.shape[1] == grown.memory.keys.shape[0] == \
            4 * Tapes.INITIAL_SLOTS > 40
        hs_fixed, grads_fixed = run(Tapes(length=40))
        np.testing.assert_array_equal(np.stack(hs_grown), np.stack(hs_fixed))
        for g_grown, g_fixed in zip(grads_grown, grads_fixed):
            np.testing.assert_array_equal(g_grown, g_fixed)

    def test_graph_nodes_per_step_independent_of_tape_length(self):
        rng = np.random.default_rng(26)
        layer = randomize_layer(rng, random_layer(rng, 3, 2, 2))

        def nodes_of_step(tape_len):
            tapes = Tapes()
            htilde = Tensor(np.zeros((2, 3)))
            for _ in range(tape_len):
                _, htilde, _ = lstmn_step(Tensor(rng.normal(size=(2, 2))), tapes, htilde, layer)
            x = Tensor(rng.normal(size=(2, 2)))
            before = Tensor(0.0)._nid
            lstmn_step(x, tapes, htilde, layer)
            return Tensor(0.0)._nid - before

        assert nodes_of_step(4) == nodes_of_step(64)


def test_recorded_forward_keeps_no_attention_activations():
    # A recorded 2-layer skip stack at B = 16, T = 128, H = a = 64: the
    # memory held between forward and backward stays below half of the
    # (B, t, a) tanh activations that its 2 x 127 reads would keep, sum
    # over reads of B t a 8 bytes (127 MiB).  Keeping them held 165.7 MB.
    batch, steps, hidden = 16, 128, 64
    rng = np.random.default_rng(39)
    stack = cells.init_stack(rng, 2, hidden, hidden, hidden, skip=True)
    xs = [Tensor(rng.normal(size=(batch, hidden)), requires_grad=True) for _ in range(steps)]
    activations = 2 * sum(batch * t * hidden * 8 for t in range(steps))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = run_stack(xs, stack)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < activations / 2, (held, activations)
    total = ad.sum_all(run.top[-1].h)
    backward(total)
    assert all(x.grad is not None for x in xs)


class TestAttentionSumInvariant:
    def test_distributions_normalized_every_step(self):
        rng = np.random.default_rng(16)
        layer = randomize_layer(rng, random_layer(rng, 4, 3, 3))
        tapes = Tapes()
        htilde = Tensor(np.zeros((2, 4)))
        for t in range(6):
            x = Tensor(rng.normal(size=(2, 3)))
            _, htilde, weights = lstmn_step(x, tapes, htilde, layer)
            if weights is not None:
                sums = weights.sum(axis=1)
                np.testing.assert_allclose(sums, 1.0, atol=1e-9)
                assert (weights >= 0).all()

    def test_summary_in_convex_hull_1d(self):
        # With hidden size 1 the convex hull is the [min, max] interval.
        rng = np.random.default_rng(17)
        layer = randomize_layer(rng, random_layer(rng, 1, 2, 2))
        tapes = Tapes()
        htilde = Tensor(np.zeros((1, 1)))
        hs = []
        for _ in range(5):
            state, htilde, weights = lstmn_step(row(rng.normal(size=2)), tapes, htilde, layer)
            if weights is not None:
                assert min(hs) - 1e-12 <= htilde.data[0, 0] <= max(hs) + 1e-12
            hs.append(state.h.data[0, 0])


class TestStack:
    def test_single_layer_stack_equals_lstmn_step(self):
        rng = np.random.default_rng(18)
        layer = randomize_layer(rng, random_layer(rng, 3, 2, 2))
        stack = cells.StackWeights(layers=[layer], skip=False)
        xs = [row(rng.normal(size=2)) for _ in range(3)]
        run = run_stack(xs, stack)
        t_direct = Tapes()
        ht_d = Tensor(np.zeros((1, 3)))
        for x, h in zip(xs, run.top_h):
            s_d, ht_d, _ = lstmn_step(x, t_direct, ht_d, layer)
            np.testing.assert_array_equal(h.data, s_d.h.data)

    def test_two_layers_zero_weights_zero_outputs(self):
        layers = []
        for in_size in (2, 1):
            layers.append(LstmnLayerWeights(
                gates=zero_gate_weights(1, in_size),
                attn=IntraAttentionWeights(
                    v=Tensor(np.zeros(2), requires_grad=True),
                    w_h=Tensor(np.zeros((2, 1)), requires_grad=True),
                    w_x=Tensor(np.zeros((2, in_size)), requires_grad=True),
                    w_htilde=Tensor(np.zeros((2, 1)), requires_grad=True))))
        stack = cells.StackWeights(layers=layers, skip=False)
        run = run_stack([row([0.4, -0.2]), row([1.0, 0.3])], stack)
        for h in run.top_h:
            np.testing.assert_array_equal(h.data, np.zeros((1, 1)))

    def test_three_layer_skip_gradients(self):
        rng = np.random.default_rng(19)
        stack = cells.init_stack(rng, num_layers=3, hidden=3, embed=2, attn_size=2,
                                 skip=True)
        for layer in stack.layers:
            randomize_layer(rng, layer, scale=1.0)
        xs = [rng.normal(size=(2, 2)) for _ in range(5)]
        # Random linear readout: generic sensitivity on every path, unlike
        # a squared sum whose small-signal terms cancel into fd noise.
        read = [rng.normal(size=(2, 3)) for _ in range(5)]
        params = dict(stack.named())

        def loss():
            run = run_stack([Tensor(x) for x in xs], stack)
            total = None
            for h, r in zip(run.top_h, read):
                term = ad.sum_all(ad.mul(h, Tensor(r)))
                total = term if total is None else ad.add(total, term)
            return total

        report = grad_check(loss, params, tolerance=1e-4)
        assert report.passed, str(report)

    def test_skip_changes_upper_input_width(self):
        rng = np.random.default_rng(20)
        stack = cells.init_stack(rng, 2, hidden=3, embed=2, attn_size=2, skip=True)
        assert stack.layers[1].gates.w.data.shape == (12, 3 + 3 + 2)
        plain = cells.init_stack(rng, 2, hidden=3, embed=2, attn_size=2, skip=False)
        assert plain.layers[1].gates.w.data.shape == (12, 3 + 3)


class TestNonMarkovContrast:
    def test_tape_slot_feeds_later_steps(self):
        # Rebuild the tape after step 2 with the first slot as a fresh leaf
        # and the second, and the summary, as constants; steps 3..4 still
        # read the first slot through attention, so its gradient is
        # generically nonzero.  A plain LSTM has no such input: after
        # step 2 its entire state is (h_2, c_2).
        rng = np.random.default_rng(21)
        layer = randomize_layer(rng, random_layer(rng, 3, 2, 2))
        tapes = Tapes()
        htilde = Tensor(np.zeros((1, 3)))
        xs = [row(rng.normal(size=2)) for _ in range(4)]
        s1, summary1, _ = lstmn_step(xs[0], tapes, htilde, layer)
        s2, summary2, _ = lstmn_step(xs[1], tapes, summary1, layer)
        leaf = Tensor(s1.h.data.copy(), requires_grad=True)
        rebuilt = Tapes()
        rebuilt.append(leaf, Tensor(s1.c.data.copy()), ad.linear(leaf, layer.attn.w_h))
        h2 = Tensor(s2.h.data.copy())
        rebuilt.append(h2, Tensor(s2.c.data.copy()), ad.linear(h2, layer.attn.w_h))
        _, summary3, _ = lstmn_step(xs[2], rebuilt, Tensor(summary2.data.copy()), layer)
        s4, _, _ = lstmn_step(xs[3], rebuilt, summary3, layer)
        backward(ad.sum_all(s4.h), params=[leaf])
        assert np.abs(leaf.grad).max() > 1e-8

    def test_lstm_future_depends_only_on_latest_state(self):
        rng = np.random.default_rng(22)
        w = GateWeights(w=Tensor(rng.normal(size=(12, 5))),
                        bias=Tensor(rng.normal(size=12)))
        xs = [row(rng.normal(size=2)) for _ in range(4)]
        state = zero_state(1, 3)
        for x in xs:
            state = lstm_step(x, state, w).hc
        # Recompute steps 3..4 from the stored [h_2 | c_2] alone.
        s2 = zero_state(1, 3)
        for x in xs[:2]:
            s2 = lstm_step(x, s2, w).hc
        redo = Tensor(s2.data.copy())
        for x in xs[2:]:
            redo = lstm_step(x, redo, w).hc
        np.testing.assert_array_equal(redo.data, state.data)


def test_float32_steps_stay_float32():
    # The zero state, the first-step zero summary, the fused cell's output
    # and every parameter gradient keep the default dtype.
    ad.set_default_dtype(np.float32)
    try:
        rng = np.random.default_rng(27)
        layer = randomize_layer(rng, random_layer(rng, 3, 2, 2))
        lstm = GateWeights(w=Tensor(rng.normal(size=(12, 5)), requires_grad=True),
                           bias=Tensor(rng.normal(size=12), requires_grad=True))
        inter, w_r = Tensor(rng.normal(size=(2, 6))), Tensor(rng.normal(size=(3, 5)))
        tapes, summary, hc, total, blocks = Tapes(), None, zero_state(2, 3), None, []
        for _ in range(3):
            x = Tensor(rng.normal(size=(2, 2)))
            state, summary, _ = lstmn_step(x, tapes, summary, layer, inter, w_r)
            hc = lstm_step(x, hc, lstm).hc
            blocks += [summary, state.hc, hc]
            term = ad.add(ad.sum_all(ad.mul(state.h, state.h)), ad.sum_all(hc))
            total = term if total is None else ad.add(total, term)
        params = list(layer.named("layer1").values()) + [lstm.w, lstm.bias]
        backward(total, params=params)
    finally:
        ad.set_default_dtype(np.float64)
    assert zero_state(1, 1).data.dtype == np.float64
    assert all(b.data.dtype == np.float32 for b in blocks)
    assert all(p.grad.dtype == np.float32 for p in params)


def test_determinism_same_seed_bit_identical():
    def build_and_run(seed):
        rng = np.random.default_rng(seed)
        stack = cells.init_stack(rng, 2, hidden=3, embed=2, attn_size=2)
        for layer in stack.layers:
            randomize_layer(rng, layer)
        xs = [Tensor(rng.normal(size=(2, 2))) for _ in range(5)]
        run = run_stack(xs, stack)
        return np.stack([h.data for h in run.top_h])

    a, b = build_and_run(33), build_and_run(33)
    assert a.tobytes() == b.tobytes()


def lstm_stack(rng, layers, hidden, embed, skip=False):
    """A run_stack stack of plain LSTM layers with every weight random."""
    stack = cells.init_stack(rng, layers, hidden, embed, attn_size=None, skip=skip)
    for layer in stack.layers:
        assert layer.attn is None
        for t in (layer.gates.w, layer.gates.bias):
            t.data[...] = rng.normal(size=t.data.shape)
    return stack


def test_run_lstm_baseline_matches_manual_chain():
    rng = np.random.default_rng(23)
    stack = lstm_stack(rng, 1, hidden=3, embed=2)
    xs = [row(rng.normal(size=2)) for _ in range(3)]
    run = run_stack(xs, stack)
    assert run.traces == [None] * 3
    state = zero_state(1, 3)
    for x, h, c in zip(xs, run.top_h, run.top_c):
        state = lstm_step(x, state, stack.layers[0].gates).hc
        np.testing.assert_array_equal(state.data, np.concatenate([h.data, c.data], axis=1))


def test_run_stack_lstm_skip_feeds_h_and_x_upward():
    rng = np.random.default_rng(24)
    hidden, embed = 3, 2
    stack = lstm_stack(rng, 2, hidden, embed, skip=True)
    assert stack.named()["layer2.W"].data.shape == (4 * hidden, 2 * hidden + embed)
    assert set(stack.named()) == {"layer1.W", "layer1.bias", "layer2.W", "layer2.bias"}
    xs = [Tensor(rng.normal(size=(2, embed))) for _ in range(4)]
    run = run_stack(xs, stack)
    lower, upper = zero_state(2, hidden), zero_state(2, hidden)
    for x, h in zip(xs, run.top_h):
        lower = lstm_step(x, lower, stack.layers[0].gates)
        upper = lstm_step(ad.concat([lower.h, x], axis=1), upper, stack.layers[1].gates)
        np.testing.assert_array_equal(upper.h.data, h.data)
        lower, upper = lower.hc, upper.hc


class TestPackedStack:
    """A packed batch: rows sorted longest first, step t runs the first
    B_t rows.  Each row must get what it gets alone."""

    LENGTHS = (5, 5, 3, 1)

    def stacks(self, rng):
        tape = cells.init_stack(rng, 2, hidden=3, embed=2, attn_size=2, skip=True)
        for layer in tape.layers:
            randomize_layer(rng, layer, scale=1.0)
        return {"lstm": lstm_stack(rng, 2, hidden=3, embed=2, skip=True), "lstmn": tape}

    def packed_xs(self, rng):
        x = rng.normal(size=(len(self.LENGTHS), max(self.LENGTHS), 2))
        rows = [sum(n > t for n in self.LENGTHS) for t in range(max(self.LENGTHS))]
        return x, [Tensor(x[:b, t]) for t, b in enumerate(rows)]

    @pytest.mark.parametrize("kind,capacity", [("lstm", None), ("lstmn", None), ("lstmn", 2)])
    def test_each_row_matches_its_own_run(self, kind, capacity):
        rng = np.random.default_rng(27)
        stack = self.stacks(rng)[kind]
        x, xs = self.packed_xs(rng)
        run = run_stack(xs, stack, capacity)
        assert [h.data.shape[0] for h in run.top_h] == [4, 3, 3, 2, 2]
        for r, n in enumerate(self.LENGTHS):
            alone = run_stack([Tensor(x[r:r + 1, t]) for t in range(n)], stack, capacity)
            for t in range(n):
                np.testing.assert_allclose(run.top[t].hc.data[r], alone.top[t].hc.data[0],
                                           rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kind", ["lstm", "lstmn"])
    def test_gradients_through_the_row_cuts(self, kind):
        rng = np.random.default_rng(28)
        stack = self.stacks(rng)[kind]
        _, xs = self.packed_xs(rng)
        read = [rng.normal(size=x.data.shape[:1] + (3,)) for x in xs]

        def loss():
            run = run_stack(xs, stack, capacity=2)
            total = None
            for h, r in zip(run.top_h, read):
                term = ad.sum_all(ad.mul(h, Tensor(r)))
                total = term if total is None else ad.add(total, term)
            return total

        report = grad_check(loss, dict(stack.named()), tolerance=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("kind", ["lstm", "lstmn"])
    def test_rows_cannot_grow(self, kind):
        rng = np.random.default_rng(29)
        stack = self.stacks(rng)[kind]
        xs = [Tensor(rng.normal(size=(b, 2))) for b in (3, 2, 3)]
        with pytest.raises(TapeError, match="longest first"):
            run_stack(xs, stack)

    @pytest.mark.parametrize("shapes", [
        [(2, 4), (2, 1)],             # more rows than the slot before
        [(1, 4), (1, 2)],             # wider than the tape
        [(1, 4), (2, 1)],             # parts of unequal rows
        [(1, 2), (1, 3), (1, 1)],     # value parts of unequal width
    ])
    def test_refused_write_changes_nothing(self, shapes):
        tapes = Tapes(length=2)
        tapes.append(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 1))))
        node = tapes.memory
        before = [node.data.copy(), node.keys.copy()]
        with pytest.raises(TapeError):
            tapes.append(*(Tensor(np.full(s, 7.0)) for s in shapes))
        assert tapes.memory is node and len(tapes) == 1
        assert [node.data.tobytes(), node.keys.tobytes()] == [b.tobytes() for b in before]

    def test_tape_rejects_more_rows_than_the_slot_before(self):
        tapes = Tapes(length=3)
        tapes.append(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 1))))
        tapes.append(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 1))))
        np.testing.assert_array_equal(tapes.memory.data[:, 1], [[1.0] * 4, [0.0] * 4])
        np.testing.assert_array_equal(tapes.memory.keys[1], [[1.0], [0.0]])
        with pytest.raises(TapeError, match="differ"):
            tapes.append(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 1))))


class TestNodeCounts:
    """Graph nodes that ``run_stack`` records over a packed input block:
    a fixed number per step and layer, plus a per-layer count that does
    not grow with the sequence."""

    @staticmethod
    def ops_of_run(made_ops, stack, steps):
        x = Tensor(np.random.default_rng(steps).normal(size=(2 * steps, 2)), requires_grad=True)
        made_ops.clear()
        run_stack(x, stack, rows=[2] * steps)
        return Counter(made_ops)

    @pytest.mark.parametrize("layers,skip", [(1, False), (2, False), (2, True), (3, True)])
    def test_a_tape_step_is_four_nodes(self, made_ops, layers, skip):
        # Each step of each layer: the read (none at a layer's first
        # step), the gate cell, the slot's key and the slot's write.  Each
        # upper layer adds the one gather of the lower tape's h columns,
        # and the skip join with the embedding block.
        stack = cells.init_stack(np.random.default_rng(40), layers, 3, 2, 2, skip=skip)
        per_layer = (layers - 1) * (1 + skip) - layers
        for steps in (3, 8):
            ops = self.ops_of_run(made_ops, stack, steps)
            assert sum(ops.values()) == 4 * steps * layers + per_layer
            assert ops == Counter(tape_attend=(steps - 1) * layers, gate_cell=steps * layers,
                                  linear=steps * layers, tape_write=steps * layers,
                                  slice_cols=layers - 1, concat=(layers - 1) * skip)

    @pytest.mark.parametrize("layers,skip", [(1, False), (2, False), (3, True)])
    def test_an_lstm_step_is_one_gate_cell(self, made_ops, layers, skip):
        # Each upper layer joins the states below once and takes their h
        # columns, then joins the embedding block when skip is on.
        stack = lstm_stack(np.random.default_rng(41), layers, hidden=3, embed=2, skip=skip)
        for steps in (3, 8):
            ops = self.ops_of_run(made_ops, stack, steps)
            assert ops == Counter(gate_cell=steps * layers, concat=(layers - 1) * (1 + skip),
                                  slice_cols=layers - 1)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(family=st.sampled_from(["lstm", "lstmn", "lstmn-stack"]), skip=st.booleans(),
       capacity=st.sampled_from([None, 1, 2]), seed=st.integers(0, 2**16),
       rows=st.lists(st.integers(1, 4), min_size=1, max_size=6).map(
           lambda r: sorted(r, reverse=True)))
def test_each_row_of_a_packed_block_matches_its_batch_of_one(family, skip, capacity, seed, rows):
    # One packed-block run, its loss reading only row b's states, against
    # row b run alone: outputs, the block's gradient and every parameter
    # gradient agree, and no other row of the block gets a gradient, so
    # no step's row range reads a neighbour's rows.
    rng = np.random.default_rng(seed)
    stack = cells.init_stack(rng, 1 if family == "lstmn" else 2, 3, 2,
                             None if family == "lstm" else 2, skip=skip)
    params = list(stack.named().values())
    for p in params:
        p.data[...] = rng.normal(scale=0.7, size=p.data.shape)
    xd, read = rng.normal(size=(sum(rows), 2)), rng.normal(size=(sum(rows), 3))
    firsts = np.cumsum([0] + rows[:-1])

    def run(x_data, step_rows, weights):
        x = Tensor(x_data, requires_grad=True)
        zero_grad(params)
        out = run_stack(x, stack, capacity, rows=step_rows).packed()
        backward(ad.sum_all(ad.mul(out, Tensor(weights))), params=params + [x])
        return out.data, x.grad, [p.grad.copy() for p in params]

    for b in range(rows[0]):
        at = firsts[np.array(rows) > b] + b
        only_b = np.zeros_like(read)
        only_b[at] = read[at]
        out, gx, grads = run(xd, rows, only_b)
        alone, gx_alone, grads_alone = run(xd[at], [1] * len(at), read[at])
        np.testing.assert_allclose(out[at], alone, rtol=1e-10)
        np.testing.assert_allclose(gx[at], gx_alone, rtol=1e-10)
        assert not np.delete(gx, at, axis=0).any()
        for g, g_alone in zip(grads, grads_alone):
            np.testing.assert_allclose(g, g_alone, rtol=1e-10)
