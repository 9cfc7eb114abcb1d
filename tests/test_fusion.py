"""Fusion tests: encoder oracle, inter-attention formula, decoder identities."""

import numpy as np
import pytest

import oracles
from lstmn import autodiff as ad
from lstmn import cells, fusion
from lstmn.autodiff import Tensor, grad_check
from lstmn.cells import TapeError, Tapes
from lstmn.fusion import (
    DecoderState,
    DecoderWeights,
    InterAttentionWeights,
    SourceTapes,
    encode,
    inter_attend,
    run_decoder,
)


def read_source(x, src, gamma_tilde_prev, w):
    """``inter_attend`` over the source tape that ``source_projection``
    packs, its summary block cut into (gamma~, alpha~, weights)."""
    summary, weights = inter_attend(x, fusion.source_projection(src, w), gamma_tilde_prev, w,
                                    src.mask)
    hidden = src.y.data.shape[2]
    return summary.data[:, :hidden], summary.data[:, hidden:], weights


def row(vec):
    return Tensor(np.asarray(vec, dtype=np.float64)[None, :])


def randomize(rng, tensors, scale=0.8):
    for t in tensors:
        if t is not None:
            t.data[...] = rng.normal(scale=scale, size=t.data.shape)


def random_encoder(rng, hidden, embed, attn, layers=1):
    stack = cells.init_stack(rng, layers, hidden, embed, attn)
    for layer in stack.layers:
        randomize(rng, [layer.gates.w, layer.gates.bias, layer.attn.v,
                        layer.attn.w_h, layer.attn.w_x, layer.attn.w_htilde,
                        layer.attn.bias])
    return stack


def random_decoder(rng, hidden, embed, attn):
    dec = fusion.init_decoder(rng, hidden, embed, attn)
    randomize(rng, [dec.cell.gates.w, dec.cell.gates.bias, dec.cell.attn.v,
                    dec.cell.attn.w_h, dec.cell.attn.w_x, dec.cell.attn.w_htilde,
                    dec.cell.attn.bias, dec.inter.u, dec.inter.w_gamma,
                    dec.inter.w_x, dec.inter.w_gammatilde, dec.inter.w_r])
    return dec


def encode_ref(xs, layer):
    """Source tapes via the straight-line cell oracle (single layer)."""
    H, C = [], []
    hp = np.zeros(layer.gates.hidden_size)
    args = dict(W=layer.gates.w.data, b=layer.gates.bias.data,
                v=layer.attn.v.data, w_h=layer.attn.w_h.data,
                w_x=layer.attn.w_x.data, w_ht=layer.attn.w_htilde.data,
                bias=layer.attn.bias.data)
    for x in xs:
        h, c, _, ht, _ = oracles.lstmn_step_ref(x, H, C, hp, **args)
        H.append(h)
        C.append(c)
        hp = ht
    return H, C


class TestEncode:
    def test_length_one_source(self):
        rng = np.random.default_rng(30)
        enc = random_encoder(rng, 2, 2, 2)
        src, traces = encode([row(rng.normal(size=2))], enc)
        assert src.length == 1
        assert src.y.data.shape == (1, 1, 2)
        assert traces[0] is None   # no attention at the first step

    def test_zero_weights_zero_tapes(self):
        enc = cells.init_stack(np.random.default_rng(0), 1, 2, 2, 2)
        for t in (enc.layers[0].gates.w, enc.layers[0].gates.bias):
            t.data[...] = 0.0
        src, _ = encode([row([0.5, -0.5]), row([1.0, 2.0])], enc)
        np.testing.assert_array_equal(src.y.data, np.zeros((1, 2, 2)))
        np.testing.assert_array_equal(src.a.data, np.zeros((1, 2, 2)))

    def test_matches_stepwise_oracle(self):
        rng = np.random.default_rng(31)
        enc = random_encoder(rng, 2, 2, 2)
        xs = [rng.normal(size=2) for _ in range(3)]
        src, _ = encode([row(x) for x in xs], enc)
        H, C = encode_ref(xs, enc.layers[0])
        np.testing.assert_allclose(src.y.data[0], np.stack(H), atol=1e-12)
        np.testing.assert_allclose(src.a.data[0], np.stack(C), atol=1e-12)

    @pytest.mark.parametrize("capacity", [None, 2])
    def test_tape_read_is_bit_equal_to_stacked_states(self, capacity):
        # y and a are column slices of the top tape, which keeps every
        # step however short the attention window.
        rng = np.random.default_rng(33)
        enc = random_encoder(rng, 3, 2, 2, layers=2)
        xs = [Tensor(rng.normal(size=(2, 2))) for _ in range(5)]
        src, _ = encode(xs, enc, capacity)
        run = cells.run_stack(xs, enc, capacity)
        assert src.y.data.tobytes() == np.stack([h.data for h in run.top_h], axis=1).tobytes()
        assert src.a.data.tobytes() == np.stack([c.data for c in run.top_c], axis=1).tobytes()

    def test_lstm_top_layer_has_no_tape_to_read(self):
        stack = cells.init_stack(np.random.default_rng(0), 1, 2, 2, attn_size=None)
        run = cells.run_stack([row([0.5, -0.5])], stack)
        with pytest.raises(TapeError, match="no tape"):
            run.tape_states()

    def test_empty_source_rejected(self):
        enc = cells.init_stack(np.random.default_rng(0), 1, 2, 2, 2)
        with pytest.raises(TapeError, match="empty"):
            encode([], enc)


class TestInterAttend:
    def test_zero_u_uniform(self):
        rng = np.random.default_rng(32)
        dec = fusion.init_decoder(rng, 2, 2, 3)   # u stays zero
        src = SourceTapes(y=Tensor(rng.normal(size=(1, 4, 2))),
                          a=Tensor(rng.normal(size=(1, 4, 2))))
        _, _, weights = read_source(row(rng.normal(size=2)), src,
                                    Tensor(np.zeros((1, 2))), dec.inter)
        np.testing.assert_allclose(weights[0], np.full(4, 0.25), atol=1e-12)

    def test_singleton_source(self):
        rng = np.random.default_rng(33)
        dec = random_decoder(rng, 2, 2, 3)
        y = rng.normal(size=(1, 1, 2))
        a = rng.normal(size=(1, 1, 2))
        gamma_tilde, alpha_tilde, weights = read_source(
            row(rng.normal(size=2)), SourceTapes(y=Tensor(y), a=Tensor(a)),
            Tensor(np.zeros((1, 2))), dec.inter)
        np.testing.assert_array_equal(weights, [[1.0]])
        np.testing.assert_array_equal(gamma_tilde, y[:, 0])
        np.testing.assert_array_equal(alpha_tilde, a[:, 0])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(34)
        dec = random_decoder(rng, 3, 2, 2)
        Y = [rng.normal(size=3) for _ in range(3)]
        A = [rng.normal(size=3) for _ in range(3)]
        x, gprev = rng.normal(size=2), rng.normal(size=3)
        src = SourceTapes(y=Tensor(np.stack(Y)[None]), a=Tensor(np.stack(A)[None]))
        gamma_tilde, alpha_tilde, weights = read_source(row(x), src, row(gprev), dec.inter)
        w = dec.inter
        p_ref, g_ref, a_ref = oracles.inter_attend_ref(
            x, Y, A, gprev, w.u.data, w.w_gamma.data, w.w_x.data, w.w_gammatilde.data)
        np.testing.assert_allclose(weights[0], p_ref, atol=1e-12)
        np.testing.assert_allclose(gamma_tilde[0], g_ref, atol=1e-12)
        np.testing.assert_allclose(alpha_tilde[0], a_ref, atol=1e-12)

    def test_masked_source_slots_get_zero_weight(self):
        rng = np.random.default_rng(35)
        dec = random_decoder(rng, 2, 2, 2)
        src = SourceTapes(y=Tensor(rng.normal(size=(2, 3, 2))),
                          a=Tensor(rng.normal(size=(2, 3, 2))),
                          mask=np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))
        _, _, weights = read_source(Tensor(rng.normal(size=(2, 2))), src,
                                    Tensor(np.zeros((2, 2))), dec.inter)
        assert weights[0, 2] == 0.0
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)


    def test_padded_source_matches_oracle_on_unpadded_slots(self):
        rng = np.random.default_rng(47)
        dec = random_decoder(rng, 3, 2, 2)
        y, a = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
        lengths = [2, 4]
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        x, gprev = rng.normal(size=(2, 2)), rng.normal(size=(2, 3))
        gamma_tilde, alpha_tilde, weights = read_source(
            Tensor(x), SourceTapes(y=Tensor(y), a=Tensor(a), mask=mask), Tensor(gprev), dec.inter)
        w = dec.inter
        for b, n in enumerate(lengths):
            p_ref, g_ref, a_ref = oracles.inter_attend_ref(
                x[b], list(y[b, :n]), list(a[b, :n]), gprev[b], w.u.data,
                w.w_gamma.data, w.w_x.data, w.w_gammatilde.data)
            np.testing.assert_allclose(weights[b, :n], p_ref, atol=1e-12)
            np.testing.assert_array_equal(weights[b, n:], 0.0)
            np.testing.assert_allclose(gamma_tilde[b], g_ref, atol=1e-12)
            np.testing.assert_allclose(alpha_tilde[b], a_ref, atol=1e-12)

    def test_fully_masked_row_rejected(self):
        rng = np.random.default_rng(48)
        dec = random_decoder(rng, 2, 2, 2)
        src = SourceTapes(y=Tensor(rng.normal(size=(2, 3, 2))),
                          a=Tensor(rng.normal(size=(2, 3, 2))),
                          mask=np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(ad.ShapeMismatchError, match="no unmasked"):
            read_source(Tensor(rng.normal(size=(2, 2))), src,
                        Tensor(np.zeros((2, 2))), dec.inter)

    def test_empty_source_rejected(self):
        dec = fusion.init_decoder(np.random.default_rng(0), 2, 2, 2)
        src = SourceTapes(y=Tensor(np.zeros((1, 0, 2))), a=Tensor(np.zeros((1, 0, 2))))
        with pytest.raises(TapeError, match="non-empty source"):
            DecoderState(src, dec, "deep")


class TestDeepDecode:
    def test_zero_weights_zero_state(self):
        # r = sigma(0) = 0.5 everywhere, but the zero encoder gives
        # alpha~ = 0, so the new memory is exactly zero.
        rng = np.random.default_rng(36)
        dec = fusion.init_decoder(rng, 2, 2, 2)
        for t in (dec.cell.gates.w, dec.cell.gates.bias, dec.inter.w_r,
                  dec.inter.w_gamma, dec.inter.w_x, dec.inter.w_gammatilde):
            t.data[...] = 0.0
        src = SourceTapes(y=Tensor(np.zeros((1, 2, 2))), a=Tensor(np.zeros((1, 2, 2))))
        decoder = DecoderState(src, dec, "deep")
        decoder.step(row([0.7, -0.3]))
        np.testing.assert_array_equal(decoder.state.c.data, np.zeros((1, 2)))
        np.testing.assert_array_equal(decoder.state.h.data, np.zeros((1, 2)))
        # A unit source memory gives alpha~ = 1, and c-hat = tanh(0) = 0,
        # so c = r * alpha~ is the gate itself.
        src = SourceTapes(y=Tensor(np.zeros((1, 2, 2))), a=Tensor(np.ones((1, 2, 2))))
        decoder = DecoderState(src, dec, "deep")
        decoder.step(row([0.7, -0.3]))
        np.testing.assert_allclose(decoder.state.c.data, np.full((1, 2), 0.5))

    def test_first_step_singleton_source_closed_form(self):
        # Empty target tape kills the intra terms: c = r*alpha_1 + i*c-hat.
        rng = np.random.default_rng(37)
        dec = random_decoder(rng, 3, 2, 2)
        y = rng.normal(size=(1, 1, 3))
        a = rng.normal(size=(1, 1, 3))
        x = rng.normal(size=2)
        decoder = DecoderState(SourceTapes(y=Tensor(y), a=Tensor(a)), dec, "deep")
        decoder.step(row(x))
        state = decoder.state
        i, f, o, chat = oracles.gate_blocks(
            np.zeros(3), x, dec.cell.gates.w.data, dec.cell.gates.bias.data)
        r = oracles.sigmoid(dec.inter.w_r.data @ np.concatenate([y[0, 0], x]))
        c_ref = r * a[0, 0] + i * chat
        np.testing.assert_allclose(state.c.data[0], c_ref, atol=1e-12)
        np.testing.assert_allclose(state.h.data[0], o * np.tanh(c_ref), atol=1e-12)

    def test_matches_straight_line_oracle_over_steps(self):
        rng = np.random.default_rng(38)
        dec = random_decoder(rng, 3, 2, 2)
        Y = [rng.normal(size=3) for _ in range(3)]
        A = [rng.normal(size=3) for _ in range(3)]
        src = SourceTapes(y=Tensor(np.stack(Y)[None]), a=Tensor(np.stack(A)[None]))
        xs = [rng.normal(size=2) for _ in range(3)]
        decoder = DecoderState(src, dec, "deep")
        H, C = [], []
        hp, gp = np.zeros(3), np.zeros(3)
        for x in xs:
            _, inter = decoder.step(row(x))
            state = decoder.state
            # c_ref = r_ref * a_ref + f * c~ + i * c-hat: the c check pins
            # the transfer gate r.
            h_ref, c_ref, w_ref, p_ref, r_ref, ht_ref, g_ref, a_ref = \
                oracles.deep_decode_step_ref(
                    x, H, C, hp, Y, A, gp,
                    dec.cell.gates.w.data, dec.cell.gates.bias.data,
                    dec.cell.attn.v.data, dec.cell.attn.w_h.data, dec.cell.attn.w_x.data,
                    dec.cell.attn.w_htilde.data, dec.cell.attn.bias.data,
                    dec.inter.u.data, dec.inter.w_gamma.data, dec.inter.w_x.data,
                    dec.inter.w_gammatilde.data, dec.inter.w_r.data)
            np.testing.assert_allclose(state.h.data[0], h_ref, atol=1e-12)
            np.testing.assert_allclose(state.c.data[0], c_ref, atol=1e-12)
            np.testing.assert_allclose(inter[0], p_ref, atol=1e-12)
            H.append(h_ref)
            C.append(c_ref)
            hp, gp = ht_ref, g_ref

    def test_end_to_end_gradients(self):
        rng = np.random.default_rng(39)
        enc = random_encoder(rng, 2, 2, 2)
        dec = random_decoder(rng, 2, 2, 2)
        src_x = [rng.normal(size=(1, 2)) for _ in range(3)]
        tgt_x = [rng.normal(size=(1, 2)) for _ in range(3)]
        read = [rng.normal(size=(1, 2)) for _ in range(3)]
        params = dict(enc.named("encoder."))
        params.update(dec.named("decoder."))

        def loss():
            src, _ = encode([Tensor(x) for x in src_x], enc)
            run = run_decoder([Tensor(x) for x in tgt_x], src, dec, "deep")
            total = None
            for h, r in zip(run.outputs, read):
                term = ad.sum_all(ad.mul(h, Tensor(r)))
                total = term if total is None else ad.add(total, term)
            return total

        report = grad_check(loss, params, tolerance=1e-4)
        assert report.passed, str(report)


class TestNodeCounts:
    """Graph nodes per decode step: greedy decoding at B=1 pays a fixed
    cost per node, so the deep step's count is pinned."""

    @pytest.mark.parametrize("mode,ops", [
        # Inter- and intra-attention, the fused cell with the transfer
        # gate, the slot's key, read from the [h | c] block's h columns,
        # and the one tape write of its values and key; the prediction
        # input is that block, which the output projection reads in its
        # h columns.
        ("deep", ["gate_cell", "linear", "tape_attend", "tape_attend", "tape_write"]),
        # The same without the transfer gate, plus h and gamma~ cut from
        # their blocks and joined for the prediction input.
        ("shallow", ["concat", "gate_cell", "linear", "slice_cols", "slice_cols",
                     "tape_attend", "tape_attend", "tape_write"])])
    def test_step_after_the_first(self, made_ops, mode, ops):
        rng = np.random.default_rng(49)
        dec = random_decoder(rng, 3, 2, 2)
        src = SourceTapes(y=Tensor(rng.normal(size=(1, 4, 3))),
                          a=Tensor(rng.normal(size=(1, 4, 3))))
        with ad.no_grad():
            decoder = DecoderState(src, dec, mode)
            decoder.step(row(rng.normal(size=2)))
            made_ops.clear()
            decoder.step(row(rng.normal(size=2)))
            decoder.features()
        assert sorted(made_ops) == ops


class TestShallowDecode:
    def test_zero_weights_prediction_input_zero(self):
        rng = np.random.default_rng(40)
        dec = fusion.init_decoder(rng, 2, 2, 2)
        for t in (dec.cell.gates.w, dec.cell.gates.bias,
                  dec.inter.w_gamma, dec.inter.w_x, dec.inter.w_gammatilde):
            t.data[...] = 0.0
        src = SourceTapes(y=Tensor(np.zeros((1, 2, 2))), a=Tensor(np.zeros((1, 2, 2))))
        decoder = DecoderState(src, dec, "shallow")
        decoder.step(row([1.0, 1.0]))
        context = decoder.features()
        np.testing.assert_array_equal(context.data, np.zeros((1, 4)))

    def test_singleton_source_context_is_that_slot(self):
        rng = np.random.default_rng(41)
        dec = random_decoder(rng, 2, 2, 2)
        y = rng.normal(size=(1, 1, 2))
        src = SourceTapes(y=Tensor(y), a=Tensor(rng.normal(size=(1, 1, 2))))
        decoder = DecoderState(src, dec, "shallow")
        decoder.step(row(rng.normal(size=2)))
        context = decoder.features()
        np.testing.assert_array_equal(context.data[:, 2:], y[:, 0])

    def test_cell_update_is_plain_tape_step(self):
        rng = np.random.default_rng(42)
        dec = random_decoder(rng, 3, 2, 2)
        src = SourceTapes(y=Tensor(rng.normal(size=(1, 2, 3))),
                          a=Tensor(rng.normal(size=(1, 2, 3))))
        xs = [row(rng.normal(size=2)) for _ in range(3)]
        t_ref = Tapes()
        ht_r = Tensor(np.zeros((1, 3)))
        decoder = DecoderState(src, dec, "shallow")
        for x in xs:
            s_ref, ht_r, _ = cells.lstmn_step(x, t_ref, ht_r, dec.cell)
            decoder.step(x)
            np.testing.assert_array_equal(decoder.state.h.data, s_ref.h.data)
            np.testing.assert_array_equal(decoder.state.c.data, s_ref.c.data)

    def test_end_to_end_gradients(self):
        rng = np.random.default_rng(43)
        enc = random_encoder(rng, 2, 2, 2)
        dec = random_decoder(rng, 2, 2, 2)
        src_x = [rng.normal(size=(1, 2)) for _ in range(3)]
        tgt_x = [rng.normal(size=(1, 2)) for _ in range(3)]
        read = [rng.normal(size=(1, 4)) for _ in range(3)]
        params = dict(enc.named("encoder."))
        params.update(dec.named("decoder."))

        def loss():
            src, _ = encode([Tensor(x) for x in src_x], enc)
            run = run_decoder([Tensor(x) for x in tgt_x], src, dec, "shallow")
            total = None
            for ctx, r in zip(run.outputs, read):
                term = ad.sum_all(ad.mul(ctx, Tensor(r)))
                total = term if total is None else ad.add(total, term)
            return total

        report = grad_check(loss, params, tolerance=1e-4)
        assert report.passed, str(report)


class TestFusionIdentities:
    def _run_deep(self, dec, src, xs):
        """Every step's h and c: a zero transfer term r * a~ leaves c
        bit-equal to the update without it."""
        decoder = DecoderState(src, dec, "deep", length=len(xs))
        hs, cs = [], []
        for x in xs:
            decoder.step(x)
            hs.append(decoder.state.h.data)
            cs.append(decoder.state.c.data)
        return np.stack(hs), np.stack(cs)

    def test_zero_source_memory_reproduces_plain_decoder(self):
        # A zero source memory a makes a~ and the transfer term r * a~
        # exactly 0, collapsing c = r*a~ + f*c~ + i*c-hat term-by-term onto
        # the plain update, whatever the gate r.
        rng = np.random.default_rng(44)
        dec = random_decoder(rng, 3, 2, 2)
        src = SourceTapes(y=Tensor(rng.normal(size=(1, 3, 3))), a=Tensor(np.zeros((1, 3, 3))))
        xs = [row(rng.normal(size=2)) for _ in range(4)]
        deep_hs, deep_cs = self._run_deep(dec, src, xs)
        tapes = Tapes()
        ht = Tensor(np.zeros((1, 3)))
        plain_hs, plain_cs = [], []
        for x in xs:
            state, ht, _ = cells.lstmn_step(x, tapes, ht, dec.cell)
            plain_hs.append(state.h.data.copy())
            plain_cs.append(state.c.data.copy())
        np.testing.assert_array_equal(deep_cs, np.stack(plain_cs))
        np.testing.assert_array_equal(deep_hs, np.stack(plain_hs))

    def test_deep_equals_shallow_when_transfer_zero_and_context_severed(self):
        rng = np.random.default_rng(46)
        dec = random_decoder(rng, 3, 2, 2)
        src = SourceTapes(y=Tensor(rng.normal(size=(1, 4, 3))), a=Tensor(np.zeros((1, 4, 3))))
        xs = [row(rng.normal(size=2)) for _ in range(4)]
        deep_hs, deep_cs = self._run_deep(dec, src, xs)
        shallow = DecoderState(src, dec, "shallow")
        shallow_hs, shallow_cs = [], []
        for x in xs:
            # Sever the context path: keep only the h half of each output.
            shallow.step(x)
            shallow_hs.append(shallow.features().data[:, :3])
            shallow_cs.append(shallow.state.c.data)
        np.testing.assert_array_equal(deep_cs, np.stack(shallow_cs))
        np.testing.assert_array_equal(deep_hs, np.stack(shallow_hs))

    def test_inter_distribution_over_m_slots_every_step(self):
        rng = np.random.default_rng(45)
        enc = random_encoder(rng, 2, 2, 2)
        dec = random_decoder(rng, 2, 2, 2)
        src, _ = encode([Tensor(rng.normal(size=(2, 2))) for _ in range(4)], enc)
        run = run_decoder([Tensor(rng.normal(size=(2, 2))) for _ in range(5)],
                          src, dec, "deep")
        for weights in run.inter:
            assert weights.shape == (2, 4)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
            assert (weights >= 0).all()
