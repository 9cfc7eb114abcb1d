"""Head tests: perplexity identities and pooling.  The classifier head is
tested through the models (``test_models.TestClassifierModels``)."""

import math

import numpy as np
import pytest

import oracles
from lstmn import autodiff as ad
from lstmn import optim
from lstmn.autodiff import Tensor
from lstmn.heads import (EvalMetrics, OutputProjection, init_output_projection, lm_loss,
                         mean_pool)


def identity_projection(vocab):
    return OutputProjection(w=Tensor(np.eye(vocab), requires_grad=True),
                            b=Tensor(np.zeros(vocab), requires_grad=True))


class TestLmLoss:
    def test_uniform_logits_ppl_equals_vocab(self):
        vocab, tokens = 10, 7
        proj = OutputProjection(w=Tensor(np.zeros((vocab, 3))),
                                b=Tensor(np.zeros(vocab)))
        hs = [Tensor(np.zeros((1, 3))) for _ in range(tokens)]
        targets = np.arange(tokens).reshape(1, tokens) % vocab
        nll, count, _ = lm_loss(hs, targets, np.ones(targets.shape), proj)
        metrics = EvalMetrics(nll=nll.item(), tokens=count)
        assert metrics.ppl == pytest.approx(vocab, abs=1e-8)

    def test_certain_logits_ppl_approaches_one(self):
        vocab = 6
        proj = identity_projection(vocab)
        targets = np.array([[2, 4]])
        hs = []
        for t in range(2):
            onehot = np.zeros((1, vocab))
            onehot[0, targets[0, t]] = 1e4   # huge margin stands in for +inf
            hs.append(Tensor(onehot))
        nll, count, _ = lm_loss(hs, targets, np.ones(targets.shape), proj)
        assert np.exp(nll.item() / count) == pytest.approx(1.0, abs=1e-9)

    def test_matches_per_token_summation_oracle(self):
        rng = np.random.default_rng(50)
        vocab, hidden, steps = 7, 4, 5
        proj = OutputProjection(w=Tensor(rng.normal(size=(vocab, hidden))),
                                b=Tensor(rng.normal(size=vocab)))
        hs_data = [rng.normal(size=(2, hidden)) for _ in range(steps)]
        targets = rng.integers(0, vocab, size=(2, steps))
        mask = (rng.random((2, steps)) > 0.3).astype(float)
        mask[:, 0] = 1.0
        nll, count, _ = lm_loss([Tensor(h) for h in hs_data], targets, mask, proj)
        expected = 0.0
        for t in range(steps):
            for b in range(2):
                if mask[b, t]:
                    logits = proj.w.data @ hs_data[t][b] + proj.b.data
                    expected += -np.log(oracles.softmax(logits)[targets[b, t]])
        assert nll.item() == pytest.approx(expected, abs=1e-10)
        assert count == int(mask.sum())

    def test_packed_block_matches_the_full_rows(self):
        # The block form the models pass: the live positions of rows sorted
        # longest first, step-major, against the full-row list of the same
        # states around padding.
        rng = np.random.default_rng(49)
        proj = OutputProjection(w=Tensor(rng.normal(size=(7, 4))), b=Tensor(rng.normal(size=7)))
        full = rng.normal(size=(3, 4, 4))
        targets = rng.integers(0, 7, size=(3, 4))
        mask = (np.arange(4) < np.array([[4], [3], [1]])).astype(float)
        block = Tensor(np.concatenate([full[:b, t] for t, b in enumerate([3, 2, 2, 1])]))
        nll, count, hits = lm_loss(block, targets, mask, proj)
        want = lm_loss([Tensor(full[:, t]) for t in range(4)], targets, mask, proj)
        assert (nll.item(), count, hits) == pytest.approx((want[0].item(),) + want[1:],
                                                         rel=1e-14)
        assert count == 8

    @pytest.mark.parametrize("form", ["step list", "block rows", "block mask"])
    def test_packed_states_of_other_rows_are_refused(self, form):
        # A per-step list must hold full rows, and a block needs exactly a
        # mask live in a prefix of each step's rows, one state per position.
        mask = np.array([[1.0, 1.0], [1.0, 0.0]])
        states = {"step list": [Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3)))],
                  "block rows": Tensor(np.ones((4, 3))),
                  "block mask": Tensor(np.ones((3, 3)))}[form]
        if form == "block mask":
            mask = mask[::-1]
        with pytest.raises(ad.ShapeMismatchError, match="lm_loss"):
            lm_loss(states, np.zeros((2, 2), dtype=int), mask, identity_projection(3))

    def test_masked_positions_do_not_change_loss(self):
        rng = np.random.default_rng(51)
        proj = OutputProjection(w=Tensor(rng.normal(size=(5, 3))),
                                b=Tensor(np.zeros(5)))
        hs = [Tensor(rng.normal(size=(1, 3))) for _ in range(3)]
        targets = np.array([[1, 2, 3]])
        mask = np.array([[1.0, 1.0, 0.0]])
        base, _, _ = lm_loss(hs, targets, mask, proj)
        mutated = targets.copy()
        mutated[0, 2] = 4   # padded target cell
        after, _, _ = lm_loss(hs, mutated, mask, proj)
        assert base.item() == after.item()

    def test_target_out_of_range(self):
        proj = identity_projection(3)
        with pytest.raises(IndexError):
            lm_loss([Tensor(np.zeros((1, 3)))], np.array([[3]]), np.ones((1, 1)), proj)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (2, 4)])
    def test_mask_of_another_shape_is_refused(self, shape):
        # A (3, 2) mask for (2, 3) targets would read live positions
        # transposed, and a (2, 2) one would drop the last step's tokens.
        hs = [Tensor(np.ones((2, 4))) for _ in range(3)]
        with pytest.raises(ad.ShapeMismatchError, match="mask"):
            lm_loss(hs, np.zeros((2, 3), dtype=int), np.ones(shape), identity_projection(4))

    def test_segmentation_invariance(self):
        # One stream vs the same stream split in two: identical total NLL
        # given identical hidden states (conditioning carried by caller).
        rng = np.random.default_rng(52)
        proj = OutputProjection(w=Tensor(rng.normal(size=(5, 3))),
                                b=Tensor(rng.normal(size=5)))
        hs = [Tensor(rng.normal(size=(1, 3))) for _ in range(6)]
        targets = rng.integers(0, 5, size=(1, 6))
        ones = np.ones(targets.shape)
        whole, n_whole, _ = lm_loss(hs, targets, ones, proj)
        first, n1, _ = lm_loss(hs[:4], targets[:, :4], ones[:, :4], proj)
        second, n2, _ = lm_loss(hs[4:], targets[:, 4:], ones[:, 4:], proj)
        assert whole.item() == pytest.approx(first.item() + second.item(), abs=1e-12)
        assert n_whole == n1 + n2


class TestPaddingLeak:
    """Padded positions are left out of the output layer: their states
    change nothing and receive an exact zero gradient."""
    VOCAB, HIDDEN, LENGTHS = 6, 4, (1, 7, 2)

    def setup_method(self):
        rng = np.random.default_rng(58)
        self.proj = OutputProjection(
            w=Tensor(rng.normal(size=(self.VOCAB, self.HIDDEN)), requires_grad=True),
            b=Tensor(rng.normal(size=self.VOCAB), requires_grad=True))
        self.seqs = [rng.normal(size=(n, self.HIDDEN)) for n in self.LENGTHS]
        # Every other target is the greedy choice, so hits are counted.
        self.tgts = [np.where(np.arange(n) % 2 == 0,
                              (seq @ self.proj.w.data.T + self.proj.b.data).argmax(axis=1),
                              rng.integers(0, self.VOCAB, size=n))
                     for n, seq in zip(self.LENGTHS, self.seqs)]
        steps = max(self.LENGTHS)
        self.mask = np.zeros((len(self.LENGTHS), steps))
        self.targets = np.zeros((len(self.LENGTHS), steps), dtype=np.int64)
        for i, n in enumerate(self.LENGTHS):
            self.mask[i, :n] = 1.0
            self.targets[i, :n] = self.tgts[i]

    def padded_states(self, pad_values):
        """Per-step (B, h) states: the sentences, and ``pad_values`` at
        padded positions."""
        block = pad_values.copy()
        for i, seq in enumerate(self.seqs):
            block[i, :len(seq)] = seq
        return [Tensor(block[:, t], requires_grad=True) for t in range(block.shape[1])]

    def test_padded_states_change_nothing_and_get_zero_gradient(self):
        rng = np.random.default_rng(59)
        shape = self.mask.shape + (self.HIDDEN,)
        losses, grads = [], []
        for pad in (np.zeros(shape), 1e3 * rng.normal(size=shape)):
            states = self.padded_states(pad)
            nll, count, _ = lm_loss(states, self.targets, self.mask, self.proj)
            ad.zero_grad([self.proj.w, self.proj.b])
            ad.backward(nll, params=states)
            losses.append(nll.item())
            grads.append(np.stack([h.grad for h in states], axis=1))
            assert count == sum(self.LENGTHS)
        assert losses[0] == losses[1]
        np.testing.assert_array_equal(grads[0], grads[1])
        assert np.all(grads[1][self.mask == 0] == 0.0)
        assert np.any(grads[1][self.mask == 1] != 0.0)

    def test_eval_of_padded_batch_matches_unpadded_sentences(self):
        pad = np.random.default_rng(60).normal(size=self.mask.shape + (self.HIDDEN,))
        nll, tokens, hits = lm_loss(self.padded_states(pad), self.targets, self.mask, self.proj)
        alone = [lm_loss([Tensor(row[None]) for row in seq], tgt[None], np.ones((1, len(tgt))),
                         self.proj)
                 for seq, tgt in zip(self.seqs, self.tgts)]
        assert nll.item() == pytest.approx(sum(a[0].item() for a in alone), rel=1e-12)
        assert tokens == sum(a[1] for a in alone) == sum(self.LENGTHS)
        assert hits == sum(a[2] for a in alone) >= 5

    def test_all_padding_gives_zero_loss_and_zero_gradients(self):
        states = self.padded_states(np.ones(self.mask.shape + (self.HIDDEN,)))
        nll, count, _ = lm_loss(states, self.targets, np.zeros_like(self.mask), self.proj)
        assert nll.item() == 0.0 and count == 0
        params = states + [self.proj.w, self.proj.b]
        ad.zero_grad(params)
        ad.backward(nll, params=params)
        for p in params:
            assert np.all(p.grad == 0.0)


def packed(full: np.ndarray, rows) -> Tensor:
    """The packed, step-major block of a batch whose rows are sorted
    longest first: step t's first rows[t] rows of ``full[:, t]``, step
    after step."""
    return Tensor(np.concatenate([full[:b, t] for t, b in enumerate(rows)]), requires_grad=True)


class TestPoolingAndClassify:
    def test_single_step_pool_is_that_vector(self):
        # Sorted rows [0, 1] are batch rows [1, 0]: each comes back in its
        # batch row.
        h = np.random.default_rng(53).normal(size=(2, 4))
        pooled = mean_pool(Tensor(h), [2], np.array([1, 0]))
        np.testing.assert_array_equal(pooled.data, h[::-1])

    def test_identical_steps_pool_to_same_vector(self):
        h = np.random.default_rng(54).normal(size=(3, 1, 2))
        pooled = mean_pool(packed(np.repeat(h, 4, axis=1), [3, 3, 2, 1]), [3, 3, 2, 1],
                           np.arange(3))
        np.testing.assert_allclose(pooled.data, h[:, 0], atol=1e-12)

    def test_pool_matches_arithmetic_mean_oracle(self):
        full = np.random.default_rng(55).normal(size=(3, 4, 2))
        lengths, order = [4, 3, 1], np.array([2, 0, 1])
        pooled = mean_pool(packed(full, [3, 2, 2, 1]), [3, 2, 2, 1], order)
        for r, n in enumerate(lengths):
            np.testing.assert_allclose(pooled.data[order[r]], full[r, :n].mean(axis=0),
                                       atol=1e-12)

    def test_pool_is_order_invariant(self):
        # Steps of equal row counts may swap: [2, 2, 2] then [1, 1].
        full = np.random.default_rng(56).normal(size=(2, 5, 3))
        rows, order = [2, 2, 2, 1, 1], np.arange(2)
        fwd = mean_pool(packed(full, rows), rows, order)
        rev = mean_pool(packed(full[:, [2, 1, 0, 4, 3]], rows), rows, order)
        np.testing.assert_allclose(fwd.data, rev.data, atol=1e-15)

    def test_steps_beyond_a_rows_count_never_enter_its_mean(self):
        # Row 1 ends after 2 of 3 steps: its mean and its gradients are
        # those of its own 2 steps, and step 3 has no row 1 to read.
        full = np.random.default_rng(57).normal(size=(2, 3, 3))
        states, order = packed(full, [2, 2, 1]), np.array([1, 0])
        pooled = mean_pool(states, [2, 2, 1], order)
        np.testing.assert_allclose(pooled.data[order[1]], full[1, :2].mean(axis=0), atol=1e-12)
        g = np.random.default_rng(58).normal(size=pooled.data.shape)
        ad.backward(ad.sum_all(ad.mul(pooled, Tensor(g))))
        ranks = np.array([0, 1, 0, 1, 0])
        counts = np.array([3.0, 2.0])[ranks, None]
        np.testing.assert_allclose(states.grad, g[order[ranks]] / counts, rtol=1e-15)

    @pytest.mark.parametrize("rows", [[1, 1, 1], [2, 2, 1]], ids=["full", "packed"])
    def test_float32_states_pool_in_float32(self, rows):
        ad.set_default_dtype(np.float32)
        try:
            hs = packed(np.full((rows[0], 3, 3), 0.5), rows)
        finally:
            ad.set_default_dtype(np.float64)
        pooled = mean_pool(hs, rows, np.arange(rows[0]))
        ad.backward(ad.sum_all(pooled))
        assert pooled.data.dtype == np.float32
        assert hs.grad.dtype == np.float32

    @pytest.mark.parametrize("rows", [[], [1, 1]])
    def test_a_row_with_no_position_is_refused(self, rows):
        with pytest.raises(ad.TapeError, match="no live token"):
            mean_pool(Tensor(np.ones((sum(rows), 2))), rows, np.arange(2))


def test_metrics_record_format():
    m = EvalMetrics(nll=230.2585, tokens=100, accuracy=0.5,
                    dataset="toy", split="val")
    rec = m.record()
    assert rec.startswith("dataset=toy split=val nll=230.258500 tokens=100")
    assert "ppl=" in rec and "accuracy=0.5000" in rec


def test_diverged_perplexity_is_inf():
    # exp overflows above ~709.78 nats per token; SGD reads inf as no
    # improvement and decays.
    m = EvalMetrics(nll=7200.0, tokens=10)
    assert m.ppl == math.inf and "ppl=inf" in m.record()
    opt = optim.Sgd([], lr=1.0, decay=0.5)
    opt.end_epoch(100.0)
    assert opt.end_epoch(m.ppl) is True and opt.lr == 0.5


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_output_weight_drawn_straight_into_column_major(dtype):
    # Several blocks of rows, the last one short: the values of one
    # row-major draw, the generator left where that draw leaves it.
    vocab, hidden = 1000, 300
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    ad.set_default_dtype(dtype)
    try:
        w = init_output_projection(rng, vocab, hidden).w.data
    finally:
        ad.set_default_dtype(np.float64)
    bound = np.sqrt(6.0 / (vocab + hidden))
    ref = ref_rng.uniform(-bound, bound, size=(vocab, hidden)).astype(dtype)
    assert w.flags.f_contiguous and not w.flags.c_contiguous and w.dtype == dtype
    assert w.tobytes(order="C") == ref.tobytes()
    assert rng.uniform() == ref_rng.uniform()
