"""Model-level tests: wiring, padding invariance, checkpoint naming."""

import numpy as np
import pytest

from lstmn import autodiff as ad
from lstmn import models
from lstmn.config import ConfigError, build_config
from lstmn.data import Batch, Vocabulary


def make_vocab(n_tokens=6):
    return Vocabulary([f"w{i}" for i in range(n_tokens)])


def cfg_for(**overrides):
    base = dict(task="lm", model="lstmn", hidden="6", embedding="4",
                train_data="unused")
    base.update({k: str(v) for k, v in overrides.items()})
    return build_config(overrides=base)


def lm_batch(vocab, rows):
    padded = []
    for row in rows:
        ids = vocab.encode(row)
        padded.append(np.concatenate(([vocab.bos], ids, [vocab.eos])))
    width = max(len(r) for r in padded)
    tokens = np.full((len(padded), width), vocab.pad, dtype=np.int64)
    mask = np.zeros((len(padded), width))
    for i, r in enumerate(padded):
        tokens[i, :len(r)] = r
        mask[i, :len(r)] = 1.0
    return Batch(tokens=tokens, mask=mask)


class TestLanguageModel:
    def test_padded_cells_never_contribute(self):
        # Mutating a padded token cell must leave the loss bit-identical.
        vocab = make_vocab()
        model = models.LanguageModel(cfg_for(), vocab, np.random.default_rng(1))
        batch = lm_batch(vocab, [["w0", "w1", "w2", "w3"], ["w4"]])
        base, _ = model.loss(batch)
        mutated = Batch(tokens=batch.tokens.copy(), mask=batch.mask)
        assert mutated.mask[1, 4] == 0.0
        mutated.tokens[1, 4] = vocab.token_to_index["w2"]
        after, _ = model.loss(mutated)
        assert base.item() == after.item()

    def test_param_names_follow_checkpoint_scheme(self):
        vocab = make_vocab()
        cfg = cfg_for(model="lstmn-stack", layers=3, skip_connections=True)
        model = models.LanguageModel(cfg, vocab, np.random.default_rng(2))
        names = set(model.params())
        assert {"embedding.weight", "output.W", "output.b",
                "layer1.W", "layer1.W_x", "layer2.W_l", "layer3.W_l",
                "layer1.v", "layer2.W_htilde", "layer3.attn_bias"} <= names
        assert "layer1.W_l" not in names and "layer2.W_x" not in names

    def test_loss_is_mean_per_token(self):
        vocab = make_vocab()
        model = models.LanguageModel(cfg_for(), vocab, np.random.default_rng(3))
        batch = lm_batch(vocab, [["w0", "w1"], ["w2", "w3", "w4"]])
        loss, stats = model.loss(batch)
        assert stats["tokens"] == 3 + 4   # per row: tokens + </s>
        assert loss.item() == pytest.approx(stats["nll"] / stats["tokens"])

    def test_evaluate_hits_match_per_step_argmax(self):
        vocab = make_vocab()
        model = models.LanguageModel(cfg_for(), vocab, np.random.default_rng(13))
        # "w5" after "w1" is this model's greedy guess: at least one hit.
        batch = lm_batch(vocab, [["w0", "w1", "w0", "w1", "w0"], ["w2"], ["w1", "w5"]])
        inputs, targets, mask = model._split(batch)
        hits = per_step_hits(model.proj, model._states(inputs), targets, mask)
        metrics = model.evaluate([batch])
        assert metrics.tokens == int(mask.sum()) and 0 < hits < metrics.tokens
        assert round(metrics.accuracy * metrics.tokens) == hits
        assert metrics.nll == pytest.approx(model.loss(batch)[1]["nll"], rel=1e-12)

    def test_stacked_lstmn_backward_frees_interior_and_matches_fd(self):
        vocab = make_vocab(3)
        cfg = cfg_for(model="lstmn-stack", layers=2, hidden=3, embedding=2,
                      skip_connections=True)
        model = models.LanguageModel(cfg, vocab, np.random.default_rng(16))
        batch = lm_batch(vocab, [["w0", "w1", "w1", "w2"], ["w2", "w0"]])
        params = model.params()
        # Generic weights: init zeroes v, whose zero scores leave the attention
        # gradients at 0, and small gradients drown in finite-difference noise.
        rng = np.random.default_rng(16)
        for t in params.values():
            t.data[...] = rng.standard_normal(t.data.shape)
        loss, _ = model.loss(batch)
        ad.zero_grad(params.values())
        ad.backward(loss, params=list(params.values()))
        interior = [t for t in graph_nodes(loss) if t._backward_fn and t is not loss]
        assert len(interior) > 100 and all(t.grad is None for t in interior)
        np.testing.assert_array_equal(loss.grad, np.ones(()))
        report = ad.grad_check(lambda: model.loss(batch)[0], params)
        assert report.passed, str(report)


def per_step_hits(proj, states, targets, mask) -> int:
    """Greedy hits from one projection per step: the evaluation oracle."""
    hits = 0
    for t, h in enumerate(states):
        pred = proj(h).data.argmax(axis=1)
        hits += int(((pred == targets[:, t]) & (mask[:, t] != 0)).sum())
    return hits


def graph_nodes(loss) -> list:
    """Every node the graph of ``loss`` reaches."""
    seen, stack, found = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            found.append(t)
            stack.extend(t._parents)
    return found


class TestSeq2Seq:
    def pair_batch(self, vocab, src_rows, tgt_rows):
        def block(rows):
            ids = [vocab.encode(r) for r in rows]
            width = max(len(r) for r in ids)
            tokens = np.full((len(ids), width), vocab.pad, dtype=np.int64)
            mask = np.zeros((len(ids), width))
            for i, r in enumerate(ids):
                tokens[i, :len(r)] = r
                mask[i, :len(r)] = 1.0
            return tokens, mask
        tokens, mask = block(src_rows)
        tokens2, mask2 = block(tgt_rows)
        return Batch(tokens=tokens, mask=mask, tokens2=tokens2, mask2=mask2)

    def test_teacher_forcing_io_shift(self):
        vocab = make_vocab()
        cfg = cfg_for(model="seq2seq-deep", optimizer="adam")
        model = models.Seq2SeqModel(cfg, vocab, np.random.default_rng(4))
        batch = self.pair_batch(vocab, [["w0", "w1"]], [["w2", "w3"]])
        inputs, targets, mask = model._decoder_io(batch)
        w2, w3 = vocab.encode(["w2", "w3"])
        assert inputs.tolist() == [[vocab.bos, w2, w3]]
        assert targets.tolist() == [[w2, w3, vocab.eos]]
        assert mask.tolist() == [[1.0, 1.0, 1.0]]

    def test_padded_target_rows_masked(self):
        vocab = make_vocab()
        cfg = cfg_for(model="seq2seq-shallow", optimizer="adam")
        model = models.Seq2SeqModel(cfg, vocab, np.random.default_rng(5))
        batch = self.pair_batch(vocab, [["w0"], ["w1"]], [["w2", "w3", "w4"], ["w5"]])
        _, targets, mask = model._decoder_io(batch)
        assert mask[1].tolist() == [1.0, 1.0, 0.0, 0.0]
        assert targets[1, 1] == vocab.eos

    def test_padded_source_cells_never_contribute(self):
        vocab = make_vocab()
        cfg = cfg_for(model="seq2seq-deep", optimizer="adam")
        model = models.Seq2SeqModel(cfg, vocab, np.random.default_rng(6))
        batch = self.pair_batch(vocab, [["w0", "w1", "w2"], ["w3"]],
                                [["w0"], ["w1"]])
        base, _ = model.loss(batch)
        mutated = self.pair_batch(vocab, [["w0", "w1", "w2"], ["w3"]],
                                  [["w0"], ["w1"]])
        assert mutated.mask[1, 2] == 0.0
        mutated.tokens[1, 2] = vocab.token_to_index["w5"]
        after, _ = model.loss(mutated)
        assert base.item() == after.item()

    def test_evaluate_hits_match_per_step_argmax(self):
        vocab = make_vocab()
        cfg = cfg_for(model="seq2seq-shallow", optimizer="adam")
        model = models.Seq2SeqModel(cfg, vocab, np.random.default_rng(15))
        # "w0" and "w4" are this model's first greedy outputs: some hits.
        batch = self.pair_batch(vocab, [["w0", "w1", "w2"], ["w3"], ["w4", "w5"]],
                                [["w0", "w1", "w1", "w2"], ["w4"], ["w3", "w1"]])
        run, _, targets, mask = model._decode(batch)
        hits = per_step_hits(model.proj, run.outputs, targets, mask)
        metrics = model.evaluate([batch])
        assert metrics.tokens == int(mask.sum()) and 0 < hits < metrics.tokens
        assert round(metrics.accuracy * metrics.tokens) == hits
        assert metrics.nll == pytest.approx(model.loss(batch)[1]["nll"], rel=1e-12)

    def test_generate_stops_at_eos_or_cap(self):
        vocab = make_vocab()
        cfg = cfg_for(model="seq2seq-deep", optimizer="adam")
        model = models.Seq2SeqModel(cfg, vocab, np.random.default_rng(7))
        out = model.generate(vocab.encode(["w0", "w1"]), max_len=5)
        assert len(out) <= 5
        assert all(0 <= t < len(vocab) for t in out)

    def test_params_have_encoder_decoder_prefixes(self):
        vocab = make_vocab()
        cfg = cfg_for(model="seq2seq-deep", optimizer="adam")
        model = models.Seq2SeqModel(cfg, vocab, np.random.default_rng(8))
        names = set(model.params())
        assert {"encoder.layer1.W", "decoder.layer1.W", "decoder.inter.u",
                "decoder.inter.W_gamma", "decoder.inter.W_x",
                "decoder.inter.W_gammatilde", "decoder.inter.W_r"} <= names


class TestClassifierModels:
    def test_sentence_classifier_padding_invariance(self):
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task="sentiment", model="lstmn",
                                          hidden="6", embedding="4"))
        model = models.SentenceClassifier(cfg, vocab, np.random.default_rng(9))
        tokens = np.array([[1, 2, 3], [4, 0, 0]], dtype=np.int64) + 3
        tokens[1, 1:] = vocab.pad
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        batch = Batch(tokens=tokens, mask=mask, labels=np.array([0, 1]))
        base, _ = model.loss(batch)
        tokens2 = tokens.copy()
        tokens2[1, 2] = 5
        after, _ = model.loss(Batch(tokens=tokens2, mask=mask,
                                    labels=np.array([0, 1])))
        assert base.item() == after.item()

    def test_nli_rejects_plain_lstm(self):
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task="nli", model="lstm",
                                          hidden="6", embedding="4"))
        with pytest.raises(ConfigError):
            models.PairClassifier(cfg, vocab, np.random.default_rng(10))

    def test_pair_prefixes_tied_vs_untied(self):
        vocab = make_vocab()
        untied = build_config(overrides=dict(task="nli", model="lstmn",
                                             hidden="6", embedding="4"))
        m1 = models.PairClassifier(untied, vocab, np.random.default_rng(11))
        assert any(n.startswith("premise.") for n in m1.params())
        assert any(n.startswith("hypothesis.") for n in m1.params())
        tied = build_config(overrides=dict(task="nli", model="lstmn",
                                           hidden="6", embedding="4",
                                           tie_encoders="true"))
        m2 = models.PairClassifier(tied, vocab, np.random.default_rng(12))
        assert any(n.startswith("encoder.") for n in m2.params())
        assert not any(n.startswith("premise.") for n in m2.params())
        assert len(m2.params()) < len(m1.params())
