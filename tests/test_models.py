"""Model-level tests: wiring, padding invariance, checkpoint naming."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from lstmn import autodiff as ad
from lstmn import models, optim, train
from lstmn.cells import TapeError
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

    def test_lstm_stack_applies_skip_connections(self):
        cfg = cfg_for(model="lstm", layers=2, hidden=3, embedding=2, skip_connections=True)
        params = models.LanguageModel(cfg, make_vocab(), np.random.default_rng(2)).params()
        assert params["layer2.W"].data.shape == (4 * 3, 2 * 3 + 2)
        assert not any(name.startswith("layer") and name.split(".")[1] not in ("W", "bias")
                       for name in params)

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
        states, targets, mask = model._predict(batch)
        hits = per_step_hits(model.proj, states, targets, mask)
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
        interior = [t for t in graph_nodes(loss) if t._backward_fn and t is not loss]
        # One fused gate-cell node per layer per step.
        steps = batch.tokens.shape[1] - 1
        gate_cells = [t for t in interior
                      if t._backward_fn.__qualname__.startswith("gate_cell.")]
        assert len(gate_cells) == cfg.layers * steps == 10
        ad.zero_grad(params.values())
        ad.backward(loss, params=list(params.values()))
        # Every interior node frees its gradient, and its closure with the
        # forward state it held, once it has run.
        assert all(t.grad is None and t._backward_fn is None for t in interior)
        np.testing.assert_array_equal(loss.grad, np.ones(()))
        report = ad.grad_check(lambda: model.loss(batch)[0], params)
        assert report.passed, str(report)


@pytest.mark.parametrize("name,per_token", [
    # A tape step per layer (read, gate cell, key, write); the second
    # layer's input block and the loss's states are formed once.
    ("lstmn", 4), ("lstmn-stack", 8), ("lstm", 2)])
def test_one_sentence_eval_nodes_per_token_do_not_grow_with_its_length(name, per_token,
                                                                        made_ops):
    # The B = 1 evaluation that greedy next-token prediction runs: its
    # nodes are a fixed count per token plus a count per sentence.
    vocab = make_vocab()
    extra = {"lstmn": {}, "lstmn-stack": dict(layers=2, skip_connections=True),
             "lstm": dict(layers=2)}[name]
    model = models.LanguageModel(cfg_for(model=name, **extra), vocab, np.random.default_rng(18))
    fixed = set()
    for length in (3, 7, 20):
        made_ops.clear()
        model.evaluate([lm_batch(vocab, [["w1"] * length])])
        fixed.add(len(made_ops) - per_token * (length + 1))
    assert len(fixed) == 1 and fixed.pop() <= 8


def packed_steps(states, mask) -> list:
    """The per-step (B_t, h) states of the packed, step-major block that
    ``_predict`` returns, B_t the live rows of mask column t."""
    rows = (np.asarray(mask) != 0).sum(axis=0)
    return [ad.Tensor(s) for s in np.split(states.data, np.cumsum(rows)[:-1])]


def per_step_hits(proj, states, targets, mask) -> int:
    """Greedy hits from one projection per step: the evaluation oracle.
    Step t's states are packed, the first rows of targets and mask."""
    hits = 0
    for t, h in enumerate(packed_steps(states, mask)):
        pred = proj(h).data.argmax(axis=1)
        rows = len(pred)
        hits += int(((pred == targets[:rows, t]) & (mask[:rows, t] != 0)).sum())
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
        states, targets, mask = model._predict(batch)
        hits = per_step_hits(model.proj, states, targets, mask)
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

    def test_greedy_token_makes_seven_nodes(self, monkeypatch):
        # One generated token after the first: its embedding lookup, the
        # five nodes of a deep decode step and the output projection,
        # which reads h_t as the first columns of the [h_t | c_t] block.
        vocab = make_vocab()
        model = models.Seq2SeqModel(cfg_for(model="seq2seq-deep", optimizer="adam"), vocab,
                                    np.random.default_rng(17))
        model.proj.b.data[vocab.eos] = -1e3   # </s> never wins: no early stop
        ops = []
        make = ad._make

        def counting(data, parents, backward_fn, op, *args, **kwargs):
            ops.append(op)
            return make(data, parents, backward_fn, op, *args, **kwargs)

        monkeypatch.setattr(ad, "_make", counting)
        src = vocab.encode(["w0", "w1", "w2"])
        made = []
        for max_len in (2, 3):
            ops.clear()
            assert len(model.generate(src, max_len=max_len)) == max_len
            made.append(list(ops))
        assert made[1][:len(made[0])] == made[0]
        assert sorted(made[1][len(made[0]):]) == [
            "gate_cell", "linear", "linear", "lookup", "tape_attend", "tape_attend",
            "tape_write"]

    def test_gradients_through_the_encoder_tape_read(self):
        # encode -> run_decoder -> loss on a tiny deep-fusion model: two
        # encoder layers, a capacity shorter than the source, padded rows.
        vocab = make_vocab(3)
        cfg = cfg_for(model="seq2seq-deep", optimizer="adam", hidden=2, embedding=2,
                      attention=2, layers=2, capacity=2)
        rng = np.random.default_rng(16)
        model = models.Seq2SeqModel(cfg, vocab, rng)
        params = model.params()
        for t in params.values():
            t.data[...] = rng.normal(size=t.data.shape)
        batch = self.pair_batch(vocab, [["w0", "w1", "w2", "w0"], ["w2", "w1"]],
                                [["w1", "w0", "w2"], ["w2"]])
        report = ad.grad_check(lambda: model.loss(batch)[0], params, tolerance=1e-4)
        assert report.passed, str(report)

    def test_params_have_encoder_decoder_prefixes(self):
        vocab = make_vocab()
        cfg = cfg_for(model="seq2seq-deep", optimizer="adam")
        model = models.Seq2SeqModel(cfg, vocab, np.random.default_rng(8))
        names = set(model.params())
        assert {"encoder.layer1.W", "decoder.layer1.W", "decoder.inter.u",
                "decoder.inter.W_gamma", "decoder.inter.W_x",
                "decoder.inter.W_gammatilde", "decoder.inter.W_r"} <= names


class TestPackedPadding:
    """Language models, seq2seq decoders and classifiers run packed: rows
    sorted by length, step t over the rows still live.  Each row of a
    mixed-length batch must get what it gets alone, and padding must never
    be read."""

    FAMILIES = {
        "lstm": dict(model="lstm", layers=2),
        "lstmn": dict(model="lstmn"),
        "lstmn-stack": dict(model="lstmn-stack", layers=2, skip_connections=True, capacity=2),
        "seq2seq-shallow": dict(model="seq2seq-shallow", optimizer="adam"),
        "seq2seq-deep": dict(model="seq2seq-deep", optimizer="adam", capacity=2),
        "sentiment-lstm": dict(task="sentiment", model="lstm", layers=2),
        "sentiment-lstmn-stack": dict(task="sentiment", model="lstmn-stack", layers=2,
                                      skip_connections=True, capacity=2),
        "nli-lstmn": dict(task="nli", model="lstmn"),
        "nli-lstmn-tied": dict(task="nli", model="lstmn", tie_encoders=True),
        "nli-seq2seq-shallow": dict(task="nli", model="seq2seq-shallow"),
        "nli-seq2seq-deep": dict(task="nli", model="seq2seq-deep", capacity=2),
    }
    # Unsorted lengths; the targets sort differently from the sources.
    SOURCES = [["w0", "w1"], ["w2", "w5", "w1", "w3"], ["w4"], ["w3", "w3", "w0"]]
    TARGETS = [["w1", "w2", "w0"], ["w5"], ["w0", "w4", "w4", "w2"], ["w3", "w1"]]

    def model(self, name):
        vocab = make_vocab()
        model = models.build_model(cfg_for(**self.FAMILIES[name]), vocab,
                                   np.random.default_rng(31))
        rng = np.random.default_rng(32)
        for t in model.params().values():
            t.data[...] = rng.normal(scale=0.5, size=t.data.shape)
        return vocab, model

    def batch(self, vocab, model, rows):
        if model.mode or model.cfg.task == "nli":
            batch = TestSeq2Seq().pair_batch(vocab, [self.SOURCES[i] for i in rows],
                                             [self.TARGETS[i] for i in rows])
        else:
            batch = lm_batch(vocab, [self.SOURCES[i] for i in rows])
        if model.cfg.task != "lm":
            batch.labels = np.array([i % 3 for i in rows])
        return batch

    @staticmethod
    def nll_hit(z, target):
        logp = z - z.max() - np.log(np.exp(z - z.max()).sum())
        return -logp[target], z.argmax() == target

    def per_row(self, model, batch):
        """(NLL, hits) of every batch row, in batch order, from one numpy
        softmax per packed state, or per pooled feature row of a
        classifier: the oracle of the batched loss."""
        if model.cfg.task != "lm":
            head = model.head
            hidden = np.maximum(model._features(batch).data @ head.w1.data.T + head.b1.data, 0)
            logits = hidden @ head.w2.data.T + head.b2.data
            return np.array([self.nll_hit(z, y) for z, y in zip(logits, batch.labels)])
        mask = model._decoder_io(batch)[2] if model.mode else batch.mask[:, 1:]
        order, _ = models.pack(mask)
        states, targets, live = model._predict(batch)
        w, b = model.proj.w.data, model.proj.b.data
        stats = np.zeros((len(order), 2))
        for t, h in enumerate(packed_steps(states, live)):
            logits = h.data @ w.T + b
            for j, z in enumerate(logits):
                assert live[j, t]
                stats[order[j]] += self.nll_hit(z, targets[j, t])
        return stats

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_each_row_matches_its_batch_of_one(self, name):
        vocab, model = self.model(name)
        batch = self.batch(vocab, model, range(4))
        stats = self.per_row(model, batch)
        for i in range(4):
            alone = model.evaluate([self.batch(vocab, model, [i])])
            np.testing.assert_allclose(stats[i, 0], alone.nll, rtol=1e-10)
            assert stats[i, 1] == round(alone.accuracy * alone.tokens)
        whole = model.evaluate([batch])
        np.testing.assert_allclose(whole.nll, stats[:, 0].sum(), rtol=1e-10)
        assert round(whole.accuracy * whole.tokens) == stats[:, 1].sum()

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_padded_ids_are_never_read(self, name):
        vocab, model = self.model(name)
        batch = self.batch(vocab, model, range(4))
        params = list(model.params().values())

        def loss_and_grads(b):
            ad.zero_grad(params)
            loss, _ = model.loss(b)
            ad.backward(loss, params=params)
            return loss.item(), [p.grad.copy() for p in params]

        base, base_grads = loss_and_grads(batch)
        rng = np.random.default_rng(33)
        for tokens, mask in ((batch.tokens, batch.mask), (batch.tokens2, batch.mask2)):
            if tokens is not None:
                pad = mask == 0
                assert pad.any()
                tokens[pad] = rng.integers(vocab.pad + 1, len(vocab), size=int(pad.sum()))
        after, after_grads = loss_and_grads(batch)
        assert after == base
        for g, h in zip(base_grads, after_grads):
            np.testing.assert_array_equal(g, h)

    @pytest.mark.parametrize("name,pools", [
        ("lstmn-stack", 0), ("sentiment-lstmn-stack", 1), ("nli-lstmn", 2),
        ("nli-seq2seq-deep", 1)])
    def test_train_step_cuts_no_rows(self, name, pools, monkeypatch):
        # Every lookup of a train step is an embedding lookup: no carried
        # block is cut to the live rows outside a kernel, and a classifier
        # pools each read in one ``attend`` that puts its rows back in
        # batch order.
        vocab, model = self.model(name)
        batch = self.batch(vocab, model, range(4))
        ops, lookups, make = [], [], ad._make

        def recording_make(data, parents, backward_fn, op, *args, **kwargs):
            ops.append(op)
            if op == "lookup":
                lookups.append(parents[0])
            return make(data, parents, backward_fn, op, *args, **kwargs)

        monkeypatch.setattr(ad, "_make", recording_make)
        loss, _ = model.loss(batch, training=True, rng=np.random.default_rng(0))
        ad.backward(loss, params=list(model.params().values()))
        table = model.embeddings.weights
        assert any(p is table for p in lookups)
        assert all(p is table for p in lookups)
        assert ops.count("attend") == pools

    @pytest.mark.parametrize("name,ops", [
        # An LSTM top keeps no tape: its states are joined, then cut to h.
        ("sentiment-lstm", dict(concat=1, slice_cols=1)),
        ("sentiment-lstmn-stack", dict(slice_cols=1)),
        ("nli-lstmn", dict(slice_cols=1)),
        ("nli-lstmn-tied", dict(slice_cols=1)),
        ("nli-seq2seq-deep", dict(slice_cols=1)),
        # [h, gamma~]: the gammas joined, cut to gamma~ and joined to h.
        ("nli-seq2seq-shallow", dict(concat=2, slice_cols=2))])
    def test_a_classifier_read_pools_in_a_fixed_count_of_nodes(self, name, ops, made_ops,
                                                               monkeypatch):
        # After its read, a pooled core makes one gather of the top states'
        # h columns (with the joins above) and one ``attend``, however long
        # the rows.
        vocab, model = self.model(name)
        read, pooled = model._read, []

        def read_then_count(*args, **kwargs):
            out = read(*args, **kwargs)
            made_ops.clear()
            return out

        def pool_and_record(*args, **kwargs):
            out = models._Classifier._pool(model, *args, **kwargs)
            pooled.append(Counter(made_ops))
            return out

        monkeypatch.setattr(model, "_read", read_then_count)
        monkeypatch.setattr(model, "_pool", pool_and_record)
        for rows in (range(4), [0, 3]):
            model._features(self.batch(vocab, model, rows))
        want = Counter(attend=1, **ops)
        assert pooled == [want] * (4 if name.startswith("nli-lstmn") else 2)


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

    @pytest.mark.parametrize("model_name,extra", [
        ("lstmn", {}), ("lstmn", {"tie_encoders": "true"}),
        ("lstmn-stack", {"layers": "2", "capacity": "2"}),
        ("seq2seq-shallow", {}), ("seq2seq-deep", {})],
        ids=["lstmn", "lstmn-tied", "lstmn-stack", "seq2seq-shallow", "seq2seq-deep"])
    def test_pair_classifier_padding_invariance(self, model_name, extra):
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task="nli", model=model_name, hidden="6",
                                          embedding="4", **extra))
        model = models.PairClassifier(cfg, vocab, np.random.default_rng(17))
        batch = TestSeq2Seq().pair_batch(vocab, [["w0", "w1", "w2"], ["w3"]],
                                         [["w4"], ["w5", "w1", "w0", "w2"]])
        batch.labels = np.array([0, 2])
        base, _ = model.loss(batch)
        assert batch.mask[1, 1:].sum() == 0 and batch.mask2[0, 1:].sum() == 0
        batch.tokens[1, 1:] = vocab.token_to_index["w5"]
        batch.tokens2[0, 1:] = vocab.token_to_index["w3"]
        after, _ = model.loss(batch)
        assert base.item() == after.item()

    def test_nli_rejects_plain_lstm(self):
        with pytest.raises(ConfigError, match="task nli"):
            build_config(overrides=dict(task="nli", model="lstm",
                                        hidden="6", embedding="4"))

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

    @staticmethod
    def _pair_model(seed, **extra):
        """A 1-layer lstmn pair classifier (H=3, E=2) with every weight
        drawn at scale 0.7: init zeroes v, which flattens the attention."""
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task="nli", model="lstmn", hidden="3",
                                          embedding="2", **extra))
        model = models.PairClassifier(cfg, vocab, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for t in model.params().values():
            t.data[...] = rng.normal(scale=0.7, size=t.data.shape)
        return model, vocab

    def test_tied_encoders_give_equal_halves(self):
        model, vocab = self._pair_model(59, tie_encoders="true")
        batch = TestSeq2Seq().pair_batch(vocab, [["w0", "w3", "w1"]], [["w0", "w3", "w1"]])
        feats = model._features(batch).data
        np.testing.assert_array_equal(feats[:, :3], feats[:, 3:])
        states = model._read(batch.tokens)[2].top_h
        np.testing.assert_allclose(feats[:, :3], np.mean([h.data for h in states], axis=0),
                                   atol=1e-12)

    def test_zero_encoders_logits_equal_head_bias_path(self):
        # Zero gate weights give c = i * tanh(0) = 0, so h = 0 at every step.
        model, vocab = self._pair_model(60)
        for name, t in model.params().items():
            if name.endswith((".W", ".bias")) and not name.startswith("head"):
                t.data[...] = 0.0
        batch = TestSeq2Seq().pair_batch(vocab, [["w0", "w1"]], [["w2"]])
        head = model.head
        logits = head.w2.data @ np.maximum(head.b1.data, 0.0) + head.b2.data
        for label in range(3):
            batch.labels = np.array([label])
            nll, hits = head.loss(model._features(batch), batch.labels)
            assert nll.item() == pytest.approx(np.log(np.exp(logits).sum()) - logits[label],
                                               abs=1e-12)
            assert hits[0] == (logits.argmax() == label)

    def test_gradients_flow_through_both_encoders(self):
        model, vocab = self._pair_model(61)
        batch = TestSeq2Seq().pair_batch(vocab, [["w0", "w1", "w2"]], [["w3", "w4"]])
        batch.labels = np.array([1])
        params = model.params()
        assert any(n.startswith("premise.") for n in params)
        assert any(n.startswith("hypothesis.") for n in params)
        report = ad.grad_check(lambda: model.loss(batch)[0], params, tolerance=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("task,model_name", [
        ("nli", "lstmn"), ("nli", "seq2seq-deep"), ("sentiment", "lstmn"),
        ("sentiment", "lstm")])
    def test_empty_sentence_rejected(self, task, model_name):
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task=task, model=model_name, hidden="3",
                                          embedding="2"))
        model = models.build_model(cfg, vocab, np.random.default_rng(62))
        empty = np.zeros((1, 0), dtype=np.int64)
        batch = Batch(tokens=empty, mask=np.zeros((1, 0)), labels=np.array([1]),
                      tokens2=np.array([[3]]), mask2=np.ones((1, 1)))
        with pytest.raises(TapeError, match="empty"):
            model.loss(batch)

    @pytest.mark.parametrize("task,model_name,side", [
        ("sentiment", "lstmn", "mask"), ("nli", "lstmn", "mask"), ("nli", "lstmn", "mask2"),
        ("nli", "seq2seq-deep", "mask2")])
    def test_row_with_no_live_token_rejected(self, task, model_name, side):
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task=task, model=model_name, hidden="3",
                                          embedding="2"))
        model = models.build_model(cfg, vocab, np.random.default_rng(63))
        batch = TestSeq2Seq().pair_batch(vocab, [["w0", "w1"], ["w2"]], [["w3"], ["w4", "w5"]])
        batch.labels = np.array([0, 1])
        getattr(batch, side)[1] = 0.0
        with pytest.raises(TapeError, match="no live token"):
            model.loss(batch)

    def test_eval_deterministic_despite_dropout_rate(self):
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task="sentiment", model="lstmn", hidden="4",
                                          embedding="3", dropout="0.5"))
        model = models.SentenceClassifier(cfg, vocab, np.random.default_rng(58))
        batch = Batch(tokens=np.array([[3, 4, 5], [6, 7, 3]]), mask=np.ones((2, 3)),
                      labels=np.array([0, 4]))
        first, second = model.evaluate([batch]), model.evaluate([batch])
        assert first.nll == second.nll and first.accuracy == second.accuracy
        assert model.loss(batch)[0].item() == model.loss(batch)[0].item()
        # Dropout is live in training mode, so the equalities above are not vacuous.
        dropped = model.loss(batch, training=True, rng=np.random.default_rng(0))[0]
        assert dropped.item() != model.loss(batch)[0].item()


def trace_bytes(traces: dict) -> dict:
    """Each attention stream's per-step weights, as bytes (None where a
    step has no distribution)."""
    return {name: [None if w is None else w.tobytes() for w in stream]
            for name, stream in traces.items()}


class TestNoGradEntryPoints:
    """evaluate, generate and attention_traces record no backward graph,
    and give bit-identical results to a run that records one."""

    @staticmethod
    def _model(task, model_name, seed):
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task=task, model=model_name, hidden="5",
                                          embedding="4", train_data="unused"))
        model = models.build_model(cfg, vocab, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)   # init zeroes v: attention would be flat
        for t in model.params().values():
            t.data[...] = rng.normal(scale=0.7, size=t.data.shape)
        return model, vocab

    @staticmethod
    def _run(fn, record_graph: bool):
        """(fn(), whether any node it made kept parents); ``record_graph``
        makes every node as if no no-grad block were open."""
        kept = []
        make = ad._make

        def recording_make(*args, **kwargs):
            enabled = ad._grad_enabled
            ad._grad_enabled = enabled or record_graph
            try:
                out = make(*args, **kwargs)
            finally:
                ad._grad_enabled = enabled
            kept.append(bool(out._parents) or out._backward_fn is not None)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_make", recording_make)
            result = fn()
        return result, any(kept)

    def _both(self, fn):
        (with_graph, kept), (without, kept_none) = self._run(fn, True), self._run(fn, False)
        assert kept and not kept_none
        return with_graph, without

    @pytest.mark.parametrize("task,model_name", [
        ("lm", "lstm"), ("lm", "lstmn"), ("lm", "seq2seq-shallow"), ("lm", "seq2seq-deep"),
        ("sentiment", "lstmn"), ("nli", "lstmn"), ("nli", "seq2seq-deep")])
    def test_evaluate_bit_identical(self, task, model_name):
        model, vocab = self._model(task, model_name, 81)
        if task == "lm" and not model_name.startswith("seq2seq"):
            batch = lm_batch(vocab, [["w0", "w1", "w2", "w3"], ["w4", "w5"]])
        else:
            batch = TestSeq2Seq().pair_batch(vocab, [["w0", "w1", "w2"], ["w3"]],
                                             [["w4", "w1"], ["w5", "w1", "w0"]])
            batch.labels = np.array([1, 0])
        if task == "sentiment":
            batch = Batch(tokens=batch.tokens, mask=batch.mask, labels=batch.labels)
        with_graph, without = self._both(lambda: model.evaluate([batch, batch]))
        assert with_graph == without and without.tokens > 0

    @pytest.mark.parametrize("model_name", ["seq2seq-shallow", "seq2seq-deep"])
    def test_generate_bit_identical(self, model_name):
        model, vocab = self._model("lm", model_name, 82)
        src = vocab.encode(["w0", "w3", "w1", "w4"])
        with_graph, without = self._both(lambda: model.generate(src, max_len=8))
        assert with_graph == without and len(without) > 1

    @pytest.mark.parametrize("task,model_name", [
        ("lm", "lstmn"), ("lm", "seq2seq-deep"), ("nli", "lstmn"), ("nli", "seq2seq-shallow")])
    def test_attention_traces_bit_identical(self, task, model_name):
        model, vocab = self._model(task, model_name, 83)
        src, tgt = vocab.encode(["w0", "w3", "w1", "w4"]), vocab.encode(["w2", "w5", "w0"])
        args = (src,) if task == "lm" and model_name == "lstmn" else (src, tgt)
        with_graph, without = self._both(lambda: model.attention_traces(*args))
        assert trace_bytes(with_graph) == trace_bytes(without)
        assert any(w is not None for stream in trace_bytes(without).values() for w in stream)

    def test_mode_ends_when_evaluate_raises(self):
        vocab = make_vocab()
        cfg = build_config(overrides=dict(task="sentiment", model="lstmn", hidden="3",
                                          embedding="2"))
        model = models.build_model(cfg, vocab, np.random.default_rng(62))
        empty = Batch(tokens=np.zeros((1, 0), dtype=np.int64), mask=np.zeros((1, 0)),
                      labels=np.array([1]))
        with pytest.raises(TapeError, match="empty"):
            model.evaluate([empty])
        x = ad.Tensor([1.0], requires_grad=True)
        assert ad.mul(x, 2.0).requires_grad


# Fixed before the first float32 run: float32 keeps about 7 significant
# digits, and one step's losses go through a few hundred rounded ops.
FLOAT32_RTOL = 1e-3


class TestFloat32:
    def _run(self, task, model_name, dtype, monkeypatch):
        """One SGD step, the loss after it, evaluate and (seq2seq language
        model) generate at ``dtype``; asserts every parameter, gradient,
        tape buffer and read log keeps that dtype, and that only the
        backward records reads.  Returns the three losses."""
        buffers, logs = [], []
        write, record = ad.tape_write, ad._ReadLog.record

        def recording_write(*args, **kwargs):
            node = write(*args, **kwargs)
            buffers.extend([node.data.dtype, node.keys.dtype])
            return node

        def recording_record(log, *args):
            record(log, *args)
            logs.extend([log.weights.dtype, log.grads.dtype, log.key_grads.dtype])

        monkeypatch.setattr(ad, "tape_write", recording_write)
        monkeypatch.setattr(ad._ReadLog, "record", recording_record)
        ad.set_default_dtype(dtype)
        try:
            vocab = make_vocab()
            cfg = cfg_for(task=task, model=model_name, layers=2, capacity=3)
            model = models.build_model(cfg, vocab, np.random.default_rng(21))
            generates = task == "lm" and model_name.startswith("seq2seq")
            if task == "lm" and not generates:
                batch = lm_batch(vocab, [["w0", "w1", "w2", "w3", "w4"], ["w5", "w1"]])
            else:
                batch = TestSeq2Seq().pair_batch(
                    vocab, [["w0", "w1", "w2", "w3"], ["w4"]],
                    [["w2", "w3", "w1"], ["w5", "w0"]])
                batch.labels = np.array([2, 0])
            if task == "sentiment":
                batch = Batch(tokens=batch.tokens, mask=batch.mask, labels=batch.labels)
            params = list(model.params().values())
            loss, _ = model.loss(batch)
            assert not logs
            ad.backward(loss, params=params)
            recorded = len(logs)
            assert all(p.grad.dtype == dtype for p in params)
            optim.Sgd(params, lr=0.5).step()
            assert all(p.data.dtype == dtype for p in params)
            after = model.loss(batch)[0].item()
            nll = model.evaluate([batch]).nll
            if generates:
                out = model.generate(vocab.encode(["w0", "w1"]), max_len=6)
                assert all(0 <= t < len(vocab) for t in out)
        finally:
            ad.set_default_dtype(np.float64)
        assert buffers and all(d == dtype for d in buffers)
        assert recorded == len(logs) > 0 and all(d == dtype for d in logs)
        return np.array([loss.item(), after, nll])

    # The classifier families hold ``heads.mean_pool`` to float32 too.
    @pytest.mark.parametrize("task,model_name", [
        ("lm", "lstmn-stack"), ("lm", "seq2seq-deep"), ("sentiment", "lstmn-stack"),
        ("nli", "seq2seq-shallow")],
        ids=["lstmn-stack", "seq2seq-deep", "sentiment-lstmn-stack", "nli-seq2seq-shallow"])
    def test_train_eval_generate_stay_float32(self, task, model_name, monkeypatch):
        wide = self._run(task, model_name, np.float64, monkeypatch)
        narrow = self._run(task, model_name, np.float32, monkeypatch)
        assert np.all(np.isfinite(narrow))
        np.testing.assert_allclose(narrow, wide, rtol=FLOAT32_RTOL)


class TestWeightLayout:
    """The output projection's W is stored column-major.  Through a
    ``run_train`` step every gradient, and Adam's moments, keep their
    parameter's memory layout, so no step copies a weight into the other
    order."""

    CASES = {
        "lm-sgd-l2": (np.float64, dict(model="lstmn", l2=1e-3)),
        "seq2seq-deep-adam": (np.float64, dict(model="seq2seq-deep", optimizer="adam",
                                               capacity=2)),
        "sentiment": (np.float64, dict(task="sentiment", model="lstmn-stack", layers=2)),
        "lm-float32": (np.float32, dict(model="lstmn-stack", layers=2)),
    }

    @staticmethod
    def layout(a: np.ndarray) -> tuple:
        return a.flags.c_contiguous, a.flags.f_contiguous

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_train_step_keeps_every_layout(self, case):
        dtype, overrides = self.CASES[case]
        vocab = make_vocab()
        cfg = cfg_for(**overrides)
        ad.set_default_dtype(dtype)
        try:
            model = models.build_model(cfg, vocab, np.random.default_rng(41))
            if model.mode:
                batch = TestSeq2Seq().pair_batch(vocab, [["w0", "w1", "w2"], ["w4"]],
                                                 [["w2", "w3"], ["w5", "w0", "w1"]])
            else:
                batch = lm_batch(vocab, [["w0", "w1", "w2", "w3"], ["w5", "w1"]])
            if cfg.task == "sentiment":
                batch.labels = np.array([1, 0])
            params = model.params()
            tensors = list(params.values())
            opt = optim.Sgd(tensors, lr=cfg.lr) if cfg.optimizer == "sgd" else \
                optim.Adam(tensors, lr=cfg.lr)
            train._train_step(cfg, model, tensors, opt, batch, 1, np.random.default_rng(0))
        finally:
            ad.set_default_dtype(np.float64)
        if cfg.task == "lm":
            w = params["output.W"].data
            assert w.dtype == dtype and self.layout(w) == (False, True)
        for name, p in params.items():
            assert self.layout(p.grad) == self.layout(p.data), name
        if isinstance(opt, optim.Adam):
            for p, m, v in zip(tensors, opt.m, opt.v):
                assert self.layout(m) == self.layout(v) == self.layout(p.data)


class TestEarlyWeightGradients:
    """``backward`` forms a weight's gradient once its last consumer has
    run.  The stack runs layer by layer, so in a two-layer train step
    every layer-2 node runs backward before any layer-1 node, and every
    layer-2 weight, its L2 seed included, has its final gradient by the
    time the first node that reads a layer-1 weight runs."""

    def test_upper_layer_gradients_are_final_before_the_lower_layer_runs(self, monkeypatch):
        vocab = make_vocab()
        cfg = cfg_for(model="lstmn-stack", layers=2, l2=1e-3)
        model = models.build_model(cfg, vocab, np.random.default_rng(41))
        params = model.params()
        upper = {n: p for n, p in params.items() if n.startswith("layer2.")}
        lower = [p for n, p in params.items() if n.startswith("layer1.")]
        early, final = [], []
        make, backward = ad._make, ad.backward

        def recording_make(data, parents, backward_fn, *args, **kwargs):
            if backward_fn is not None and any(p is q for p in parents for q in lower):
                fn = backward_fn

                def backward_fn(g):
                    if not early:
                        early.append({n: p.grad.copy() for n, p in upper.items()
                                      if p.grad is not None})
                    return fn(g)
            return make(data, parents, backward_fn, *args, **kwargs)

        def recording_backward(*args, **kwargs):
            backward(*args, **kwargs)
            final.append({n: p.grad.copy() for n, p in upper.items()})

        monkeypatch.setattr(ad, "_make", recording_make)
        monkeypatch.setattr(ad, "backward", recording_backward)
        tensors = list(params.values())
        batch = lm_batch(vocab, [["w0", "w1", "w2", "w3"], ["w5", "w1"]])
        train._train_step(cfg, model, tensors, optim.Sgd(tensors, lr=cfg.lr), batch, 1,
                          np.random.default_rng(0))
        assert len(early) == len(final) == 1 and set(early[0]) == set(upper)
        for name, grad in final[0].items():
            np.testing.assert_array_equal(early[0][name], grad, err_msg=name)


class TestL2:
    """``train._train_step`` keeps the L2 penalty out of the graph; the
    graph's own formula, penalty nodes added to the loss, is the oracle."""

    CASES = {
        "lm-float64": (np.float64, dict(model="lstmn")),
        "lm-float32": (np.float32, dict(model="lstmn")),
        "sentiment-lstmn-stack": (np.float64, dict(task="sentiment", model="lstmn-stack",
                                                   layers=2, capacity=2)),
        "sentiment-lstm-float32": (np.float32, dict(task="sentiment", model="lstm")),
    }

    class Snapshot:
        """An optimizer that keeps each gradient as backward left it."""

        def __init__(self, tensors):
            self.tensors, self.grads = tensors, None

        def step(self):
            self.grads = [t.grad for t in self.tensors]

    def build(self, case):
        overrides = dict(self.CASES[case][1], l2=1e-3, grad_clip=0, dropout=0.3)
        vocab, cfg = make_vocab(), cfg_for(**overrides)
        model = models.build_model(cfg, vocab, np.random.default_rng(43))
        # Nonzero biases too, so that each gradient sums several terms.
        rng = np.random.default_rng(44)
        for t in model.params().values():
            t.data[...] = rng.normal(scale=0.5, size=t.data.shape)
        batch = lm_batch(vocab, [["w0", "w1", "w2", "w3"], ["w5", "w1"], ["w4"]])
        if cfg.task == "sentiment":
            batch.labels = np.array([1, 0, 4])
        return cfg, model, batch

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_train_step_matches_the_penalty_in_the_graph_bit_for_bit(self, case):
        dtype = self.CASES[case][0]
        ad.set_default_dtype(dtype)
        try:
            cfg, model, batch = self.build(case)
            tensors = list(model.params().values())
            ad.zero_grad(tensors)
            loss, _ = model.loss(batch, training=True, rng=np.random.default_rng(0))
            penalty = None
            for t in model.l2_params():
                term = ad.sum_all(ad.mul(t, t))
                penalty = term if penalty is None else ad.add(penalty, term)
            loss = ad.add(loss, ad.mul(penalty, cfg.l2))
            ad.backward(loss, params=tensors)
            want = [t.grad for t in tensors]
            snapshot = self.Snapshot(tensors)
            value, _ = train._train_step(cfg, model, tensors, snapshot, batch, 1,
                                         np.random.default_rng(0))
        finally:
            ad.set_default_dtype(np.float64)
        assert value == loss.item()
        for name, g, h in zip(model.params(), snapshot.grads, want):
            assert g.dtype == h.dtype == dtype and g.tobytes() == h.tobytes(), name
        if cfg.task == "lm":
            assert TestWeightLayout.layout(model.proj.w.grad) == (False, True)

    def test_the_penalty_adds_no_node(self, made_ops):
        cfg, model, batch = self.build("sentiment-lstmn-stack")
        tensors = list(model.params().values())
        counts = []
        for l2 in (cfg.l2, 0.0):
            made_ops.clear()
            train._train_step(dataclasses.replace(cfg, l2=l2), model, tensors,
                              self.Snapshot(tensors), batch, 1, np.random.default_rng(0))
            counts.append(Counter(made_ops))
        assert counts[0] == counts[1] and "add" not in counts[0]
