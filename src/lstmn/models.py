"""Task models: parameter wiring, per-batch losses, and evaluation.

Every model is the one reader wired to a task.  ``Model`` owns the
embedding table, the single-sequence core (one ``cells.run_stack``
stack: LSTM layers for model ``lstm``, tape layers otherwise) and, for
seq2seq models, the fusion decoder, and assembles the flat ``params()``
dict whose names define the checkpoint layout.  Language models predict
the next token from per-step states (``LanguageModel._predict``),
classifiers label pooled features (``SentenceClassifier._features``);
the seq2seq and pair variants override only those hooks.  Losses are
mean-per-token (language modeling) or mean-per-example (classification)
and come with the raw stats ``{nll, tokens, correct}`` (a classifier's
tokens are examples), which ``Model.evaluate`` sums across batches.
Every read of a token block goes through ``Model._read``, which sorts,
embeds and runs a core or the fusion decoder.  Every core but the
seq2seq encoder runs packed (``pack``): a batch's rows are sorted
longest first and step t runs only B_t rows, the live prefix, so no
padded position is computed or read.  A read embeds every step at once:
one ``lookup`` of the live ids in step-major order gives the core its
input block, step t's embeddings in rows [o_t, o_t + B_t), and the
encoder of a seq2seq read gets one of its own.  A read returns a
``cells.StackRun``, or the fusion decoder, a subclass of it
(``fusion.DecoderState``), and every model takes its states back as one
packed block (``run.packed()``): language models project it, and
classifiers pool it in one product whose rows come back in batch
order.
``evaluate``, ``generate`` and ``attention_traces`` never call backward
and run under ``autodiff.no_grad``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import cells, data, fusion, heads
from .config import SEQ2SEQ_MODELS, ConfigError, RunConfig
from .data import Batch, EmbeddingTable, Vocabulary
from .heads import EvalMetrics


def pack(mask: np.ndarray) -> tuple:
    """Longest-first row order of a (B, T) mask whose live positions lead
    each row, and B_t, the count of rows still live at each step t up to
    the longest row: after the sort, step t runs the first B_t rows."""
    lengths = mask.sum(axis=1).astype(np.int64)
    rows = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0).tolist()
    return np.argsort(-lengths, kind="stable"), rows


class Model:
    """Shared wiring: embedding table, core, decoder and checkpoint names."""

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, rng,
                 embeddings: EmbeddingTable | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.capacity = cfg.capacity if cfg.capacity > 0 else None
        self.mode = {"seq2seq-deep": "deep", "seq2seq-shallow": "shallow"}.get(cfg.model)
        self.embeddings = embeddings or data.init_embeddings(rng, vocab, cfg.embedding)
        self.stack = self._init_core(rng)
        self.decoder = None
        if self.mode:
            self.decoder = fusion.init_decoder(rng, cfg.hidden, cfg.embedding,
                                               cfg.attention,
                                               attention_bias=cfg.attention_bias)

    def _init_core(self, rng):
        """Plain LSTM layers for model lstm, tape layers otherwise."""
        cfg = self.cfg
        return cells.init_stack(rng, cfg.layers, cfg.hidden, cfg.embedding,
                                None if cfg.model == "lstm" else cfg.attention,
                                skip=cfg.skip_connections,
                                attention_bias=cfg.attention_bias)

    def _parts(self) -> list:
        """(prefix, weights) after the embedding table, in checkpoint order."""
        if self.mode:
            return [("encoder.", self.stack), ("decoder.", self.decoder)]
        return [("", self.stack)]

    def params(self) -> dict:
        out = {"embedding.weight": self.embeddings.weights}
        for prefix, part in self._parts():
            out.update(part.named(prefix))
        return out

    def l2_params(self) -> list:
        return [t for n, t in self.params().items() if n != "embedding.weight"]

    @ad.no_grad()
    def evaluate(self, batches, dataset: str = "", split: str = "") -> EvalMetrics:
        """The per-batch stats of ``loss`` summed over ``batches``."""
        nll, tokens, correct = 0.0, 0, 0
        for batch in batches:
            _, stats = self.loss(batch)
            nll += stats["nll"]
            tokens += stats["tokens"]
            correct += stats["correct"]
        return EvalMetrics(nll=nll, tokens=tokens,
                           accuracy=correct / tokens if tokens else None,
                           dataset=dataset, split=split)

    def _read(self, tokens: np.ndarray, mask=None, core=None, src=None):
        """One packed left-to-right read of a (B, L) token block: rows
        sorted by ``pack(mask)`` (all live when ``mask`` is None), one
        lookup embeds step t's first B_t rows, step after step, and
        ``core`` (default: the model's stack) runs that block.  With
        ``src``, the rows' (source tokens, mask or None), ``core`` first
        encodes every source row and the fusion decoder runs instead.
        Returns (row order, B_t, the ``StackRun`` or ``DecoderState``,
        the encoder traces or None)."""
        order, rows = pack(np.ones(tokens.shape) if mask is None else mask)
        core = self.stack if core is None else core
        table, enc_traces = self.embeddings.weights, None
        if src is not None:
            src_tokens, src_mask = (None if a is None else a[order] for a in src)
            memory, enc_traces = fusion.encode(ad.lookup(table, src_tokens.T.reshape(-1)), core,
                                               self.capacity, mask=src_mask,
                                               rows=[len(order)] * src_tokens.shape[1])
        live = np.arange(len(order))[:, None] < rows
        xs = ad.lookup(table, tokens[order, :len(rows)].T[live.T])
        run = cells.run_stack(xs, core, self.capacity, rows) if src is None else \
            fusion.run_decoder(xs, memory, self.decoder, self.mode, self.capacity, rows)
        return order, rows, run, enc_traces

    @ad.no_grad()
    def attention_traces(self, token_ids: np.ndarray, tgt_ids: np.ndarray | None = None):
        """Attention over one raw sequence (no boundary tokens added): the
        core's top-layer intra-attention, or for a (source, target) pair
        through a fusion decoder, the decoder's intra- and inter-attention
        plus the encoder's own intra-attention.  Each stream is a list of
        per-step (1, n) weight arrays, None at an empty-tape step."""
        if self.mode:
            _, _, run, enc_traces = self._read(tgt_ids[None, :], src=(token_ids[None, :], None))
            return {"encoder-intra": enc_traces, "intra": run.traces, "inter": run.inter}
        if self.cfg.model == "lstm":
            raise ConfigError("model lstm has no attention to dump")
        return {"intra": self._read(token_ids[None, :])[2].traces}


class LanguageModel(Model):
    """Next-token model over single sentences: lstm / lstmn / lstmn-stack."""

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, rng,
                 embeddings: EmbeddingTable | None = None):
        super().__init__(cfg, vocab, rng, embeddings)
        # Shallow fusion predicts from [h_t, gamma~_t].
        width = 2 * cfg.hidden if self.mode == "shallow" else cfg.hidden
        self.proj = heads.init_output_projection(rng, len(vocab), width)

    def _parts(self) -> list:
        return super()._parts() + [("output", self.proj)]

    def _predict(self, batch: Batch):
        """(states, targets, mask): rows are [<s> w1 .. wn </s>], shifted
        for next-token prediction.  The rows are packed (``pack``): targets
        and mask come sorted longest first, and the states are one packed,
        step-major block, step t's B_t rows exactly the live ones."""
        order, rows, run, _ = self._read(batch.tokens[:, :-1], batch.mask[:, 1:])
        return run.packed(), batch.tokens[order, 1:len(rows) + 1], \
            batch.mask[order, 1:len(rows) + 1]

    def loss(self, batch: Batch, training: bool = False, rng=None):
        nll, tokens, correct = heads.lm_loss(*self._predict(batch), self.proj)
        return ad.mul(nll, 1.0 / max(tokens, 1)), \
            {"nll": nll.item(), "tokens": tokens, "correct": correct}


class Seq2SeqModel(LanguageModel):
    """Conditional next-token model over (source, target) pairs with
    shallow or deep attention fusion."""

    @property
    def encoder(self) -> cells.StackWeights:
        return self.stack

    def _decoder_io(self, batch: Batch):
        """Teacher forcing: inputs [<s> t1..tm], targets [t1..tm </s>]."""
        tgt, mask = batch.tokens2, batch.mask2
        b, m = tgt.shape
        lengths = mask.sum(axis=1).astype(int)
        column = np.ones((b, 1), dtype=np.int64)
        inputs = np.concatenate([column * self.vocab.bos, tgt], axis=1)
        targets = np.concatenate([tgt, column * self.vocab.pad], axis=1)
        targets[np.arange(b), lengths] = self.vocab.eos
        return inputs, targets, (np.arange(m + 1) <= lengths[:, None]).astype(np.float64)

    def _predict(self, batch: Batch):
        """The whole batch sorted once by target length: the encoder runs
        over every row, the decoder packed, as in ``LanguageModel``."""
        inputs, targets, out_mask = self._decoder_io(batch)
        order, rows, run, _ = self._read(inputs, out_mask, src=(batch.tokens, batch.mask))
        return run.packed(), targets[order, :len(rows)], out_mask[order, :len(rows)]

    @ad.no_grad()
    def generate(self, src_tokens: np.ndarray, max_len: int = 50) -> list:
        """Greedy decoding for one source sequence (token ids): each step
        reads a one-row block, the embedding of the token before."""
        table = self.embeddings.weights
        src, _ = fusion.encode(ad.lookup(table, src_tokens), self.stack, self.capacity,
                               rows=[1] * len(src_tokens))
        decoder = fusion.DecoderState(src, self.decoder, self.mode, self.capacity,
                                      length=max_len)
        token = self.vocab.bos
        out = []
        for _ in range(max_len):
            decoder.step(ad.lookup(table, np.array([token])))
            token = int(self.proj(decoder.features()).data.argmax())
            if token == self.vocab.eos:
                break
            out.append(token)
        return out


class _Classifier(Model):
    """Label logits from pooled features; the subclasses build the head
    and ``_features``."""

    def _init_head(self, rng, width: int) -> None:
        cfg = self.cfg
        self.head = heads.init_classifier_head(rng, width, cfg.hidden, cfg.num_labels,
                                               dropout=cfg.dropout)

    def _parts(self) -> list:
        return super()._parts() + [("head", self.head)]

    def _pool(self, tokens: np.ndarray, mask: np.ndarray, core=None, src=None) -> ad.Tensor:
        """Each row's mean top-layer state over its live tokens, in batch
        order, pooled from the packed block of a ``_read`` through ``core``,
        or with ``src`` (premise tokens and mask) through the fusion
        decoder."""
        order, rows, run, _ = self._read(tokens, mask, core, src)
        return heads.mean_pool(run.packed(), rows, order)

    def loss(self, batch: Batch, training: bool = False, rng=None):
        nll, hits = self.head.loss(self._features(batch), batch.labels, training, rng)
        return ad.mul(nll, 1.0 / batch.size), \
            {"nll": nll.item(), "tokens": batch.size, "correct": int(hits.sum())}


class SentenceClassifier(_Classifier):
    """Mean-pooled sentence classification: lstm / lstmn / lstmn-stack."""

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, rng,
                 embeddings: EmbeddingTable | None = None):
        super().__init__(cfg, vocab, rng, embeddings)
        self._init_head(rng, cfg.hidden)

    def _features(self, batch: Batch) -> ad.Tensor:
        return self._pool(batch.tokens, batch.mask)


class PairClassifier(_Classifier):
    """Premise/hypothesis inference.

    model lstmn / lstmn-stack: two tape encoders, pooled and concatenated.
    model seq2seq-*: the hypothesis decoder is conditioned on the premise
    encoder; deep fusion pools the decoder hidden tape, shallow fusion
    pools the per-step [h_t, context] concatenation.
    """

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, rng,
                 embeddings: EmbeddingTable | None = None):
        super().__init__(cfg, vocab, rng, embeddings)
        if not self.mode:
            self.hypothesis_encoder = self.stack if cfg.tie_encoders \
                else self._init_core(rng)
        self._init_head(rng, cfg.hidden if self.mode == "deep" else 2 * cfg.hidden)

    def _parts(self) -> list:
        if self.mode:
            return super()._parts()
        if self.cfg.tie_encoders:
            encoders = [("encoder.", self.stack)]
        else:
            encoders = [("premise.", self.stack), ("hypothesis.", self.hypothesis_encoder)]
        return encoders + [("head", self.head)]

    def _features(self, batch: Batch) -> ad.Tensor:
        if self.mode:
            return self._pool(batch.tokens2, batch.mask2, src=(batch.tokens, batch.mask))
        return ad.concat([self._pool(batch.tokens, batch.mask),
                          self._pool(batch.tokens2, batch.mask2, self.hypothesis_encoder)],
                         axis=1)

    @ad.no_grad()
    def attention_traces(self, premise_ids: np.ndarray, hypothesis_ids: np.ndarray):
        if self.mode:
            return super().attention_traces(premise_ids, hypothesis_ids)
        return {"premise-intra": self._read(premise_ids[None, :])[2].traces,
                "hypothesis-intra": self._read(hypothesis_ids[None, :],
                                               core=self.hypothesis_encoder)[2].traces}


def build_model(cfg: RunConfig, vocab: Vocabulary, rng,
                embeddings: EmbeddingTable | None = None):
    """The task's model; ``config.finalize`` has already rejected task and
    model pairs that do not fit."""
    if cfg.task == "lm":
        cls = Seq2SeqModel if cfg.model in SEQ2SEQ_MODELS else LanguageModel
    else:
        cls = SentenceClassifier if cfg.task == "sentiment" else PairClassifier
    return cls(cfg, vocab, rng, embeddings)
