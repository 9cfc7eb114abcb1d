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
Language models and the seq2seq decoder run packed (``pack``): a
batch's rows are sorted longest first and step t runs only B_t rows,
the live prefix, so no padded position is computed or read.
Classifiers run full rows under their masks.
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

NLI_LABELS = ("entailment", "contradiction", "neutral")


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

    def _run(self, xs: list, core):
        """The core over embedded steps: per-step top-layer states, and
        top-layer intra-attention traces (None per step for the LSTM)."""
        run = cells.run_stack(xs, core, self.capacity)
        return run.top_h, run.traces

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

    def _embed(self, tokens: np.ndarray, rows=None) -> list:
        """Per-step embedding lookups for a (B, L) token block; with
        ``rows`` (``pack``'s B_t), step t embeds only its first rows[t]
        rows, for as many steps as ``rows`` has."""
        if rows is None:
            rows = [tokens.shape[0]] * tokens.shape[1]
        return [ad.lookup(self.embeddings.weights, tokens[:n, t]) for t, n in enumerate(rows)]

    def _decode(self, src_tokens: np.ndarray, tgt_tokens: np.ndarray, src_mask=None,
                tgt_rows=None):
        """Encode the source block over all its rows and run the fusion
        decoder over the target block, packed to ``tgt_rows`` when given:
        (DecodeRun, encoder traces)."""
        src, enc_traces = fusion.encode(self._embed(src_tokens), self.stack,
                                        self.capacity, mask=src_mask)
        run = fusion.run_decoder(self._embed(tgt_tokens, tgt_rows), src, self.decoder,
                                 self.mode, self.capacity)
        return run, enc_traces

    @ad.no_grad()
    def attention_traces(self, token_ids: np.ndarray, tgt_ids: np.ndarray | None = None):
        """Attention over one raw sequence (no boundary tokens added): the
        core's top-layer intra-attention, or for a (source, target) pair
        through a fusion decoder, the decoder's intra- and inter-attention
        plus the encoder's own intra-attention."""
        if self.mode:
            run, enc_traces = self._decode(token_ids[None, :], tgt_ids[None, :])
            return {"encoder-intra": enc_traces, "intra": run.intra, "inter": run.inter}
        if self.cfg.model == "lstm":
            raise ConfigError("model lstm has no attention to dump")
        return {"intra": self._run(self._embed(token_ids[None, :]), self.stack)[1]}


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
        """(per-step states, targets, mask): rows are [<s> w1 .. wn </s>],
        shifted for next-token prediction.  The rows are packed (``pack``):
        targets and mask come sorted longest first, and step t's states
        are the first B_t rows, exactly the live ones."""
        order, rows = pack(batch.mask[:, 1:])
        tokens = batch.tokens[order, :len(rows) + 1]
        states, _ = self._run(self._embed(tokens[:, :-1], rows), self.stack)
        return states, tokens[:, 1:], batch.mask[order, 1:len(rows) + 1]

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
        order, rows = pack(out_mask)
        run, _ = self._decode(batch.tokens[order], inputs[order], batch.mask[order], rows)
        return run.outputs, targets[order, :len(rows)], out_mask[order, :len(rows)]

    @ad.no_grad()
    def generate(self, src_tokens: np.ndarray, max_len: int = 50) -> list:
        """Greedy decoding for one source sequence (token ids)."""
        src, _ = fusion.encode(self._embed(src_tokens[None, :]), self.stack, self.capacity)
        decoder = fusion.DecoderState(src, self.decoder, self.mode, self.capacity,
                                      length=max_len)
        token = self.vocab.bos
        out = []
        for _ in range(max_len):
            feats, _, _ = decoder.step(ad.lookup(self.embeddings.weights, np.array([token])))
            token = int(self.proj(feats).data.argmax())
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

    def _pool(self, xs: list, core, mask) -> ad.Tensor:
        """Mask-aware mean of the core's top-layer states."""
        states, _ = self._run(xs, core)
        return heads.mean_pool(states, mask)

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
        return self._pool(self._embed(batch.tokens), self.stack, batch.mask)


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
            run, _ = self._decode(batch.tokens, batch.tokens2, batch.mask)
            return heads.mean_pool(run.outputs, batch.mask2)
        prem_xs, hyp_xs = self._embed(batch.tokens), self._embed(batch.tokens2)
        return ad.concat([self._pool(prem_xs, self.stack, batch.mask),
                          self._pool(hyp_xs, self.hypothesis_encoder, batch.mask2)], axis=1)

    @ad.no_grad()
    def attention_traces(self, premise_ids: np.ndarray, hypothesis_ids: np.ndarray):
        if self.mode:
            return super().attention_traces(premise_ids, hypothesis_ids)
        prem_xs = self._embed(premise_ids[None, :])
        hyp_xs = self._embed(hypothesis_ids[None, :])
        return {"premise-intra": self._run(prem_xs, self.stack)[1],
                "hypothesis-intra": self._run(hyp_xs, self.hypothesis_encoder)[1]}


def build_model(cfg: RunConfig, vocab: Vocabulary, rng,
                embeddings: EmbeddingTable | None = None):
    """The task's model; ``config.finalize`` has already rejected task and
    model pairs that do not fit."""
    if cfg.task == "lm":
        cls = Seq2SeqModel if cfg.model in SEQ2SEQ_MODELS else LanguageModel
    else:
        cls = SentenceClassifier if cfg.task == "sentiment" else PairClassifier
    return cls(cfg, vocab, rng, embeddings)
