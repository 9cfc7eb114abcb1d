"""Task models: parameter wiring, per-batch losses, and evaluation.

Each model owns an embedding table, a recurrent core, and a head, and
exposes a flat ``params()`` dict whose names define the checkpoint
layout.  Losses are mean-per-token (language modeling) or
mean-per-example (classification); evaluation sums raw NLL so
perplexity aggregates correctly across batches.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import cells, data, fusion, heads, optim
from .autodiff import Tensor
from .config import ConfigError, RunConfig
from .data import Batch, EmbeddingTable, Vocabulary
from .heads import EvalMetrics

NLI_LABELS = ("entailment", "contradiction", "neutral")


def _capacity(cfg: RunConfig):
    return cfg.capacity if cfg.capacity > 0 else None


def _embed_steps(table: EmbeddingTable, tokens: np.ndarray) -> list:
    """Per-step embedding lookups for a (B, L) token block."""
    return [ad.lookup(table.weights, tokens[:, t]) for t in range(tokens.shape[1])]


class LanguageModel:
    """Next-token model over single sentences: lstm / lstmn / lstmn-stack."""

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, rng,
                 embeddings: EmbeddingTable | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.embeddings = embeddings or data.init_embeddings(rng, vocab, cfg.embedding)
        if cfg.model == "lstm":
            self.lstm_layers = cells.init_lstm_stack(rng, cfg.layers, cfg.hidden,
                                                     cfg.embedding)
            self.stack = None
        else:
            self.stack = cells.init_stack(rng, cfg.layers, cfg.hidden, cfg.embedding,
                                          cfg.attention, skip=cfg.skip_connections,
                                          attention_bias=cfg.attention_bias)
            self.lstm_layers = None
        self.proj = heads.init_output_projection(rng, len(vocab), cfg.hidden)

    def params(self) -> dict:
        out = {"embedding.weight": self.embeddings.weights}
        if self.stack is not None:
            out.update(self.stack.named())
        else:
            out.update(cells.lstm_named(self.lstm_layers))
        out.update(self.proj.named())
        return out

    def l2_params(self) -> list:
        return [t for n, t in self.params().items() if n != "embedding.weight"]

    def _states(self, tokens: np.ndarray) -> list:
        xs = _embed_steps(self.embeddings, tokens)
        if self.stack is not None:
            return cells.run_stack(xs, self.stack, _capacity(self.cfg)).top_h
        return cells.run_lstm(xs, self.lstm_layers)

    @staticmethod
    def _split(batch: Batch):
        # Rows are [<s> w1 .. wn </s>]: shift for next-token prediction.
        inputs = batch.tokens[:, :-1]
        targets = batch.tokens[:, 1:]
        mask = batch.mask[:, 1:]
        return inputs, targets, mask

    def loss(self, batch: Batch, training: bool = False, rng=None):
        inputs, targets, mask = self._split(batch)
        hs = self._states(inputs)
        nll, tokens = heads.lm_loss(hs, targets, mask, self.proj)
        return ad.mul(nll, 1.0 / max(tokens, 1)), {"tokens": tokens, "nll": nll.item()}

    def evaluate(self, batches, dataset: str = "", split: str = "") -> EvalMetrics:
        total_nll, total_tokens, correct = 0.0, 0, 0
        for batch in batches:
            inputs, targets, mask = self._split(batch)
            nll, tokens, hits = heads.lm_eval(self._states(inputs), targets, mask, self.proj)
            total_nll += nll
            total_tokens += tokens
            correct += hits
        acc = correct / total_tokens if total_tokens else None
        return EvalMetrics(nll=total_nll, tokens=total_tokens, accuracy=acc,
                           dataset=dataset, split=split)

    def attention_traces(self, token_ids: np.ndarray):
        """Per-step top-layer intra-attention for one raw sequence (no
        boundary tokens added)."""
        if self.stack is None:
            raise ConfigError("model lstm has no attention to dump")
        xs = _embed_steps(self.embeddings, token_ids[None, :])
        run = cells.run_stack(xs, self.stack, _capacity(self.cfg))
        return {"intra": [step[-1] for step in run.traces]}


class Seq2SeqModel:
    """Conditional next-token model over (source, target) pairs with
    shallow or deep attention fusion."""

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, rng,
                 embeddings: EmbeddingTable | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.mode = "deep" if cfg.model == "seq2seq-deep" else "shallow"
        self.embeddings = embeddings or data.init_embeddings(rng, vocab, cfg.embedding)
        self.encoder = cells.init_stack(rng, cfg.layers, cfg.hidden, cfg.embedding,
                                        cfg.attention, skip=cfg.skip_connections,
                                        attention_bias=cfg.attention_bias)
        self.decoder = fusion.init_decoder(rng, cfg.hidden, cfg.embedding,
                                           cfg.attention,
                                           attention_bias=cfg.attention_bias)
        out_width = cfg.hidden if self.mode == "deep" else 2 * cfg.hidden
        self.proj = heads.init_output_projection(rng, len(vocab), out_width)

    def params(self) -> dict:
        out = {"embedding.weight": self.embeddings.weights}
        out.update(self.encoder.named("encoder."))
        out.update(self.decoder.named("decoder."))
        out.update(self.proj.named())
        return out

    def l2_params(self) -> list:
        return [t for n, t in self.params().items() if n != "embedding.weight"]

    def _decoder_io(self, batch: Batch):
        """Teacher forcing: inputs [<s> t1..tm], targets [t1..tm </s>]."""
        tgt, mask = batch.tokens2, batch.mask2
        b, m = tgt.shape
        lengths = mask.sum(axis=1).astype(int)
        inputs = np.full((b, m + 1), self.vocab.pad, dtype=np.int64)
        targets = np.full((b, m + 1), self.vocab.pad, dtype=np.int64)
        out_mask = np.zeros((b, m + 1))
        inputs[:, 0] = self.vocab.bos
        inputs[:, 1:] = tgt
        targets[:, :m] = tgt
        for i, n in enumerate(lengths):
            targets[i, n] = self.vocab.eos
            out_mask[i, :n + 1] = 1.0
        return inputs, targets, out_mask

    def _decode(self, batch: Batch):
        src_xs = _embed_steps(self.embeddings, batch.tokens)
        src, enc_traces = fusion.encode(src_xs, self.encoder, _capacity(self.cfg),
                                        mask=batch.mask)
        inputs, targets, out_mask = self._decoder_io(batch)
        dec_xs = _embed_steps(self.embeddings, inputs)
        run = fusion.run_decoder(dec_xs, src, self.decoder, self.mode,
                                 _capacity(self.cfg))
        return run, enc_traces, targets, out_mask

    def loss(self, batch: Batch, training: bool = False, rng=None):
        run, _, targets, out_mask = self._decode(batch)
        nll, tokens = heads.lm_loss(run.outputs, targets, out_mask, self.proj)
        return ad.mul(nll, 1.0 / max(tokens, 1)), {"tokens": tokens, "nll": nll.item()}

    def evaluate(self, batches, dataset: str = "", split: str = "") -> EvalMetrics:
        total_nll, total_tokens, correct = 0.0, 0, 0
        for batch in batches:
            run, _, targets, out_mask = self._decode(batch)
            nll, tokens, hits = heads.lm_eval(run.outputs, targets, out_mask, self.proj)
            total_nll += nll
            total_tokens += tokens
            correct += hits
        acc = correct / total_tokens if total_tokens else None
        return EvalMetrics(nll=total_nll, tokens=total_tokens, accuracy=acc,
                           dataset=dataset, split=split)

    def generate(self, src_tokens: np.ndarray, max_len: int = 50) -> list:
        """Greedy decoding for one source sequence (token ids)."""
        src_xs = _embed_steps(self.embeddings, src_tokens[None, :])
        src, _ = fusion.encode(src_xs, self.encoder, _capacity(self.cfg))
        tapes = cells.Tapes(_capacity(self.cfg))
        htilde = Tensor(np.zeros((1, self.cfg.hidden)))
        gamma = Tensor(np.zeros((1, self.cfg.hidden)))
        proj_src = fusion.source_projection(src, self.decoder.inter)
        token = self.vocab.bos
        out = []
        for _ in range(max_len):
            x = ad.lookup(self.embeddings.weights, np.array([token]))
            if self.mode == "deep":
                state, intra, inter = fusion.deep_decode_step(
                    x, tapes, htilde, gamma, src, self.decoder, proj_src)
                feats = state.h
            else:
                state, intra, inter, feats = fusion.shallow_decode_step(
                    x, tapes, htilde, gamma, src, self.decoder, proj_src)
            htilde, gamma = intra.htilde, inter.gamma_tilde
            token = int(self.proj(feats).data.argmax())
            if token == self.vocab.eos:
                break
            out.append(token)
        return out

    def attention_traces(self, src_ids: np.ndarray, tgt_ids: np.ndarray):
        """Decoder intra- and inter-attention over a raw (source, target)
        pair, plus the encoder's own intra-attention."""
        src_xs = _embed_steps(self.embeddings, src_ids[None, :])
        src, enc_traces = fusion.encode(src_xs, self.encoder, _capacity(self.cfg))
        dec_xs = _embed_steps(self.embeddings, tgt_ids[None, :])
        run = fusion.run_decoder(dec_xs, src, self.decoder, self.mode,
                                 _capacity(self.cfg))
        return {"encoder-intra": enc_traces, "intra": run.intra, "inter": run.inter}


class SentenceClassifier:
    """Mean-pooled sentence classification: lstm / lstmn / lstmn-stack."""

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, rng,
                 embeddings: EmbeddingTable | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.embeddings = embeddings or data.init_embeddings(rng, vocab, cfg.embedding)
        if cfg.model == "lstm":
            self.lstm_layers = cells.init_lstm_stack(rng, cfg.layers, cfg.hidden,
                                                     cfg.embedding)
            self.stack = None
        else:
            self.stack = cells.init_stack(rng, cfg.layers, cfg.hidden, cfg.embedding,
                                          cfg.attention, skip=cfg.skip_connections,
                                          attention_bias=cfg.attention_bias)
            self.lstm_layers = None
        self.head = heads.init_classifier_head(rng, cfg.hidden, cfg.hidden,
                                               cfg.num_labels, dropout=cfg.dropout)

    def params(self) -> dict:
        out = {"embedding.weight": self.embeddings.weights}
        if self.stack is not None:
            out.update(self.stack.named())
        else:
            out.update(cells.lstm_named(self.lstm_layers))
        out.update(self.head.named())
        return out

    def l2_params(self) -> list:
        return [t for n, t in self.params().items() if n != "embedding.weight"]

    def _logits(self, batch: Batch, training: bool, rng):
        xs = _embed_steps(self.embeddings, batch.tokens)
        if self.stack is not None:
            hs = cells.run_stack(xs, self.stack, _capacity(self.cfg)).top_h
        else:
            hs = cells.run_lstm(xs, self.lstm_layers)
        return heads.classify_sentence(hs, batch.mask, self.head, training, rng)

    def loss(self, batch: Batch, training: bool = False, rng=None):
        logits = self._logits(batch, training, rng)
        nll = ad.masked_nll(logits, batch.labels)
        correct = int((logits.data.argmax(axis=1) == batch.labels).sum())
        return ad.mul(nll, 1.0 / batch.size), \
            {"examples": batch.size, "correct": correct, "nll": nll.item()}

    def evaluate(self, batches, dataset: str = "", split: str = "") -> EvalMetrics:
        total_nll, examples, correct = 0.0, 0, 0
        for batch in batches:
            logits = self._logits(batch, training=False, rng=None)
            total_nll += ad.masked_nll(logits, batch.labels).item()
            examples += batch.size
            correct += int((logits.data.argmax(axis=1) == batch.labels).sum())
        return EvalMetrics(nll=total_nll, tokens=examples,
                           accuracy=correct / examples if examples else None,
                           dataset=dataset, split=split)

    def attention_traces(self, token_ids: np.ndarray):
        if self.stack is None:
            raise ConfigError("model lstm has no attention to dump")
        xs = _embed_steps(self.embeddings, token_ids[None, :])
        run = cells.run_stack(xs, self.stack, _capacity(self.cfg))
        return {"intra": [step[-1] for step in run.traces]}


class PairClassifier:
    """Premise/hypothesis inference.

    model lstmn / lstmn-stack: two tape encoders, pooled and concatenated.
    model seq2seq-*: the hypothesis decoder is conditioned on the premise
    encoder; deep fusion pools the decoder hidden tape, shallow fusion
    pools the per-step [h_t, context] concatenation.
    """

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, rng,
                 embeddings: EmbeddingTable | None = None):
        if cfg.model == "lstm":
            raise ConfigError("task nli supports lstmn, lstmn-stack, or seq2seq models")
        self.cfg = cfg
        self.vocab = vocab
        self.embeddings = embeddings or data.init_embeddings(rng, vocab, cfg.embedding)
        self.fusion_mode = {"seq2seq-deep": "deep", "seq2seq-shallow": "shallow"}.get(cfg.model)
        self.decoder = None
        self.hypothesis_encoder = None

        def new_stack():
            return cells.init_stack(rng, cfg.layers, cfg.hidden, cfg.embedding,
                                    cfg.attention, skip=cfg.skip_connections,
                                    attention_bias=cfg.attention_bias)

        self.premise_encoder = new_stack()
        if self.fusion_mode:
            self.decoder = fusion.init_decoder(rng, cfg.hidden, cfg.embedding,
                                               cfg.attention,
                                               attention_bias=cfg.attention_bias)
            feat = cfg.hidden if self.fusion_mode == "deep" else 2 * cfg.hidden
        else:
            self.hypothesis_encoder = self.premise_encoder if cfg.tie_encoders \
                else new_stack()
            feat = 2 * cfg.hidden
        self.head = heads.init_classifier_head(rng, feat, cfg.hidden, cfg.num_labels,
                                               dropout=cfg.dropout)

    def params(self) -> dict:
        out = {"embedding.weight": self.embeddings.weights}
        if self.fusion_mode:
            out.update(self.premise_encoder.named("encoder."))
            out.update(self.decoder.named("decoder."))
        elif self.cfg.tie_encoders:
            out.update(self.premise_encoder.named("encoder."))
        else:
            out.update(self.premise_encoder.named("premise."))
            out.update(self.hypothesis_encoder.named("hypothesis."))
        out.update(self.head.named())
        return out

    def l2_params(self) -> list:
        return [t for n, t in self.params().items() if n != "embedding.weight"]

    def _features(self, batch: Batch):
        cap = _capacity(self.cfg)
        prem_xs = _embed_steps(self.embeddings, batch.tokens)
        if self.fusion_mode:
            src, _ = fusion.encode(prem_xs, self.premise_encoder, cap, mask=batch.mask)
            hyp_xs = _embed_steps(self.embeddings, batch.tokens2)
            run = fusion.run_decoder(hyp_xs, src, self.decoder, self.fusion_mode, cap)
            return heads.mean_pool(ad.stack_slots(run.outputs), batch.mask2)
        hyp_xs = _embed_steps(self.embeddings, batch.tokens2)
        src_p, _ = fusion.encode(prem_xs, self.premise_encoder, cap)
        src_h, _ = fusion.encode(hyp_xs, self.hypothesis_encoder, cap)
        return ad.concat([heads.mean_pool(src_p.y, batch.mask),
                          heads.mean_pool(src_h.y, batch.mask2)], axis=1)

    def _logits(self, batch: Batch, training: bool, rng):
        return heads.head_logits(self._features(batch), self.head, training, rng)

    def loss(self, batch: Batch, training: bool = False, rng=None):
        logits = self._logits(batch, training, rng)
        nll = ad.masked_nll(logits, batch.labels)
        correct = int((logits.data.argmax(axis=1) == batch.labels).sum())
        return ad.mul(nll, 1.0 / batch.size), \
            {"examples": batch.size, "correct": correct, "nll": nll.item()}

    def evaluate(self, batches, dataset: str = "", split: str = "") -> EvalMetrics:
        total_nll, examples, correct = 0.0, 0, 0
        for batch in batches:
            logits = self._logits(batch, training=False, rng=None)
            total_nll += ad.masked_nll(logits, batch.labels).item()
            examples += batch.size
            correct += int((logits.data.argmax(axis=1) == batch.labels).sum())
        return EvalMetrics(nll=total_nll, tokens=examples,
                           accuracy=correct / examples if examples else None,
                           dataset=dataset, split=split)

    def attention_traces(self, premise_ids: np.ndarray, hypothesis_ids: np.ndarray):
        cap = _capacity(self.cfg)
        prem_xs = _embed_steps(self.embeddings, premise_ids[None, :])
        hyp_xs = _embed_steps(self.embeddings, hypothesis_ids[None, :])
        if self.fusion_mode:
            src, enc_traces = fusion.encode(prem_xs, self.premise_encoder, cap)
            run = fusion.run_decoder(hyp_xs, src, self.decoder, self.fusion_mode, cap)
            return {"encoder-intra": enc_traces, "intra": run.intra, "inter": run.inter}
        _, p_traces = fusion.encode(prem_xs, self.premise_encoder, cap)
        _, h_traces = fusion.encode(hyp_xs, self.hypothesis_encoder, cap)
        return {"premise-intra": p_traces, "hypothesis-intra": h_traces}


def build_model(cfg: RunConfig, vocab: Vocabulary, rng,
                embeddings: EmbeddingTable | None = None):
    if cfg.task == "lm":
        if cfg.model in ("seq2seq-shallow", "seq2seq-deep"):
            return Seq2SeqModel(cfg, vocab, rng, embeddings)
        return LanguageModel(cfg, vocab, rng, embeddings)
    if cfg.task == "sentiment":
        if cfg.model in ("seq2seq-shallow", "seq2seq-deep"):
            raise ConfigError("task sentiment has no source sequence for seq2seq models")
        return SentenceClassifier(cfg, vocab, rng, embeddings)
    return PairClassifier(cfg, vocab, rng, embeddings)
