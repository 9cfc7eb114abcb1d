"""Corpus ingestion: vocabulary, pretrained embeddings, dataset loaders,
and masked batch construction.

File formats:
  lm-text            one sentence per line, whitespace-tokenized
  labeled-sentences  label<TAB>sentence, the label an integer 0..4
  sentence-pairs     label<TAB>premise<TAB>hypothesis (lowercased on load;
                     the unknown label "-" drops the pair)
  embeddings         token v1 ... vd, space-separated finite decimal text
  vocabulary         one token per line; index = line number

Every file is UTF-8 text; other bytes, like any malformed line, are a
``DataFormatError`` naming the path and the line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .cells import glorot
from .config import ConfigError, text_lines

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<s>", "</s>"
RESERVED = (PAD, UNK, BOS, EOS)

UNKNOWN_PAIR_LABEL = "-"


class DataFormatError(ValueError):
    """Malformed input file; the message carries the line number."""


class Vocabulary:
    """Bidirectional token<->index map with stable reserved slots."""

    def __init__(self, tokens: list):
        self.index_to_token = list(RESERVED) + list(tokens)
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}

    def __len__(self) -> int:
        return len(self.index_to_token)

    @property
    def pad(self) -> int:
        return self.token_to_index[PAD]

    @property
    def unk(self) -> int:
        return self.token_to_index[UNK]

    @property
    def bos(self) -> int:
        return self.token_to_index[BOS]

    @property
    def eos(self) -> int:
        return self.token_to_index[EOS]

    def encode(self, tokens) -> np.ndarray:
        unk = self.unk
        return np.array([self.token_to_index.get(t, unk) for t in tokens],
                        dtype=np.int64)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.index_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        tokens, first = [], {}
        for lineno, line in text_lines(path, DataFormatError):
            tokens.append(line.rstrip("\n"))
            if first.setdefault(tokens[-1], lineno) != lineno:
                raise DataFormatError(f"{path}:{lineno}: duplicate token {tokens[-1]!r}, "
                                      f"first on line {first[tokens[-1]]}")
        if tuple(tokens[:len(RESERVED)]) != RESERVED:
            raise DataFormatError(f"{path}: reserved token block missing or reordered")
        return cls(tokens[len(RESERVED):])


def build_vocab(token_stream, min_freq: int = 1,
                max_size: Optional[int] = None) -> Vocabulary:
    """Frequency-sorted vocabulary with deterministic (freq desc, token
    asc) tie-breaking; reserved tokens are prepended."""
    counts = Counter(token_stream)
    if not counts:
        raise DataFormatError("cannot build a vocabulary from an empty stream")
    kept = [(t, c) for t, c in counts.items() if c >= min_freq and t not in RESERVED]
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    if max_size:
        kept = kept[:max_size]
    return Vocabulary([t for t, _ in kept])


@dataclass
class EmbeddingTable:
    """|V| x e matrix with per-row provenance, driving the first-epoch
    gradient policies: True rows came from the pretrained file."""
    weights: Tensor
    pretrained: np.ndarray   # (|V|,) bool

    @property
    def dim(self) -> int:
        return self.weights.data.shape[1]


def init_embeddings(rng, vocab: Vocabulary, dim: int) -> EmbeddingTable:
    weights = glorot(rng, len(vocab), dim)
    weights.data[vocab.pad] = 0.0
    return EmbeddingTable(weights=weights, pretrained=np.zeros(len(vocab), dtype=bool))


def load_pretrained(path: str, vocab: Vocabulary, seed: int = 0) -> EmbeddingTable:
    """Pretrained vectors for matching tokens; missing rows drawn from a
    seeded standard Gaussian and flagged as OOV.  The dimension comes
    from the first row and is enforced afterwards.  A first line of
    exactly two integers is a fastText ``.vec`` header "N D": it is not a
    row, and its D is the width every row must have."""
    vectors = {}
    dim = None
    for lineno, line in text_lines(path, DataFormatError):
        # fastText rows end in a space; GloVe tokens may hold other whitespace.
        parts = line.rstrip().split(" ")
        if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
            dim = int(parts[1])
            if dim < 1:
                raise DataFormatError(f"{path}:1: header gives dimension {dim}")
            continue
        if len(parts) < 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'token v1 ... vd'")
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise DataFormatError(
                f"{path}:{lineno}: row has {len(values)} values, expected {dim}")
        try:
            vectors[token] = np.array([float(v) for v in values])
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-numeric value") from None
        if not np.isfinite(vectors[token]).all():
            raise DataFormatError(f"{path}:{lineno}: non-finite value (nan or inf)")
    if dim is None:
        raise DataFormatError(f"{path}: empty embedding file")

    rng = np.random.default_rng(seed)
    weights = np.empty((len(vocab), dim))
    pretrained = np.zeros(len(vocab), dtype=bool)
    for i, token in enumerate(vocab.index_to_token):
        if token in vectors:
            weights[i] = vectors[token]
            pretrained[i] = True
        else:
            weights[i] = rng.normal(loc=0.0, scale=1.0, size=dim)
    weights[vocab.pad] = 0.0
    pretrained[vocab.pad] = False
    return EmbeddingTable(weights=Tensor(weights, requires_grad=True),
                          pretrained=pretrained)


@dataclass
class LoadedDataset:
    path: str
    kind: str
    examples: list
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.examples)

    def tokens(self):
        for ex in self.examples:
            if self.kind == "lm-text":
                yield from ex
            elif self.kind == "labeled-sentences":
                yield from ex[1]
            else:
                yield from ex[1]
                yield from ex[2]


def load_dataset(path: str, kind: str) -> LoadedDataset:
    """Parse one split.  Examples are token lists:
    lm-text -> [tokens]; labeled-sentences -> (integer label, tokens);
    sentence-pairs -> (label, premise_tokens, hypothesis_tokens)."""
    if kind not in ("lm-text", "labeled-sentences", "sentence-pairs"):
        raise ConfigError(f"unknown dataset kind {kind!r}")
    examples = []
    dropped = 0
    for lineno, line in text_lines(path, DataFormatError):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if kind == "lm-text":
            examples.append(line.split())
            continue
        parts = line.split("\t")
        if kind == "labeled-sentences":
            if len(parts) != 2 or not parts[1].strip():
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'label<TAB>sentence'")
            try:
                label = int(parts[0])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: sentiment label "
                                      f"{parts[0].strip()!r} is not an integer") from None
            if not 0 <= label <= 4:
                raise DataFormatError(f"{path}:{lineno}: sentiment label {label} outside 0..4")
            examples.append((label, parts[1].split()))
        else:
            if len(parts) != 3 or not parts[1].strip() or not parts[2].strip():
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'label<TAB>premise<TAB>hypothesis'")
            label = parts[0].strip().lower()
            if label == UNKNOWN_PAIR_LABEL:
                dropped += 1
                continue
            examples.append((label, parts[1].lower().split(),
                             parts[2].lower().split()))
    return LoadedDataset(path=path, kind=kind, examples=examples, dropped=dropped)


@dataclass
class Batch:
    """Padded token block(s) with 1/0 masks; labels are task-dependent."""
    tokens: np.ndarray                  # (B, L) int64
    mask: np.ndarray                    # (B, L) float, left-aligned
    labels: Optional[np.ndarray] = None
    tokens2: Optional[np.ndarray] = None
    mask2: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.tokens.shape[0]


def _pad_block(seqs, pad_index: int):
    width = max(len(s) for s in seqs)
    tokens = np.full((len(seqs), width), pad_index, dtype=np.int64)
    mask = np.zeros((len(seqs), width))
    for i, s in enumerate(seqs):
        tokens[i, :len(s)] = s
        mask[i, :len(s)] = 1.0
    return tokens, mask


def batchify(seqs: list, batch_size: int, seed: int, pad_index: int = 0,
             labels: Optional[list] = None, seqs2: Optional[list] = None,
             bucketing: bool = False) -> list:
    """Deterministically shuffled padded batches.

    With ``bucketing``, examples are ordered by length (seeded jitter as
    the tie-break) before slicing, and the batch order is shuffled, which
    cuts padding without fixing the batch composition across seeds.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not seqs:
        raise DataFormatError("cannot batch an empty dataset")
    n = len(seqs)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    if bucketing:
        lengths = np.array([len(seqs[i]) + (len(seqs2[i]) if seqs2 else 0)
                            for i in order])
        order = order[np.argsort(lengths, kind="stable")]
        starts = np.arange(0, n, batch_size)
        starts = starts[rng.permutation(len(starts))]
    else:
        starts = np.arange(0, n, batch_size)

    batches = []
    for start in starts:
        idx = order[start:start + batch_size]
        tokens, mask = _pad_block([seqs[i] for i in idx], pad_index)
        batch = Batch(tokens=tokens, mask=mask)
        if labels is not None:
            batch.labels = np.asarray([labels[i] for i in idx])
        if seqs2 is not None:
            batch.tokens2, batch.mask2 = _pad_block([seqs2[i] for i in idx], pad_index)
        batches.append(batch)
    return batches
