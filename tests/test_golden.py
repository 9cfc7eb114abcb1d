"""Seeded numerics of every model family, pinned to recorded values.

For each family this records the checkpoint names in ``params()`` order,
the L2 parameter order, per-parameter init sums, three Adam steps (loss
and global gradient norm, with training-mode dropout), evaluation
NLL/tokens/accuracy after them, greedy ``generate`` outputs for seq2seq
language models, and every attention-trace distribution.  The values in
``golden.json`` were recorded before the model layer was restructured;
any refactor of ``models``/``fusion``/``heads`` must reproduce them.

Regenerate only for a deliberate change of numerics:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os

import numpy as np
import pytest

from lstmn import autodiff as ad
from lstmn import data, models, optim
from lstmn.config import ConfigError, build_config

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")
RTOL = 1e-10    # the tolerance of perfbench/reference.json

WORDS = [f"w{i}" for i in range(8)]

FAMILIES = {
    "lm-lstm": dict(task="lm", model="lstm", layers=2),
    "lm-lstmn": dict(task="lm", model="lstmn"),
    "lm-lstmn-stack": dict(task="lm", model="lstmn-stack", layers=2,
                           skip_connections="true", capacity=3),
    "lm-seq2seq-shallow": dict(task="lm", model="seq2seq-shallow"),
    "lm-seq2seq-deep": dict(task="lm", model="seq2seq-deep", capacity=3),
    "sentiment-lstm": dict(task="sentiment", model="lstm"),
    "sentiment-lstmn": dict(task="sentiment", model="lstmn"),
    "sentiment-lstmn-stack": dict(task="sentiment", model="lstmn-stack", layers=2,
                                  capacity=3),
    "nli-lstmn": dict(task="nli", model="lstmn"),
    "nli-lstmn-tied": dict(task="nli", model="lstmn", tie_encoders="true",
                           attention_bias="false"),
    "nli-lstmn-stack": dict(task="nli", model="lstmn-stack", layers=2,
                            skip_connections="true", capacity=3),
    "nli-seq2seq-shallow": dict(task="nli", model="seq2seq-shallow"),
    "nli-seq2seq-deep": dict(task="nli", model="seq2seq-deep", capacity=3),
}

SENTENCES = [[1, 2, 3, 4, 5], [6, 7], [2, 2, 5, 1], [3], [7, 6, 5, 4, 3, 2], [4, 1]]
TARGETS = [[5, 4], [7, 6, 2], [1], [3, 3, 4, 1], [2, 6], [6, 1, 7]]


def family_config(name):
    overrides = dict(hidden="5", embedding="4", attention="3", optimizer="adam",
                     lr="0.05", l2="0.001", batch_size="3", seed="3",
                     train_data="unused")
    overrides.update({k: str(v) for k, v in FAMILIES[name].items()})
    return build_config(overrides=overrides)


def family_batches(cfg, vocab):
    """Two padded batches in the shape the family's task consumes."""
    seqs = [vocab.encode(WORDS[i] for i in s) for s in SENTENCES]
    seqs2 = [vocab.encode(WORDS[i] for i in s) for s in TARGETS]
    labels = None
    if cfg.task == "lm" and cfg.model not in ("seq2seq-shallow", "seq2seq-deep"):
        seqs = [np.concatenate(([vocab.bos], s, [vocab.eos])) for s in seqs]
        seqs2 = None
    elif cfg.task == "sentiment":
        labels, seqs2 = [i % cfg.num_labels for i in range(len(seqs))], None
    else:
        labels = [i % 3 for i in range(len(seqs))]
    return data.batchify(seqs, cfg.batch_size, seed=cfg.seed, labels=labels,
                         seqs2=seqs2)


def _weights(stream) -> list:
    return [None if w is None else w[0].tolist() for w in stream]


def record(name) -> dict:
    """Everything pinned for one family, as JSON-ready values."""
    cfg = family_config(name)
    vocab = data.Vocabulary(WORDS)
    model = models.build_model(cfg, vocab, np.random.default_rng([cfg.seed, 0]))
    params = model.params()
    tensors = list(params.values())
    by_id = {id(t): n for n, t in params.items()}
    out = {"names": list(params),
           "l2_names": [by_id[id(t)] for t in model.l2_params()],
           "init_sums": [float(t.data.sum()) for t in tensors]}

    batches = family_batches(cfg, vocab)
    opt = optim.Adam(tensors, lr=cfg.lr)
    dropout_rng = np.random.default_rng([cfg.seed, 1])
    losses, norms = [], []
    for step in range(3):
        ad.zero_grad(tensors)
        loss, _ = model.loss(batches[step % len(batches)], training=True, rng=dropout_rng)
        penalty = None
        for t in model.l2_params():
            term = ad.sum_all(ad.mul(t, t))
            penalty = term if penalty is None else ad.add(penalty, term)
        loss = ad.add(loss, ad.mul(penalty, cfg.l2))
        ad.backward(loss, params=tensors)
        norms.append(optim.global_grad_norm(tensors))
        opt.step()
        losses.append(loss.item())
    out["losses"], out["grad_norms"] = losses, norms

    metrics = model.evaluate(batches)
    out["eval"] = [metrics.nll, metrics.tokens, metrics.accuracy]

    src = vocab.encode(["w1", "w3", "w2", "w7", "w2"])
    tgt = vocab.encode(["w4", "w5", "w0", "w6"])
    try:
        traces = model.attention_traces(src, tgt) if cfg.task == "nli" or \
            isinstance(model, models.Seq2SeqModel) else model.attention_traces(src)
        out["traces"] = {k: _weights(v) for k, v in traces.items()}
    except ConfigError as err:
        out["traces"] = f"ConfigError: {err}"
    if isinstance(model, models.Seq2SeqModel):
        # Barely trained weights emit </s> at once; push it down so that
        # greedy decoding runs to the cap.
        model.proj.b.data[vocab.eos] -= 10.0
        out["generate"] = [model.generate(src, max_len=7),
                           model.generate(tgt, max_len=3)]
    return out


def _assert_close(got, want, path):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            _assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0, err_msg=path)
    else:
        assert got == want, path


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_family_is_pinned(golden):
    assert sorted(golden) == sorted(FAMILIES)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_matches_golden(name, golden):
    _assert_close(record(name), golden[name], name)


if __name__ == "__main__":
    values = {name: record(name) for name in FAMILIES}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
