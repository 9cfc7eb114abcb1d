"""Acceptance gate: the models learn the desk-scale synthetic tasks.

These are learning checks, not regression pins.  Each trains through
``train.run_train`` from a fixed (corpus seed, model seed) pair; the
seeds, budgets and bounds below were fixed before the first run and are
not to be re-picked to make a run pass.  A failure is a finding about
the models, to be reported as such.

Bracket language (``synthetic.bracket_corpus``): one rng seeded with the
corpus seed draws 40k training tokens, then 6k validation tokens.
``lstm`` and ``lstmn`` train with H = E = 32, Adam lr 0.01, gradient
clip 5, batch 16, 15 epochs (about 1,350 steps).  The metric is the mean
validation NLL of the ``close{k}`` targets under the best-validation
checkpoint; a uniform guess over the 16 bracket types scores
ln 16 = 2.773.  Bounds: ``lstmn`` <= 2.5, and at least 0.3 below
``lstm``.

Copy task (``synthetic.copy_pairs``): one rng seeded with the corpus
seed draws 800 training pairs, then 200 validation pairs.
``seq2seq-shallow`` and ``seq2seq-deep`` train with H = E = 32, Adam
lr 0.01, gradient clip 5, batch 16, 8 epochs (400 steps).  The metric
is the median of the last three epochs' (6-8) teacher-forced validation
accuracies.  Bounds: shallow >= 0.90, deep >= 0.70.  The metric was the
last epoch alone, which measured where a transient Adam dip fell: a
change that only reordered float sums once moved ``seq2seq-shallow``
(11, 3) from 0.98 at epoch 7 to 0.82 at epoch 8, and back to 0.99 by
epoch 10.  The median measures sustained learning and is not strictly
looser than the last epoch: 0.95, 0.95, 0.89 passes the shallow bound,
and 0.5, 0.5, 0.95 fails it.

Both tasks also run in float32, with the same seeds, budgets and bounds
(the bracket NLL scored in float32 too), and their trained parameters
must be float32.

Seed pairs (corpus, model), for both tasks: (11, 3) and (12, 4).
"""

import numpy as np
import pytest

from lstmn import autodiff as ad
from lstmn import checkpoint, config, data, models, synthetic, train
from lstmn.checkpoint import load_checkpoint
from lstmn.config import build_config

pytestmark = pytest.mark.acceptance

SEED_PAIRS = [(11, 3), (12, 4)]
COMMON = dict(task="lm", hidden="32", embedding="32", optimizer="adam", lr="0.01",
              grad_clip="5", batch_size="16", log_every="100000")


def run(tmp_path, name, lines_train, lines_val, **overrides):
    train_path, val_path = tmp_path / "train.txt", tmp_path / "val.txt"
    synthetic.write_lines(train_path, lines_train)
    synthetic.write_lines(val_path, lines_val)
    cfg = build_config(overrides=dict(COMMON, train_data=str(train_path),
                                      val_data=str(val_path), **overrides))
    return cfg, train.run_train(cfg, str(tmp_path / name))


def close_nll(cfg, result) -> float:
    """Mean validation NLL of the close{k} targets under the run's
    best-validation checkpoint."""
    vocab = data.Vocabulary.load(f"{result.out_dir}/vocab.txt")
    model = models.build_model(cfg, vocab, np.random.default_rng([cfg.seed, 0]))
    checkpoint.load_into(model.params(), result.checkpoint_path)
    seqs = train.prepare_examples(cfg, data.load_dataset(cfg.val_data, config.data_kind(cfg)),
                                  vocab)[0]
    close = np.array([i for i, tok in enumerate(vocab.index_to_token)
                      if tok.startswith("close")])
    w, b = model.proj.w.data, model.proj.b.data
    total, count = 0.0, 0
    with ad.no_grad():
        for batch in data.batchify(seqs, cfg.batch_size, seed=cfg.seed):
            # The states are one packed block: the live positions, step-major.
            states, targets, mask = model._predict(batch)
            tgt = targets.T.reshape(-1)[np.flatnonzero(mask.T.reshape(-1))]
            z = states.data @ w.T + b
            top = z.max(axis=1, keepdims=True)
            logp = z - top - np.log(np.exp(z - top).sum(axis=1, keepdims=True))
            pick = np.isin(tgt, close)
            total -= logp[pick, tgt[pick]].sum()
            count += int(pick.sum())
    return total / count


def recall_brackets(tmp_path, corpus_seed, model_seed, precision):
    """Train ``lstm`` and ``lstmn`` on the bracket language at
    ``precision``, scoring each in it; returns their results after
    checking the NLL bounds."""
    rng = np.random.default_rng(corpus_seed)
    lines_train = synthetic.bracket_corpus(rng, 40000)
    lines_val = synthetic.bracket_corpus(rng, 6000)
    nll, results = {}, []
    try:
        for name in ("lstm", "lstmn"):
            cfg, result = run(tmp_path, name, lines_train, lines_val, model=name, epochs="15",
                              seed=str(model_seed), precision=precision)
            nll[name] = close_nll(cfg, result)
            results.append(result)
    finally:
        ad.set_default_dtype(np.float64)
    assert nll["lstmn"] <= 2.5 and nll["lstmn"] <= nll["lstm"] - 0.3, nll
    return results


@pytest.mark.parametrize("corpus_seed,model_seed", SEED_PAIRS)
def test_lstmn_recalls_brackets_that_lstm_cannot(tmp_path, corpus_seed, model_seed):
    recall_brackets(tmp_path, corpus_seed, model_seed, "float64")


@pytest.mark.parametrize("corpus_seed,model_seed", SEED_PAIRS)
def test_lstmn_recalls_brackets_that_lstm_cannot_in_float32(tmp_path, corpus_seed, model_seed):
    for result in recall_brackets(tmp_path, corpus_seed, model_seed, "float32"):
        stored = load_checkpoint(result.checkpoint_path)
        assert stored and {a.dtype for a in stored.values()} == {np.dtype(np.float32)}


def learn_to_copy(tmp_path, corpus_seed, model_seed, model_name, bound, precision):
    """Train on the copy task at ``precision``; returns the run's result
    after checking the accuracy bound."""
    rng = np.random.default_rng(corpus_seed)
    lines_train = synthetic.copy_pairs(rng, 800)
    lines_val = synthetic.copy_pairs(rng, 200)
    try:
        _, result = run(tmp_path, model_name, lines_train, lines_val, model=model_name,
                        epochs="8", seed=str(model_seed), precision=precision)
    finally:
        ad.set_default_dtype(np.float64)
    assert result.steps == 400
    accuracies = [m.accuracy for m in result.val_metrics]
    assert np.median(accuracies[-3:]) >= bound, accuracies
    return result


COPY_CASES = [("seq2seq-shallow", 0.90), ("seq2seq-deep", 0.70)]


@pytest.mark.parametrize("corpus_seed,model_seed", SEED_PAIRS)
@pytest.mark.parametrize("model_name,bound", COPY_CASES)
def test_fusion_decoders_learn_to_copy(tmp_path, corpus_seed, model_seed, model_name, bound):
    learn_to_copy(tmp_path, corpus_seed, model_seed, model_name, bound, "float64")


@pytest.mark.parametrize("corpus_seed,model_seed", SEED_PAIRS)
@pytest.mark.parametrize("model_name,bound", COPY_CASES)
def test_fusion_decoders_learn_to_copy_in_float32(tmp_path, corpus_seed, model_seed,
                                                  model_name, bound):
    result = learn_to_copy(tmp_path, corpus_seed, model_seed, model_name, bound, "float32")
    stored = load_checkpoint(result.checkpoint_path)
    assert stored and {a.dtype for a in stored.values()} == {np.dtype(np.float32)}
