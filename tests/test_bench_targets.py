"""The benchmark's tracer wraps package functions by name and skips a
name it cannot find, so a rename in ``src/`` would drop its span in
silence.  Every timed target must still resolve, and the per-layer
probes of a traced run must still run against the package's API."""

import math
import os
import sys

import numpy as np
import pytest

from lstmn import config, synthetic

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import harness  # noqa: E402
import tracing  # noqa: E402


def test_every_timed_target_resolves():
    missing = [tracing._label(owner, attr) for owner, attr in tracing.TIMED
               if not hasattr(owner, attr)]
    assert missing == []
    assert len(tracing.Tracer(tracing.TIMED).targets) == len(tracing.TIMED)


def _numbers(value):
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _numbers(v)]
    return [value]


@pytest.mark.parametrize("model", ["lstmn", "seq2seq-deep", "seq2seq-shallow"])
def test_traced_run_probes_give_finite_numbers(tmp_path, model):
    rng = np.random.default_rng(3)
    if model == "lstmn":
        train = synthetic.bracket_corpus(rng, 200)
        val = synthetic.bracket_corpus(rng, 60)
    else:
        train, val = synthetic.copy_pairs(rng, 12), synthetic.copy_pairs(rng, 4)
    paths = {}
    for split, lines in (("train", train), ("val", val)):
        paths[f"{split}_data"] = str(tmp_path / f"{split}.txt")
        synthetic.write_lines(paths[f"{split}_data"], lines)
    cfg = config.build_config(overrides=dict(
        task="lm", model=model, hidden=4, embedding=3, optimizer="adam", lr=1e-3,
        grad_clip=5.0, batch_size=2, **paths))
    run = harness.set_up(cfg)
    batch, val_batch = run.batches[0], harness.val_batches(run)[0]

    probes = tracing.layer_probes(run, batch, 1)
    assert set(probes) >= {"embed", "lm_loss", "run_stack", "decoder", "encode"}
    values = _numbers(list(probes.values()))
    # 40 slots grow the tape past ``Tapes.INITIAL_SLOTS``, as the
    # benchmark's mid and long tape buckets do.
    values += [tracing.intra_attend_probe(run, slots, 2, 1) for slots in (8, 40)]
    values += _numbers(tracing.memory_peaks(run, batch, val_batch))
    assert values and all(math.isfinite(v) for v in values)
