"""The benchmark times the loop users run, and tracing changes nothing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import itertools
import os
import re
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import harness  # noqa: E402
import tracing  # noqa: E402
from lstmn import config, synthetic, train  # noqa: E402


def tiny_config(tmp_path, model: str):
    rng = np.random.default_rng(9)
    train_path, val_path = tmp_path / "train.txt", tmp_path / "val.txt"
    if model.startswith("seq2seq"):
        synthetic.write_lines(train_path, synthetic.copy_pairs(rng, 40))
        synthetic.write_lines(val_path, synthetic.copy_pairs(rng, 10))
        extra = dict(optimizer="adam", lr="0.01", grad_clip="5")
    else:
        synthetic.write_lines(train_path, synthetic.bracket_corpus(rng, 1200))
        synthetic.write_lines(val_path, synthetic.bracket_corpus(rng, 300))
        extra = {}
    return config.build_config(overrides=dict(
        task="lm", model=model, hidden="12", embedding="8", epochs="1", batch_size="8",
        seed="2", log_every="1000", train_data=str(train_path), val_data=str(val_path),
        **extra))


@pytest.mark.parametrize("model", ["lstmn", "seq2seq-deep"])
def test_step_sequence_reproduces_run_train(tmp_path, model):
    cfg = tiny_config(tmp_path, model)
    result = train.run_train(cfg, str(tmp_path / "out"))
    with open(tmp_path / "out" / "train.log", encoding="utf-8") as fh:
        logged = [float(m) for m in re.findall(r"loss=(\S+)", fh.read())]

    run = harness.set_up(cfg)
    losses = [harness.train_step(run, b)[0] for b in run.batches]

    assert len(losses) == result.steps == len(logged) > 1
    assert losses == result.losses                      # bit for bit
    assert [f"{v:.6f}" for v in losses] == [f"{v:.6f}" for v in logged]


def test_traced_run_matches_untraced_and_restores(tmp_path):
    cfg = tiny_config(tmp_path, "seq2seq-deep")
    targets = tracing.TIMED + tracing.kernels()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    plain = harness.set_up(cfg)
    want = [harness.train_step(plain, b)[0] for b in plain.batches]
    tracer = tracing.Tracer(targets)
    with tracer:
        traced = harness.set_up(cfg)
        got = [harness.train_step(traced, b)[0] for b in traced.batches]

    assert got == want
    assert tracer.count("autodiff.") > 0 and tracer.durations("fusion.run_decoder")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{attr} left wrapped"


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    cfg = tiny_config(tmp_path, "lstmn")
    run = harness.set_up(cfg)
    tracer = tracing.Tracer([(tracing.cells, "run_stack"), (tracing.cells, "intra_attend")])
    with tracer:
        harness.train_step(run, run.batches[0])
    total = tracer.durations("cells.run_stack")
    own = tracer.durations("cells.run_stack", self_time=True)
    intra = sum(tracer.durations("cells.intra_attend"))
    assert len(total) == 1 and own[0] == pytest.approx(total[0] - intra)
    assert all(s[3] >= 0 for s in tracer.spans if s[0] == "cells.intra_attend")


def test_reference_check_separates_rounding_from_model_changes():
    want = {"losses": [3.5, 3.4], "eval_nll": 100.0, "eval_hits": 7,
            "decode": [[1, 2, 3], [4]]}
    rounding = {"losses": [3.5 * (1 + 1e-15), 3.4], "eval_nll": 100.0 * (1 - 1e-14),
                "eval_hits": 7, "decode": [[1, 2, 3], [4]]}
    changed = {"losses": [3.5, 3.4001], "eval_nll": 100.0, "eval_hits": 6,
               "decode": [[1, 2, 3], [5]]}
    assert harness.reference_mismatches(rounding, want) == []
    assert harness.reference_mismatches(changed, want) == ["loss[1]", "eval", "decode[1]"]
    assert harness.reference_ops(want) == 5


def test_raising_operation_has_no_result():
    def op(i):
        raise FloatingPointError("boom")
    seconds, result = harness.timed(op, 1)
    assert result is None and seconds >= 0
    assert harness.timed(lambda i: i + 1, 1)[1] == 2


def test_interleave_follows_shares_then_tops_up_minimums():
    def busy(ms):
        def op(_):
            end = time.perf_counter() + ms / 1e3
            while time.perf_counter() < end:
                pass
        return op
    a = harness.Phase("a", busy(1), itertools.count(), 0.75, 1)
    b = harness.Phase("b", busy(1), itertools.count(), 0.25, 1)
    harness.interleave([a, b], 0.2)
    assert 2.0 < a.spent / b.spent < 4.5

    c = harness.Phase("c", lambda i: i, itertools.count(), 0.5, 3)
    d = harness.Phase("d", lambda i: i, itertools.count(), 0.5, 1, max_ops=1)
    harness.interleave([c, d], 0.0)
    assert c.results == [0, 1, 2] and d.results == [0]
