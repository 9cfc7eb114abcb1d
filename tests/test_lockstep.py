"""``tools/lockstep.py`` on stubbed operations, a stubbed clock and a
stubbed ``git archive``: the A B, B A alternation, the per-step ratios
and their summary, the output comparison, the anchor tree and the JSON
entry.  No benchmark runs."""

import importlib.util
import io
import json
import os
import tarfile
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "lockstep", os.path.join(ROOT, "tools", "lockstep.py"))
lockstep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lockstep)


class Clock:
    """A clock that each stubbed operation advances by its own cost."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def stubbed(clock, calls, costs, outputs):
    """{op: {side: fn}} whose call i of (op, side) takes costs[op][side][i]
    seconds and returns outputs[op][side][i]."""
    def make(op, side):
        count = iter(range(len(costs[op][side])))

        def fn():
            i = next(count)
            calls.append((op, side))
            clock.now += costs[op][side][i]
            return outputs[op][side][i]
        return fn
    return {op: {side: make(op, side) for side in lockstep.SIDES} for op in costs}


def test_sides_take_turns_a_b_then_b_a():
    clock, calls = Clock(), []
    costs = {op: {side: [1.0] * 4 for side in lockstep.SIDES} for op in ("train", "eval")}
    outputs = {op: {side: [0.0] * 4 for side in lockstep.SIDES} for op in costs}
    lockstep.alternate(stubbed(clock, calls, costs, outputs), 4, clock)
    p, c = "parent", "change"
    assert calls == [("train", p), ("train", c), ("eval", p), ("eval", c),
                     ("train", c), ("train", p), ("eval", c), ("eval", p)] * 2


def test_ratios_medians_wins_and_matches():
    # The change takes 0.9, 0.8, 1.1, 0.9 and 0.7 of the parent's time;
    # its fourth output differs beyond the tolerance, its fifth within it.
    clock, calls = Clock(), []
    parent = [0.10, 0.20, 0.10, 0.30, 0.10]
    change = [t * r for t, r in zip(parent, [0.9, 0.8, 1.1, 0.9, 0.7])]
    want = [1.0, (2.0, 3, 1), [4, 5], 1.5, 2.0]
    got = [1.0, (2.0, 3, 1), [4, 5], 1.5 * (1 + 1e-6), 2.0 * (1 + 1e-12)]
    results = lockstep.alternate(stubbed(clock, calls, {"train": {"parent": parent,
                                                                  "change": change}},
                                         {"train": {"parent": want, "change": got}}), 5, clock)
    assert results["train"]["parent"][0] == pytest.approx(parent)
    row = lockstep.summarize(results, 1e-10)["train"]
    assert row["parent_s"] == pytest.approx(0.10)
    assert row["change_s"] == pytest.approx(0.11)
    assert row["ratio"] == pytest.approx((0.8, 0.9, 0.9))
    assert (row["wins"], row["steps"], row["matched"]) == (4, 5, 4)
    line = lockstep.report({"train": row})[1].split()
    assert line[:4] == ["train", "100", "110", "0.900"]


def test_bootstrap_interval_holds_the_median_and_repeats():
    # Twenty steps whose change/parent ratios spread over 0.80..1.18: the
    # interval holds their median, lies inside their range, and a second
    # run over the same times gives it again, bit for bit.
    parent = [0.125] * 20
    change = [0.125 * r for r in [0.80 + 0.02 * ((7 * i) % 20) for i in range(20)]]
    rows = []
    for _ in range(2):
        clock, calls = Clock(), []
        outputs = {"train": {side: [0.0] * 20 for side in lockstep.SIDES}}
        results = lockstep.alternate(stubbed(clock, calls, {"train": {
            "parent": parent, "change": change}}, outputs), 20, clock)
        rows.append(lockstep.summarize(results, 1e-10)["train"])
    lo, hi = rows[0]["ratio_ci"]
    assert 0.80 <= lo < rows[0]["ratio"][1] < hi <= 1.18
    assert rows[0]["ratio_ci"] == rows[1]["ratio_ci"]
    assert f"[{lo:.3f}, {hi:.3f}]" in lockstep.report({"train": rows[0]})[1]


def test_outputs_compare_ints_exactly_and_sequences_item_by_item():
    assert lockstep.same([1, 2, 3], [1, 2, 3], 1e-10)
    assert not lockstep.same([1, 2, 3], [1, 2, 4], 1e-10)
    assert not lockstep.same([1, 2], [1, 2, 3], 1e-10)
    assert lockstep.same((0.5, 7), (0.5 + 1e-12, 7), 1e-10)


def test_unknown_op_is_refused(capsys):
    with pytest.raises(SystemExit):
        lockstep.main(["a", "b", "--workload", "lm-long-tape", "--ops", "train,fly",
                       "--steps", "2"])
    assert "--ops" in capsys.readouterr().err


def test_json_entry_is_added_to_the_bench_pairs_list(monkeypatch, tmp_path, capsys):
    # A list that holds one bench_pairs entry gains a lockstep entry per
    # invocation: the workload, seed, steps and the per-op table.
    clock, calls = Clock(), []
    # Costs in eighths of a second, so the stubbed clock adds exactly.
    costs = {"train": {"parent": [0.25, 0.25, 0.5, 0.25], "change": [0.125, 0.375, 0.25, 0.125]},
             "decode": {"parent": [0.25] * 4, "change": [0.25] * 4}}
    outputs = {op: {"parent": [1.0, 2.0, 3.0, 4.0], "change": [1.0, 2.0, 3.5, 4.0]}
               for op in costs}
    ops = stubbed(clock, calls, costs, outputs)
    harness = types.SimpleNamespace(REFERENCE_RTOL=1e-10)
    monkeypatch.setattr(lockstep, "side_ops", lambda checkout, side, workload, seed, names:
                        ({name: ops[name][side] for name in names}, harness))
    alternate = lockstep.alternate
    monkeypatch.setattr(lockstep, "alternate", lambda fns, steps: alternate(fns, steps, clock))
    path = tmp_path / "bench.json"
    path.write_text(json.dumps([{"tool": "bench_pairs", "workload": "copy-seq2seq"}]))
    assert lockstep.main(["a", "b", "--workload", "lm-long-tape", "--ops", "train,decode",
                          "--steps", "4", "--seed", "3", "--json", str(path)]) == 0
    capsys.readouterr()
    entries = json.loads(path.read_text())
    assert [e["tool"] for e in entries] == ["bench_pairs", "lockstep"]
    entry = entries[1]
    assert (entry["workload"], entry["seed"], entry["steps"]) == ("lm-long-tape", 3, 4)
    train, decode = entry["ops"]["train"], entry["ops"]["decode"]
    assert (train["parent_s"], train["change_s"]) == (0.25, 0.1875)
    assert train["ratio"] == pytest.approx([0.5, 0.5, 0.75])
    assert (train["wins"], train["steps"], train["matched"]) == (3, 4, 3)
    assert decode["ratio"] == pytest.approx([1.0, 1.0, 1.0]) and decode["wins"] == 0
    assert train["ratio_ci"][0] <= 0.5 <= train["ratio_ci"][1]
    assert decode["ratio_ci"] == pytest.approx([1.0, 1.0])


def test_anchor_times_the_git_archive_of_rev_as_the_parent(monkeypatch, tmp_path, capsys):
    # With --anchor the parent is REV's tree, unpacked from a stubbed
    # ``git archive`` into a temporary directory that is gone afterwards,
    # and the JSON entry names the anchor.
    tree = io.BytesIO()
    with tarfile.open(fileobj=tree, mode="w") as tar:
        marker = b"the anchor tree"
        info = tarfile.TarInfo("src/MARKER")
        info.size = len(marker)
        tar.addfile(info, io.BytesIO(marker))
    commands = []

    def git(cmd, check, capture_output):
        commands.append(cmd)
        return types.SimpleNamespace(stdout=tree.getvalue())

    monkeypatch.setattr(lockstep.subprocess, "run", git)
    clock, calls = Clock(), []
    ops = stubbed(clock, calls, {"eval": {side: [0.25] * 2 for side in lockstep.SIDES}},
                  {"eval": {side: [1.0] * 2 for side in lockstep.SIDES}})
    checkouts = {}

    def side_ops(checkout, side, workload, seed, names):
        checkouts[side] = checkout
        if side == "parent":
            with open(os.path.join(checkout, "src", "MARKER"), "rb") as fh:
                checkouts["marker"] = fh.read()
        return {name: ops[name][side] for name in names}, types.SimpleNamespace(
            REFERENCE_RTOL=1e-10)

    monkeypatch.setattr(lockstep, "side_ops", side_ops)
    alternate = lockstep.alternate
    monkeypatch.setattr(lockstep, "alternate", lambda fns, steps: alternate(fns, steps, clock))
    path = tmp_path / "bench.json"
    assert lockstep.main(["--anchor", "3f17e58", str(tmp_path), "--workload", "copy-seq2seq",
                          "--ops", "eval", "--steps", "2", "--json", str(path)]) == 0
    capsys.readouterr()
    assert commands == [["git", "-C", lockstep.ROOT, "archive", "--format=tar", "3f17e58"]]
    assert checkouts["marker"] == marker and checkouts["change"] == str(tmp_path)
    assert not os.path.exists(checkouts["parent"])
    entry = json.loads(path.read_text())[0]
    assert (entry["anchor"], entry["workload"], entry["ops"]["eval"]["steps"]) == \
        ("3f17e58", "copy-seq2seq", 2)


@pytest.mark.parametrize("dirs", [["a"], ["a", "b"]])
def test_anchor_takes_the_change_dir_alone(dirs, capsys):
    # Two directories without --anchor, one with it; anything else is
    # refused before any checkout is read.
    argv = dirs + ["--workload", "lm-long-tape", "--steps", "2"]
    with pytest.raises(SystemExit):
        lockstep.main(argv if len(dirs) == 1 else ["--anchor", "HEAD"] + argv)
    assert "CHANGE_DIR" in capsys.readouterr().err
