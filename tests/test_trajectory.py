"""``tools/trajectory.py`` on canned benchmark records: anchored lockstep
entries only, grouped by workload and op, in PR order.  No benchmark
runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "trajectory", os.path.join(ROOT, "tools", "trajectory.py"))
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def lockstep_entry(workload, ratios, anchor=None):
    """A ``tools/lockstep.py --json`` entry with per-op (median, lo, hi)."""
    entry = {"tool": "lockstep", "workload": workload, "seed": 0, "steps": 40,
             "ops": {op: {"parent_s": 0.1, "change_s": 0.1, "ratio": [lo, med, hi],
                          "ratio_ci": [lo, hi], "wins": 20, "steps": 40, "matched": 40}
                     for op, (med, lo, hi) in ratios.items()}}
    return entry if anchor is None else {**entry, "anchor": anchor}


def write(tmp_path, pr, entries):
    path = tmp_path / f"BENCH_{pr}.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_anchored_ratios_per_workload_and_op_in_pr_order(tmp_path, capsys):
    # PR 100 is given before PR 27 and sorts after it (numerically, not
    # as text); parent-relative lockstep and bench_pairs entries are left
    # out.
    later = write(tmp_path, 100, [
        lockstep_entry("lm-long-tape", {"decode": (0.80, 0.78, 0.82)}, anchor="3f17e58"),
        lockstep_entry("lm-long-tape", {"decode": (0.95, 0.90, 0.99)}),
        {"tool": "bench_pairs", "workload": "lm-long-tape"}])
    earlier = write(tmp_path, 27, [
        lockstep_entry("lm-long-tape", {"train": (1.01, 0.99, 1.02),
                                        "decode": (0.85, 0.83, 0.87)}, anchor="3f17e58"),
        lockstep_entry("copy-seq2seq", {"train": (0.93, 0.92, 0.94)}, anchor="3f17e58")])
    assert trajectory.main([later, earlier]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines[1:]] == [
        ["copy-seq2seq", "train", "27"], ["lm-long-tape", "decode", "27"],
        ["lm-long-tape", "decode", "100"], ["lm-long-tape", "train", "27"]]
    assert lines[2].split()[3:] == ["3f17e58", "40", "0.850", "[0.830,", "0.870]"]


def test_a_file_not_named_for_a_pr_is_refused(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="BENCH_<pr>"):
        trajectory.main([str(path)])
