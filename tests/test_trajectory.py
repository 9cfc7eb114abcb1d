"""``tools/trajectory.py`` on canned benchmark records: anchored lockstep
entries only, grouped by workload and op, in PR order, then each PR's
``src/`` line counts.  No benchmark runs."""

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
    assert [line.split()[:3] for line in lines[1:lines.index("")]] == [
        ["copy-seq2seq", "train", "27"], ["lm-long-tape", "decode", "27"],
        ["lm-long-tape", "decode", "100"], ["lm-long-tape", "train", "27"]]
    assert lines[2].split()[3:] == ["3f17e58", "40", "0.850", "[0.830,", "0.870]"]


def test_a_file_not_named_for_a_pr_is_refused(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="BENCH_<pr>"):
        trajectory.main([str(path)])


def pairs_entry(workload, lines, code_lines=None):
    """A ``tools/bench_pairs.py --json`` entry with its (parent, change)
    line counts; an older entry carries no code-line count."""
    entry = {"tool": "bench_pairs", "workload": workload, "seed": 0, "pairs": 5,
             "src_lines": dict(zip(("parent", "change"), lines))}
    if code_lines is not None:
        entry["src_code_lines"] = dict(zip(("parent", "change"), code_lines))
    return entry


def test_line_counts_per_pr_parent_to_change(tmp_path, capsys):
    # One line per distinct pair of counts: three workloads timed on one
    # tree give one line, a PR that timed two trees gives two; lockstep
    # entries carry no counts and add none.
    later = write(tmp_path, 29, [
        pairs_entry(w, (3467, 3438), (2051, 2038))
        for w in ("lm-long-tape", "copy-seq2seq", "lm-ptb-scale")] + [
        lockstep_entry("lm-long-tape", {"train": (0.98, 0.97, 0.99)}, anchor="3f17e58")])
    earlier = write(tmp_path, 24, [pairs_entry("lm-long-tape", (3240, 3235)),
                                   pairs_entry("lm-long-tape", (3240, 3231))])
    assert trajectory.main([later, earlier]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = lines[lines.index("") + 1:]
    assert counts[0].split() == ["PR", "src", "lines", "code", "lines"]
    assert [line.split() for line in counts[1:]] == [
        ["24", "3240", "->", "3235", "-"], ["24", "3240", "->", "3231", "-"],
        ["29", "3467", "->", "3438", "2051", "->", "2038"]]
