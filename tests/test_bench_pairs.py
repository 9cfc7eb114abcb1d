"""``tools/bench_pairs.py`` on canned ``perfbench/run.py`` result lines:
the pair order, the per-side quartiles, the wins and the claim rule.  No
benchmark runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"train_tok_s": "higher", "peak_rss_mb": "lower"}


def result_line(tok_s: float, rss: float, failed: int = 0) -> str:
    """A result line as ``perfbench/run.py --trace 0`` prints it last."""
    return json.dumps({"correct": failed == 0, "attempted": 50, "failed": failed,
                       "metrics": {"train_tok_s": {"value": tok_s, "unit": "1/s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def canned(parent: list, change: list) -> dict:
    """{pair: {side: result}} from per-pair (train_tok_s, peak_rss_mb)."""
    return {i: {"parent": json.loads(result_line(*p)), "change": json.loads(result_line(*c))}
            for i, (p, c) in enumerate(zip(parent, change))}


PARENT = [(1000.0 + 10 * i, 300.0 + i % 3) for i in range(10)]


def test_quartiles_wins_and_a_claim_that_holds():
    # The change is 15% faster in 9 pairs, tied in one; its RSS is the
    # parent's less 5 MB in every pair.
    change = [(t * 1.15, r - 5.0) for t, r in PARENT]
    change[4] = PARENT[4]
    table, failures = bench_pairs.summarize(canned(PARENT, change), BETTER)
    tok = table["train_tok_s"]
    assert tok["parent"] == pytest.approx((1022.5, 1045.0, 1067.5))
    assert tok["parent_iqr"] == pytest.approx(45.0)
    assert (tok["wins"], tok["losses"], tok["ties"], tok["pairs"]) == (9, 0, 1, 10)
    assert bench_pairs.claim_holds(tok)
    rss = table["peak_rss_mb"]
    assert (rss["wins"], rss["losses"], rss["ties"]) == (9, 0, 1)
    assert rss["parent"][1] - rss["change"][1] == pytest.approx(5.0)
    assert bench_pairs.claim_holds(rss)
    assert failures == {"parent": (0, 500), "change": (0, 500)}
    lines = bench_pairs.report(table, failures, claim="peak_rss_mb")
    assert lines[-1].startswith("claim peak_rss_mb: holds (wins 9 of 10, need 9;")
    assert "1022.5 / 1045 / 1067.5" in next(l for l in lines if l.startswith("train_tok_s"))


def test_eight_wins_in_ten_do_not_hold():
    change = [(t * 1.15, r) for t, r in PARENT]
    for i in (2, 7):
        change[i] = (PARENT[i][0] * 0.99, PARENT[i][1])
    table, failures = bench_pairs.summarize(canned(PARENT, change), BETTER)
    assert table["train_tok_s"]["wins"] == 8
    assert not bench_pairs.claim_holds(table["train_tok_s"])
    assert "does not hold" in bench_pairs.report(table, failures, "train_tok_s")[-1]


def test_a_gap_inside_the_parent_iqr_does_not_hold():
    # Ten wins of 2%, about 20 tok/s, against a parent IQR of 45.
    change = [(t * 1.02, r) for t, r in PARENT]
    table, _ = bench_pairs.summarize(canned(PARENT, change), BETTER)
    assert table["train_tok_s"]["wins"] == 10
    assert not bench_pairs.claim_holds(table["train_tok_s"])


def test_a_worse_median_does_not_hold_and_failures_are_counted():
    change = [(t, r + 50.0) for t, r in PARENT]
    change[0] = (PARENT[0][0], PARENT[0][1] - 1.0, 3)
    table, failures = bench_pairs.summarize(canned(PARENT, change), BETTER)
    assert (table["peak_rss_mb"]["wins"], table["peak_rss_mb"]["losses"]) == (1, 9)
    assert bench_pairs.median_gain(table["peak_rss_mb"]) == pytest.approx(-50.0)
    assert not bench_pairs.claim_holds(table["peak_rss_mb"])
    assert failures["change"] == (3, 500)


def test_pairs_alternate_the_first_side(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout)
        side = len([c for c in calls if c == checkout])
        return json.loads(result_line(1000.0 + side if checkout == "new" else 1000.0, 300.0))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "benchmark_spec", lambda: (30, BETTER))
    status = bench_pairs.main(["old", "new", "--workload", "lm-ptb-scale", "--pairs", "4",
                               "--seed", "17", "--claim", "train_tok_s"])
    assert calls == ["old", "new", "new", "old", "old", "new", "new", "old"]
    out = capsys.readouterr().out.splitlines()
    assert [l.split()[:3] for l in out[:8]] == [
        ["run", "0", "parent"], ["run", "0", "change"], ["run", "1", "change"],
        ["run", "1", "parent"], ["run", "2", "parent"], ["run", "2", "change"],
        ["run", "3", "change"], ["run", "3", "parent"]]
    assert status == 0 and out[-1].startswith("claim train_tok_s: holds")


def test_json_summary_is_added_to_a_list(monkeypatch, tmp_path, capsys):
    # Two invocations on canned runs: the file holds both summaries, each
    # with its quartiles, IQR, wins, failures, seed, src/ lines and runs.
    dirs = {}
    for side, lines in (("old", 3), ("new", 5)):
        pkg = tmp_path / side / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("x = 1\n" * lines)
        dirs[side] = str(tmp_path / side)
    results = {dirs["old"]: iter(PARENT * 2),
               dirs["new"]: iter([(t * 1.15, r - 5.0, 1) for t, r in PARENT] * 2)}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, *_: json.loads(result_line(*next(results[checkout]))))
    monkeypatch.setattr(bench_pairs, "benchmark_spec", lambda: (30, BETTER))
    path = tmp_path / "bench.json"
    for workload in ("lm-long-tape", "copy-seq2seq"):
        bench_pairs.main([dirs["old"], dirs["new"], "--workload", workload, "--pairs", "10",
                          "--seed", "7", "--claim", "peak_rss_mb", "--json", str(path)])
    capsys.readouterr()
    entries = json.loads(path.read_text())
    assert [(e["tool"], e["workload"]) for e in entries] == [
        ("bench_pairs", "lm-long-tape"), ("bench_pairs", "copy-seq2seq")]
    first = entries[0]
    assert (first["seed"], first["pairs"], first["claim"], first["claim_holds"]) == \
        (7, 10, "peak_rss_mb", True)
    tok = first["metrics"]["train_tok_s"]
    assert tok["parent"] == pytest.approx([1022.5, 1045.0, 1067.5])
    assert tok["parent_iqr"] == pytest.approx(45.0)
    assert (tok["wins"], tok["losses"], tok["ties"]) == (10, 0, 0)
    assert first["metrics"]["peak_rss_mb"]["median_gain"] == pytest.approx(5.0)
    assert first["failed_attempted"] == {"parent": [0, 500], "change": [10, 500]}
    assert first["src_lines"] == {"parent": 3, "change": 5}
    assert first["src_code_lines"] == {"parent": 3, "change": 5}
    assert len(first["runs"]) == 20 and first["runs"][1]["side"] == "change"


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    # Seven lines: a two-line module docstring, a comment, a blank line and
    # two code lines, one of them holding a string that is no docstring.
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text('"""A module,\nin two lines."""\n# a comment\n\n'
                                'x = 1\ny = """not a docstring"""\n')
    assert bench_pairs.src_lines(str(tmp_path)) == 6
    assert bench_pairs.src_code_lines(str(tmp_path)) == 2
