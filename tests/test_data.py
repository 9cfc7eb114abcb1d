"""Data pipeline tests: vocab, embeddings, loaders, batching."""

from collections import Counter

import numpy as np
import pytest

from lstmn.config import ConfigError
from lstmn.data import (
    RESERVED,
    Batch,
    DataFormatError,
    Vocabulary,
    batchify,
    build_vocab,
    load_dataset,
    load_pretrained,
)


class TestVocabulary:
    def test_frequency_then_lexical_order(self):
        vocab = build_vocab("a b a c".split(), min_freq=1)
        assert vocab.index_to_token[len(RESERVED):] == ["a", "b", "c"]

    def test_min_freq_filters(self):
        vocab = build_vocab("a b a c".split(), min_freq=2)
        assert vocab.index_to_token[len(RESERVED):] == ["a"]
        np.testing.assert_array_equal(vocab.encode(["b", "c"]),
                                      [vocab.unk, vocab.unk])

    def test_max_size_truncates(self):
        vocab = build_vocab("a a b b c".split(), max_size=2)
        assert vocab.index_to_token[len(RESERVED):] == ["a", "b"]

    def test_empty_stream_rejected(self):
        with pytest.raises(DataFormatError):
            build_vocab([])

    def test_deterministic_across_runs(self, tmp_path):
        rng = np.random.default_rng(80)
        tokens = [f"tok{rng.integers(0, 500)}" for _ in range(20000)]
        a = build_vocab(tokens)
        b = build_vocab(list(tokens))
        assert a.index_to_token == b.index_to_token

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab("gamma alpha alpha beta".split())
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.index_to_token == vocab.index_to_token
        assert again.token_to_index == vocab.token_to_index


    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes("\n".join(RESERVED).encode() + b"\nok\nbad\xff\n")
        with pytest.raises(DataFormatError, match=rf"{path}:6: not UTF-8"):
            Vocabulary.load(path)


class TestPretrained:
    def test_matching_row_copied_and_flagged(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("x 1.0 2.0\n")
        vocab = Vocabulary(["x"])
        table = load_pretrained(path, vocab, seed=1)
        idx = vocab.token_to_index["x"]
        np.testing.assert_array_equal(table.weights.data[idx], [1.0, 2.0])
        assert table.pretrained[idx]

    def test_missing_token_gets_seeded_gaussian(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("x 1.0 2.0\n")
        vocab = Vocabulary(["x", "y"])
        t1 = load_pretrained(path, vocab, seed=7)
        t2 = load_pretrained(path, vocab, seed=7)
        idx = vocab.token_to_index["y"]
        assert not t1.pretrained[idx]
        np.testing.assert_array_equal(t1.weights.data[idx], t2.weights.data[idx])

    def test_oov_rows_standard_gaussian_moments(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("x 0.5 0.5\n")
        vocab = Vocabulary(["x"] + [f"w{i}" for i in range(3000)])
        table = load_pretrained(path, vocab, seed=3)
        oov = table.weights.data[[i for i in range(len(vocab))
                                  if not table.pretrained[i] and i != vocab.pad]]
        assert abs(oov.mean()) < 0.05
        assert abs(oov.std() - 1.0) < 0.05

    def test_row_ending_in_space_parses(self, tmp_path):
        # fastText .vec rows end in a space before the newline.
        path = tmp_path / "emb.vec"
        path.write_text("x 1.0 2.0 \ny 3.0 4.0 \n")
        vocab = Vocabulary(["x", "y"])
        table = load_pretrained(path, vocab)
        rows = [vocab.token_to_index[t] for t in ("x", "y")]
        np.testing.assert_array_equal(table.weights.data[rows], [[1.0, 2.0], [3.0, 4.0]])
        assert table.pretrained[rows].all()

    def test_fasttext_header_is_skipped(self, tmp_path):
        # A .vec file opens with "N D"; it is no token row.
        path = tmp_path / "hdr.vec"
        path.write_text("2 3\nx 1.0 2.0 3.0 \ny 4.0 5.0 6.0 \n")
        vocab = Vocabulary(["x", "y"])
        table = load_pretrained(path, vocab)
        rows = [vocab.token_to_index[t] for t in ("x", "y")]
        np.testing.assert_array_equal(table.weights.data[rows],
                                      [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert table.pretrained[rows].all() and "2" not in vocab.token_to_index

    def test_fasttext_header_width_is_enforced(self, tmp_path):
        path = tmp_path / "hdr.vec"
        path.write_text("2 3\nx 1.0 2.0 \ny 4.0 5.0 \n")
        with pytest.raises(DataFormatError, match=r":2: row has 2 values, expected 3"):
            load_pretrained(path, Vocabulary(["x", "y"]))

    def test_token_keeps_inner_whitespace(self, tmp_path):
        # Only " " separates fields: a token may hold other whitespace.
        path = tmp_path / "emb.txt"
        path.write_text("a\u00a0b 1.0 2.0\n", encoding="utf-8")
        vocab = Vocabulary(["a\u00a0b"])
        table = load_pretrained(path, vocab)
        assert table.pretrained[vocab.token_to_index["a\u00a0b"]]

    def test_inconsistent_width_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("x 1.0 2.0\ny 1.0\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_pretrained(path, Vocabulary(["x", "y"]))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_value_names_path_and_line(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"x 1.0 2.0\ny 0.5 {value}\n")
        with pytest.raises(DataFormatError, match=rf"{path}:2: non-finite"):
            load_pretrained(path, Vocabulary(["x", "y"]))

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        # Far enough down that the text reader has decoded past line 1.
        path.write_bytes(b"".join(b"t%d 1.0 2.0\n" % i for i in range(2000)) + b"\xc3x 1 2\n")
        with pytest.raises(DataFormatError, match=rf"{path}:2001: not UTF-8"):
            load_pretrained(path, Vocabulary(["t0"]))

    def test_rows_match_independent_parser(self, tmp_path):
        # Oracle: a second, trivial parse of the same file.
        rng = np.random.default_rng(81)
        lines = []
        tokens = [f"t{i}" for i in range(1000)]
        for t in tokens:
            vals = rng.normal(size=4)
            lines.append(t + " " + " ".join(repr(float(v)) for v in vals))
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n")
        vocab = Vocabulary(tokens)
        table = load_pretrained(path, vocab)
        for line in lines:
            parts = line.split()
            idx = vocab.token_to_index[parts[0]]
            expected = np.array([float(p) for p in parts[1:]])
            np.testing.assert_array_equal(table.weights.data[idx], expected)


class TestLoadDataset:
    def test_lm_text(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("the cat sat\non the mat\n")
        ds = load_dataset(path, "lm-text")
        assert ds.examples == [["the", "cat", "sat"], ["on", "the", "mat"]]

    def test_labeled_sentences(self, tmp_path):
        path = tmp_path / "sent.tsv"
        path.write_text("3\tA fine film\n0\tDreadful stuff\n")
        ds = load_dataset(path, "labeled-sentences")
        assert ds.examples[0] == (3, ["A", "fine", "film"])

    def test_pairs_lowercased_and_split(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("neutral\ta B\tc\n")
        ds = load_dataset(path, "sentence-pairs")
        assert ds.examples == [("neutral", ["a", "b"], ["c"])]

    def test_pairs_unknown_label_dropped_and_counted(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("-\ta\tb\nentailment\tc\td\n")
        ds = load_dataset(path, "sentence-pairs")
        assert len(ds) == 1
        assert ds.dropped == 1

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("entailment\tonly-premise\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_dataset(path, "sentence-pairs")

    @pytest.mark.parametrize("kind", ["lm-text", "labeled-sentences", "sentence-pairs"])
    def test_non_utf8_names_path_and_line(self, tmp_path, kind):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1\ta\tb\n2\tc\td\n3\te \xff\tf\n")
        with pytest.raises(DataFormatError, match=rf"{path}:3: not UTF-8"):
            load_dataset(path, kind)

    def test_unknown_kind_is_config_error(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("a\n")
        with pytest.raises(ConfigError):
            load_dataset(path, "json-lines")

    def test_count_matches_line_count_oracle(self, tmp_path):
        rng = np.random.default_rng(82)
        labels = ["entailment", "neutral", "contradiction", "-"]
        lines = []
        for _ in range(100):
            lab = labels[rng.integers(0, 4)]
            lines.append(f"{lab}\tw{rng.integers(0, 9)} w\tw")
        path = tmp_path / "pairs.tsv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_dataset(path, "sentence-pairs")
        expected_dropped = sum(1 for line in lines if line.startswith("-\t"))
        assert ds.dropped == expected_dropped
        assert len(ds) == 100 - expected_dropped


class TestBatchify:
    def test_three_examples_batch_two(self):
        batches = batchify([[1], [2], [3]], batch_size=2, seed=0)
        assert sorted(b.size for b in batches) == [1, 2]

    def test_equal_lengths_no_padding(self):
        batches = batchify([[1, 2], [3, 4], [5, 6], [7, 8]], batch_size=2, seed=1)
        for b in batches:
            assert (b.mask == 1.0).all()

    def test_token_multiset_preserved(self):
        rng = np.random.default_rng(83)
        seqs = [list(rng.integers(1, 50, size=rng.integers(1, 12)))
                for _ in range(57)]
        corpus = Counter(t for s in seqs for t in s)
        for bucketing in (False, True):
            batches = batchify(seqs, batch_size=8, seed=4, bucketing=bucketing)
            seen = Counter()
            for b in batches:
                for i in range(b.size):
                    seen.update(b.tokens[i][b.mask[i] != 0].tolist())
            assert seen == corpus

    def test_masks_left_aligned(self):
        batches = batchify([[1, 2, 3], [4]], batch_size=2, seed=0)
        for b in batches:
            for m in b.mask:
                run = int(m.sum())
                assert (m[:run] == 1).all() and (m[run:] == 0).all()

    def test_same_seed_same_order(self):
        seqs = [[i] for i in range(20)]
        a = batchify(seqs, 4, seed=9)
        b = batchify(seqs, 4, seed=9)
        assert all((x.tokens == y.tokens).all() for x, y in zip(a, b))

    def test_pairs_and_labels_travel_together(self):
        seqs = [[1], [2], [3]]
        seqs2 = [[10, 11], [20], [30, 31, 32]]
        labels = [0, 1, 2]
        batches = batchify(seqs, 2, seed=5, labels=labels, seqs2=seqs2)
        pairing = {}
        for b in batches:
            for i in range(b.size):
                first = int(b.tokens[i][b.mask[i] != 0][0])
                second = tuple(b.tokens2[i][b.mask2[i] != 0].tolist())
                pairing[first] = (second, int(b.labels[i]))
        assert pairing == {1: ((10, 11), 0), 2: ((20,), 1), 3: ((30, 31, 32), 2)}

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ConfigError):
            batchify([[1]], 0, seed=0)

    def test_bucketing_reduces_padding(self):
        seqs = [[1] * n for n in (1, 9, 1, 9, 1, 9, 1, 9)]
        def padded_cells(batches):
            return sum(int((b.mask == 0).sum()) for b in batches)
        plain = padded_cells(batchify(seqs, 2, seed=11, bucketing=False))
        bucketed = padded_cells(batchify(seqs, 2, seed=11, bucketing=True))
        assert bucketed <= plain
        assert bucketed == 0
