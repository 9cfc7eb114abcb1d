"""Config, workflow, and CLI tests."""

import argparse
import contextlib
import dataclasses
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstmn import checkpoint, cli, models, optim, synthetic, train
from lstmn.autodiff import NonFiniteError, Tensor, set_default_dtype
from lstmn.checkpoint import CheckpointError, load_checkpoint, load_into
from lstmn.config import ConfigError, RunConfig, build_config, data_kind, format_config
from lstmn.data import Vocabulary


def lm_overrides(tmp_path, **extra):
    rng = np.random.default_rng(9)
    train_path = tmp_path / "train.txt"
    val_path = tmp_path / "val.txt"
    synthetic.write_lines(train_path, synthetic.bracket_corpus(rng, 1200))
    synthetic.write_lines(val_path, synthetic.bracket_corpus(rng, 300))
    overrides = dict(task="lm", model="lstmn", hidden="12", embedding="8",
                     epochs="1", batch_size="8", seed="2", log_every="1000",
                     train_data=str(train_path), val_data=str(val_path),
                     test_data=str(val_path))
    overrides.update(extra)
    return overrides


class TestConfig:
    def test_task_defaults(self):
        cfg = build_config(overrides=dict(task="lm", train_data="x"))
        assert (cfg.optimizer, cfg.lr, cfg.batch_size) == ("sgd", 0.65, 40)
        assert cfg.grad_clip == 5.0 and cfg.dropout == 0.0
        cfg = build_config(overrides=dict(task="sentiment"))
        assert (cfg.optimizer, cfg.lr, cfg.batch_size) == ("adam", 2e-3, 5)
        assert cfg.dropout == 0.5 and cfg.l2 == 1e-4 and cfg.num_labels == 5
        cfg = build_config(overrides=dict(task="nli"))
        assert (cfg.optimizer, cfg.lr, cfg.batch_size) == ("adam", 1e-3, 16)
        assert cfg.num_labels == 3 and cfg.grad_clip == 0.0

    def test_attention_defaults_to_hidden(self):
        cfg = build_config(overrides=dict(hidden="37"))
        assert cfg.attention == 37

    def test_file_then_cli_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nhidden = 50\nseed = 7\n")
        cfg = build_config(str(path), overrides=dict(hidden="60"))
        assert cfg.hidden == 60   # CLI wins
        assert cfg.seed == 7      # file beats default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("hiden = 50\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config(str(path))

    def test_key_set_twice_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("hidden = 50\n# comment\nseed = 7\nhidden = 60\n")
        with pytest.raises(ConfigError, match=rf"{path}:4: config key hidden is set again "
                                              r"\(first set on line 1\)"):
            build_config(str(path))

    def test_spellings_of_one_key_are_one_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grad_clip = 1\ngrad-clip = 2\n")
        with pytest.raises(ConfigError, match=r":2: config key grad_clip is set again"):
            build_config(str(path))

    def test_every_field_type_is_one_the_parser_reads(self):
        # Field types are names (postponed annotations); a field of any
        # other type would be parsed silently as a string.
        assert {f.type for f in dataclasses.fields(RunConfig)} <= {"bool", "int", "float", "str"}

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="hidden"):
            build_config(overrides=dict(hidden="many"))

    @pytest.mark.parametrize("overrides, fragment", [
        (dict(task="sentiment", model="seq2seq-deep"), "source sequence"),
        (dict(model="lstmn", layers="3"), "lstmn-stack"),
        (dict(model="lstmn-stack", layers="1"), "layers >= 2"),
        (dict(lr="0"), "lr"),
        (dict(dropout="1.5"), "dropout"),
        (dict(precision="float16"), "precision"),
        (dict(task="translation"), "task"),
        (dict(log_every="0"), "log_every"),
        (dict(beta1="1"), "beta1"),
        (dict(beta1="-0.1"), "beta1"),
        (dict(beta2="1"), "beta2"),
        (dict(adam_eps="0"), "adam_eps"),
        (dict(embedding_grad_scale="-1"), "embedding_grad_scale"),
        # -1 is a value like -2, not "unset": no task default replaces it.
        (dict(lr="-1"), "lr must be > 0, got -1.0"),
        (dict(grad_clip="-1"), "grad_clip must be >= 0, got -1.0"),
        (dict(batch_size="-1"), "batch_size must be >= 1, got -1"),
        (dict(dropout="-1"), r"dropout must be in \[0, 1\), got -1.0"),
        (dict(l2="-1"), "l2 must be >= 0, got -1.0"),
        (dict(task="sentiment", num_labels="-1"), "num_labels must be >= 2 for task sentiment"),
    ])
    def test_validation_failures(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            build_config(overrides=overrides)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "-Infinity"])
    @pytest.mark.parametrize("key", ["lr", "l2", "grad_clip", "adam_eps"])
    def test_non_finite_float_is_refused_naming_the_key(self, key, text):
        with pytest.raises(ConfigError, match=f"config key {key}: .* is not a finite number"):
            build_config(overrides={key: text})
        with pytest.raises(ConfigError, match=f"config key {key}: .* is not a finite number"):
            build_config(overrides={key: float(text)})

    def test_non_finite_float_in_a_config_file_is_refused(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dropout = nan\n")
        with pytest.raises(ConfigError, match="config key dropout: 'nan' is not a finite"):
            build_config(str(path))

    @pytest.mark.parametrize("overrides, fragment", [
        ({"hiden": 5}, "unknown config key: hiden"),
        ({"hidden": 64.5}, "config key hidden: cannot parse '64.5' as int"),
        ({"hidden": True}, "config key hidden: cannot parse 'True' as int"),
        ({"bucketing": 2}, "config key bucketing: cannot parse '2' as bool"),
        ({"lr": "0.1", "dropout": float("inf")}, "config key dropout"),
    ])
    def test_python_valued_overrides_pass_the_key_and_type_checks(self, overrides, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            build_config(overrides=overrides)

    def test_python_valued_overrides_build_the_config_of_their_text(self):
        # The forms the benchmark workloads use: ints, floats and bools.
        values = dict(task="lm", model="lstmn-stack", hidden=64, embedding=64, layers=2,
                      skip_connections=True, optimizer="sgd", lr=0.65, lr_decay=0.85,
                      grad_clip=5.0, dropout=0.0, batch_size=16, vocab_size=10000,
                      adam_eps=1e-8, seed=0)
        cfg = build_config(overrides=values)
        assert cfg == build_config(overrides={k: str(v) for k, v in values.items()})
        assert (cfg.hidden, cfg.lr, cfg.skip_connections, cfg.adam_eps) == (64, 0.65, True, 1e-8)

    @pytest.mark.parametrize("task, labels", [("sentiment", "3"), ("sentiment", "4"),
                                              ("sentiment", "6"), ("nli", "2"), ("nli", "4")])
    def test_num_labels_the_task_cannot_fill_is_refused(self, task, labels):
        with pytest.raises(ConfigError, match=f"num_labels must be .* for task {task}, "
                                              f"got {labels}"):
            build_config(overrides=dict(task=task, num_labels=labels))

    @pytest.mark.parametrize("task, labels", [("sentiment", "2"), ("sentiment", "5"),
                                              ("nli", "3"), ("lm", "7")])
    def test_num_labels_the_task_fills_is_accepted(self, task, labels):
        assert build_config(overrides=dict(task=task, num_labels=labels)).num_labels == \
            int(labels)

    def test_adam_bounds_accept_their_closed_ends(self):
        cfg = build_config(overrides=dict(beta1="0", beta2="0", embedding_grad_scale="0"))
        assert (cfg.beta1, cfg.beta2, cfg.embedding_grad_scale) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("overrides, policy", [
        (dict(task="sentiment", embeddings_path="vectors.txt"), "scale-first-epoch"),
        (dict(task="nli", embeddings_path="vectors.txt"), "freeze-pretrained-first-epoch"),
        (dict(task="sentiment"), "none"),
        (dict(task="nli"), "none"),
        (dict(task="lm", embeddings_path="vectors.txt"), "none"),
        (dict(task="nli", embeddings_path="vectors.txt", embedding_grad_policy="none"), "none"),
    ])
    def test_auto_embedding_policy_resolved(self, overrides, policy):
        assert build_config(overrides=overrides).embedding_grad_policy == policy

    def test_round_trip_through_format(self):
        cfg = build_config(overrides=dict(task="nli", hidden="100",
                                          bucketing="true", seed="11"))
        text = format_config(cfg)
        reparsed = {}
        for line in text.strip().splitlines():
            key, _, value = line.partition(" = ")
            reparsed[key] = value
        again = build_config(overrides=reparsed)
        assert again == cfg

    def test_readme_config_table_names_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            keys = {name for line in fh if line.startswith("| `")
                    for name in line.split("|")[1].replace("`", "").replace(",", " ").split()}
        missing = [f.name for f in dataclasses.fields(RunConfig) if f.name not in keys]
        assert not missing, f"config keys missing from README's table: {missing}"

    def test_data_kind_mapping(self):
        assert data_kind(build_config(overrides=dict(task="lm"))) == "lm-text"
        assert data_kind(build_config(overrides=dict(
            task="lm", model="seq2seq-deep"))) == "sentence-pairs"
        assert data_kind(build_config(overrides=dict(task="sentiment"))) == \
            "labeled-sentences"
        assert data_kind(build_config(overrides=dict(task="nli"))) == "sentence-pairs"


FIELD_NAMES = [f.name for f in dataclasses.fields(RunConfig)]
NUMBERS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 400, 10 ** 400), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324, 0.5]))
WORDS = st.text("abcdefghijklmnopqrstuvwxyzABC_", max_size=8)   # "" included
# What a command line or a config file can hold.
TEXTS = st.one_of(NUMBERS.map(str), WORDS, st.booleans().map(str), st.sampled_from(
    ["true", "off", "Yes", " 7 ", "1_000", "1e5", "-Infinity", "NaN", "9" * 5000, "1.0"]))


class TestConfigProperties:
    """Every field, fed text and Python values: a ``ConfigError``, or a
    config whose fields have their declared types and finite floats."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.dictionaries(st.sampled_from(FIELD_NAMES),
                           st.one_of(TEXTS, NUMBERS, st.booleans(), WORDS), max_size=4))
    def test_build_config_refuses_or_types_every_field(self, overrides):
        try:
            cfg = build_config(overrides=overrides)
        except ConfigError:
            return
        for f in dataclasses.fields(RunConfig):
            value = getattr(cfg, f.name)
            assert type(value).__name__ == f.type, (f.name, value)
            assert f.type != "float" or math.isfinite(value), (f.name, value)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(key=st.sampled_from(FIELD_NAMES), text=TEXTS)
    def test_cli_train_without_data_is_one_error_line_and_writes_nothing(self, key, text):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["train", "--out", "run", f"--{key}", text])
            finally:
                set_default_dtype(np.float64)   # --precision float32 sets it
            assert not os.path.exists("run")
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines


class TestRunTrain:
    def test_zero_epochs_saves_initial_weights(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        assert result.steps == 0 and result.losses == []
        stored = load_checkpoint(result.checkpoint_path)
        # Same seed, fresh model: identical initialization.
        from lstmn import models
        vocab = Vocabulary.load(tmp_path / "out" / "vocab.txt")
        fresh = models.build_model(cfg, vocab, np.random.default_rng([cfg.seed, 0]))
        for name, tensor in fresh.params().items():
            np.testing.assert_array_equal(stored[name], tensor.data)

    def test_fixed_seed_reproduces_loss_trajectory(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path))
        a = train.run_train(cfg, str(tmp_path / "out-a"))
        b = train.run_train(cfg, str(tmp_path / "out-b"))
        assert a.losses == b.losses
        assert np.array(a.losses).tobytes() == np.array(b.losses).tobytes()

    def test_nonfinite_step_names_epoch_batch_and_step(self, tmp_path, monkeypatch):
        # 40 lines in batches of 8: five steps per epoch, so the eighth
        # training loss is batch 3 of epoch 2.
        train_path = tmp_path / "small.txt"
        lines = synthetic.bracket_corpus(np.random.default_rng(4), 1200)[:40]
        assert len(lines) == 40
        synthetic.write_lines(train_path, lines)
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="2",
                                                  train_data=str(train_path)))
        calls, loss = [], models.LanguageModel.loss

        def failing_loss(self, batch, training=False, rng=None):
            calls.append(training)
            if calls.count(True) == 8 and training:
                raise NonFiniteError("affine_nll produced non-finite values")
            return loss(self, batch, training=training, rng=rng)

        monkeypatch.setattr(models.LanguageModel, "loss", failing_loss)
        with pytest.raises(NonFiniteError,
                           match=r"^affine_nll produced non-finite values "
                                 r"\(epoch 2, batch 3, step 8\)$"):
            train.run_train(cfg, str(tmp_path / "out"))

    def test_overflowing_l2_penalty_names_l2_epoch_batch_and_step(self, tmp_path):
        # l2 * sum(w * w) overflows at the first step, in the penalty that
        # the train step adds outside the graph.
        cfg = build_config(overrides=lm_overrides(tmp_path, l2="1e308"))
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=r"^l2 penalty produced non-finite values "
                                      r"\(epoch 1, batch 1, step 1\)$"):
            train.run_train(cfg, str(tmp_path / "out"))
        assert (tmp_path / "out" / "train.log").read_text() == ""

    def test_effective_config_reproduces_run(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path))
        first = train.run_train(cfg, str(tmp_path / "out-a"))
        replayed = build_config(str(tmp_path / "out-a" / "config.cfg"))
        assert replayed == cfg
        second = train.run_train(replayed, str(tmp_path / "out-b"))
        assert first.losses == second.losses

    def test_train_log_records_every_step(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path, max_steps="4"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "train.log").read_text().strip().splitlines()
        assert len(lines) == result.steps == 4
        assert all(line.startswith(f"step={i + 1} loss=") and "grad_norm=" in line
                   and "lr=" in line for i, line in enumerate(lines))

    def test_training_after_validation_still_gets_gradients(self, tmp_path, monkeypatch):
        # Validation runs without a backward graph between the epochs; the
        # mode must end with it, or epoch 2 would train on graph-less losses.
        evaluated, after_validation = [], []
        evaluate, step = models.LanguageModel.evaluate, optim.Sgd.step

        def recording_evaluate(self, *args, **kwargs):
            evaluated.append(1)
            return evaluate(self, *args, **kwargs)

        def recording_step(self):
            before = [p.data.copy() for p in self.params]
            norm = optim.global_grad_norm(self.params)   # step scales grads in place
            step(self)
            if evaluated:
                after_validation.append(
                    (norm, sum(not np.array_equal(b, p.data)
                               for b, p in zip(before, self.params))))

        monkeypatch.setattr(models.LanguageModel, "evaluate", recording_evaluate)
        monkeypatch.setattr(optim.Sgd, "step", recording_step)
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="2", batch_size="100",
                                                  optimizer="sgd"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        assert len(result.val_metrics) == 2 and len(evaluated) == 2
        assert after_validation and len(after_validation) == result.steps // 2
        assert all(norm > 0 and moved > 1 for norm, moved in after_validation)

    def test_unreadable_path_fails_with_clear_error(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(
            tmp_path, train_data=str(tmp_path / "missing.txt")))
        with pytest.raises(FileNotFoundError):
            train.run_train(cfg, str(tmp_path / "out"))


class TestRunTrainChecks:
    """A run that fails a check writes nothing into its output directory,
    so ``eval`` and ``dump-attention`` cannot pick up its config."""

    @pytest.mark.parametrize("failure", ["no-train-data", "missing-val-data",
                                         "embedding-dimension"])
    def test_failed_check_leaves_no_files(self, tmp_path, failure):
        overrides = lm_overrides(tmp_path)
        if failure == "no-train-data":
            overrides["train_data"] = ""
            expected = ConfigError
        elif failure == "missing-val-data":
            overrides["val_data"] = str(tmp_path / "missing.txt")
            expected = FileNotFoundError
        else:
            vectors = tmp_path / "vectors.txt"
            vectors.write_text("( 0.1 0.2\n) 0.3 0.4\n")
            overrides["embeddings_path"] = str(vectors)
            expected = ConfigError
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(expected):
            train.run_train(build_config(overrides=overrides), str(out))
        assert not (out / "config.cfg").exists()
        assert not (out / "vocab.txt").exists()


class TestCrashSafety:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "checkpoint.npz")
        checkpoint.save_checkpoint({"w": Tensor(np.arange(3.0))}, path)

        def savez_then_fail(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.save_checkpoint({"w": Tensor(np.zeros(3))}, path)
        np.testing.assert_array_equal(load_checkpoint(path)["w"], np.arange(3.0))
        assert os.listdir(tmp_path) == ["checkpoint.npz"]

    def test_save_appends_npz_suffix(self, tmp_path):
        checkpoint.save_checkpoint({"w": Tensor(np.ones(2))}, str(tmp_path / "ckpt"))
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def _crash(self, tmp_path, monkeypatch, when, **extra):
        """Run training until ``when(calls, evaluated)`` is true at a
        training-mode call of ``model.loss`` (``evaluate`` calls ``loss``
        too); returns the log files' contents at that moment, before the
        training loop can close them."""
        out = tmp_path / "out"
        seen, calls, evaluated = {}, [], []
        loss, evaluate = models.LanguageModel.loss, models.LanguageModel.evaluate

        def crashing_loss(self, batch, **kwargs):
            if not kwargs.get("training"):
                return loss(self, batch, **kwargs)
            calls.append(1)
            if when(len(calls), bool(evaluated)):
                seen.update({name: (out / name).read_text()
                             for name in ("train.log", "metrics.txt")})
                raise RuntimeError("simulated crash")
            return loss(self, batch, **kwargs)

        def recording_evaluate(self, *args, **kwargs):
            evaluated.append(1)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(models.LanguageModel, "loss", crashing_loss)
        monkeypatch.setattr(models.LanguageModel, "evaluate", recording_evaluate)
        cfg = build_config(overrides=lm_overrides(tmp_path, **extra))
        with pytest.raises(RuntimeError, match="simulated crash"):
            train.run_train(cfg, str(out))
        return seen

    def test_step_lines_on_disk_before_a_crash(self, tmp_path, monkeypatch):
        seen = self._crash(tmp_path, monkeypatch, lambda calls, _: calls == 3)
        lines = seen["train.log"].splitlines()
        assert [line.split()[0] for line in lines] == ["step=1", "step=2"]

    def test_epoch_metrics_on_disk_before_a_crash(self, tmp_path, monkeypatch):
        seen = self._crash(tmp_path, monkeypatch, lambda _, evaluated: evaluated,
                           epochs="2", batch_size="200")
        assert seen["metrics.txt"].startswith("epoch=1 ")
        assert seen["train.log"].count("\n") > 0


class TestRunEval:
    def test_eval_twice_identical_and_pure(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path))
        result = train.run_train(cfg, str(tmp_path / "out"))
        before = load_checkpoint(result.checkpoint_path)
        m1 = train.run_eval(cfg, result.checkpoint_path)
        m2 = train.run_eval(cfg, result.checkpoint_path)
        assert m1 == m2
        after = load_checkpoint(result.checkpoint_path)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_untrained_model_near_uniform_ppl(self, tmp_path):
        # Vocabulary of the corpus; fresh weights give near-uniform logits.
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        metrics = train.run_eval(cfg, result.checkpoint_path)
        vocab = Vocabulary.load(tmp_path / "out" / "vocab.txt")
        assert metrics.ppl == pytest.approx(len(vocab), rel=0.02)

    def test_checkpoint_shape_mismatch_names_tensor(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        bigger = build_config(overrides=lm_overrides(tmp_path, epochs="0", hidden="16"))
        from lstmn import models
        vocab = Vocabulary.load(tmp_path / "out" / "vocab.txt")
        model = models.build_model(bigger, vocab, np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="layer1.W"):
            load_into(model.params(), result.checkpoint_path)

    def test_row_major_checkpoint_loads_into_column_major_output(self, tmp_path):
        # A checkpoint fixes each tensor's name and shape, not its memory
        # order: one of row-major arrays only (as written before the output
        # projection was stored column-major) evaluates the same.
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        stored = load_checkpoint(result.checkpoint_path)
        row_major = str(tmp_path / "out" / "row_major.npz")
        np.savez(row_major, **{n: np.ascontiguousarray(a) for n, a in stored.items()})
        assert train.run_eval(cfg, row_major) == train.run_eval(cfg, result.checkpoint_path)
        w = train._rebuild(cfg, row_major)[0].params()["output.W"].data
        assert w.flags.f_contiguous and not w.flags.c_contiguous
        np.testing.assert_array_equal(w, stored["output.W"])

    def test_nonfinite_checkpoint_refused_before_any_write(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        stored = load_checkpoint(result.checkpoint_path)
        stored["output.W"][3, 1] = np.nan
        bad = str(tmp_path / "bad.npz")
        np.savez(bad, **stored)
        vocab = Vocabulary.load(tmp_path / "out" / "vocab.txt")
        params = models.build_model(cfg, vocab, np.random.default_rng(5)).params()
        before = {n: t.data.copy() for n, t in params.items()}
        with pytest.raises(CheckpointError, match="'output.W'.*non-finite"):
            load_into(params, bad)
        for name, t in params.items():
            np.testing.assert_array_equal(t.data, before[name])

    def test_float64_checkpoint_is_cast_to_a_float32_model(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        stored = load_checkpoint(result.checkpoint_path)
        try:
            model = train._rebuild(dataclasses.replace(cfg, precision="float32"),
                                   result.checkpoint_path)[0]
        finally:
            set_default_dtype(np.float64)
        for name, t in model.params().items():
            assert t.data.dtype == np.float32
            np.testing.assert_array_equal(t.data, stored[name].astype(np.float32))

    def test_float32_checkpoint_is_widened_exactly_into_a_float64_model(self, tmp_path):
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0", precision="float32"))
        try:
            result = train.run_train(cfg, str(tmp_path / "out"))
        finally:
            set_default_dtype(np.float64)
        stored = load_checkpoint(result.checkpoint_path)
        assert {a.dtype for a in stored.values()} == {np.dtype(np.float32)}
        model = train._rebuild(dataclasses.replace(cfg, precision="float64"),
                               result.checkpoint_path)[0]
        for name, t in model.params().items():
            assert t.data.dtype == np.float64
            np.testing.assert_array_equal(t.data, stored[name].astype(np.float64))

    def test_value_beyond_float32_range_refused_before_any_write(self, tmp_path):
        # Finite in the float64 checkpoint, inf once cast to the model's float32.
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0"))
        result = train.run_train(cfg, str(tmp_path / "out"))
        stored = load_checkpoint(result.checkpoint_path)
        stored["output.W"][3, 1] = 1e39
        bad = str(tmp_path / "big.npz")
        np.savez(bad, **stored)
        vocab = Vocabulary.load(tmp_path / "out" / "vocab.txt")
        set_default_dtype(np.float32)
        try:
            params = models.build_model(cfg, vocab, np.random.default_rng(5)).params()
        finally:
            set_default_dtype(np.float64)
        before = {n: t.data.copy() for n, t in params.items()}
        with pytest.raises(CheckpointError, match="'output.W'.*non-finite values as float32"):
            load_into(params, bad)
        for name, t in params.items():
            np.testing.assert_array_equal(t.data, before[name])


class TestDumpAttention:
    def _trained(self, tmp_path, **extra):
        cfg = build_config(overrides=lm_overrides(tmp_path, epochs="0", **extra))
        result = train.run_train(cfg, str(tmp_path / "out"))
        return cfg, result.checkpoint_path

    def _dump(self, tmp_path, cfg, ckpt, text):
        inp = tmp_path / "input.txt"
        inp.write_text(text + "\n")
        out = tmp_path / "attention.tsv"
        train.run_dump_attention(cfg, ckpt, str(inp), str(out))
        return out.read_text().strip().splitlines()

    def test_single_token_header_only(self, tmp_path):
        cfg, ckpt = self._trained(tmp_path)
        lines = self._dump(tmp_path, cfg, ckpt, "f1")
        assert lines == ["# tokens\tf1", "t\ti\tweight"]

    def test_two_tokens_single_unit_row(self, tmp_path):
        cfg, ckpt = self._trained(tmp_path)
        lines = self._dump(tmp_path, cfg, ckpt, "f1 f2")
        assert lines[-1].split("\t") == ["2", "1", "1"]

    def test_eight_tokens_rows_sum_to_one(self, tmp_path):
        cfg, ckpt = self._trained(tmp_path)
        lines = self._dump(tmp_path, cfg, ckpt, "f1 f2 f3 f4 f5 f6 f7 f8")
        sums = {}
        for line in lines[2:]:
            t, i, w = line.split("\t")
            sums[int(t)] = sums.get(int(t), 0.0) + float(w)
            assert float(w) >= 0
        assert set(sums) == set(range(2, 9))
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_capacity_window_rows_name_the_slots_read(self, tmp_path):
        # With capacity 2, step t reads slots t-2 and t-1, not 1 and 2.
        cfg, ckpt = self._trained(tmp_path, capacity="2")
        lines = self._dump(tmp_path, cfg, ckpt, "f1 f2 f3 f4 f5")
        slots = [tuple(int(v) for v in line.split("\t")[:2]) for line in lines[2:]]
        assert slots == [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4)]

    def test_empty_input_rejected(self, tmp_path):
        cfg, ckpt = self._trained(tmp_path)
        inp = tmp_path / "empty.txt"
        inp.write_text("\n")
        with pytest.raises(ConfigError, match="no input"):
            train.run_dump_attention(cfg, ckpt, str(inp), str(tmp_path / "o.tsv"))

    def _seq2seq(self, tmp_path, **extra):
        rng = np.random.default_rng(10)
        train_path = tmp_path / "pairs.tsv"
        synthetic.write_lines(train_path, synthetic.copy_pairs(rng, 40))
        cfg = build_config(overrides=dict(
            task="lm", model="seq2seq-deep", hidden="8", embedding="8",
            optimizer="adam", epochs="1", batch_size="4", seed="1",
            train_data=str(train_path), **extra))
        return cfg, train.run_train(cfg, str(tmp_path / "out")).checkpoint_path

    def test_seq2seq_dump_has_inter_section(self, tmp_path):
        text = "\n".join(self._dump(tmp_path, *self._seq2seq(tmp_path), "s1 s2 s3\ts1 s2 s3"))
        assert "# section\tinter" in text and "# section\tintra" in text
        inter_rows = [l for l in text.splitlines()
                      if l and l[0].isdigit()]
        assert inter_rows

    def test_seq2seq_capacity_sections_name_the_slots_read(self, tmp_path):
        # Intra windows end at slot t-1; inter-attention spans the source.
        lines = self._dump(tmp_path, *self._seq2seq(tmp_path, capacity="2"),
                           "s1 s2 s3\ts1 s2 s3 s4")
        sections, name = {}, None
        for line in lines:
            if line.startswith("# section"):
                name = line.split("\t")[1]
            elif line[0].isdigit():
                t, i, _ = line.split("\t")
                sections.setdefault(name, []).append((int(t), int(i)))
        assert sections["encoder-intra"] == [(2, 1), (3, 1), (3, 2)]
        assert sections["intra"] == [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]
        assert sections["inter"] == [(t, i) for t in range(1, 5) for i in (1, 2, 3)]

    def test_seq2seq_lm_dump_lowercases_like_its_pair_data(self, tmp_path):
        """sentence-pairs data is lowercased on load, so a seq2seq LM's
        dump must map mixed-case input onto the same tokens."""
        cfg, ckpt = self._seq2seq(tmp_path)
        lower, mixed = [self._dump(tmp_path, cfg, ckpt, text)
                        for text in ("s5 s4 s3\ts5 s4 s3", "S5 s4 S3\tS5 S4 s3")]
        assert [l for l in mixed if l[0].isdigit()] == [l for l in lower if l[0].isdigit()]
        assert mixed == lower


class TestCliMain:
    def test_train_eval_dump_happy_path(self, tmp_path, capsys):
        overrides = lm_overrides(tmp_path, max_steps="2")
        args = ["train", "--out", str(tmp_path / "run")]
        for key, value in overrides.items():
            args += [f"--{key}", value]
        assert cli.main(args) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.npz")
        assert os.path.exists(ckpt)
        # eval picks up the effective config beside the checkpoint
        assert cli.main(["eval", "--checkpoint", ckpt, "--split", "val"]) == 0
        out = capsys.readouterr().out
        assert "ppl=" in out
        inp = tmp_path / "probe.txt"
        inp.write_text("f1 f2 f3\n")
        assert cli.main(["dump-attention", "--checkpoint", ckpt,
                         "--input", str(inp), "--out", str(tmp_path / "dump")]) == 0
        assert os.path.exists(tmp_path / "dump" / "attention.tsv")

    def test_float32_train_eval_dump_round_trip(self, tmp_path, capsys, monkeypatch):
        loaded, load_into = [], checkpoint.load_into

        def recording_load_into(params, path):
            load_into(params, path)
            loaded.append({n: t.data.dtype for n, t in params.items()})

        monkeypatch.setattr(checkpoint, "load_into", recording_load_into)
        args = ["train", "--out", str(tmp_path / "run")]
        for key, value in lm_overrides(tmp_path, max_steps="3", precision="float32").items():
            args += [f"--{key}", value]
        ckpt = str(tmp_path / "run" / "checkpoint.npz")
        inp = tmp_path / "probe.txt"
        inp.write_text("open1 mark close1\n")
        try:
            assert cli.main(args) == 0
            capsys.readouterr()
            assert cli.main(["eval", "--checkpoint", ckpt, "--split", "val"]) == 0
            evaluated = capsys.readouterr().out.strip()
            assert cli.main(["dump-attention", "--checkpoint", ckpt,
                             "--input", str(inp), "--out", str(tmp_path / "dump")]) == 0
        finally:
            set_default_dtype(np.float64)
        # The validation line of the run and eval's line agree to the digit.
        validation = (tmp_path / "run" / "metrics.txt").read_text().splitlines()[-1]
        assert validation == f"epoch=1 {evaluated}"
        assert {a.dtype for a in load_checkpoint(ckpt).values()} == {np.dtype(np.float32)}
        assert len(loaded) == 2
        assert all(dtype == np.float32 for dtypes in loaded for dtype in dtypes.values())
        rows = (tmp_path / "dump" / "attention.tsv").read_text().splitlines()[2:]
        assert rows and all(0.0 <= float(row.split("\t")[2]) <= 1.0 for row in rows)

    def test_error_is_single_line_and_nonzero(self, capsys):
        code = cli.main(["train", "--task", "unknown-task"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.strip().count("\n") == 0

    def test_eval_without_checkpoint_fails(self, capsys):
        assert cli.main(["eval"]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_log_every_zero_fails_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["train", "--out", str(out)]
        for key, value in lm_overrides(tmp_path, max_steps="2", log_every="0").items():
            args += [f"--{key}", value]
        assert cli.main(args) == 1
        assert "log_every" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    def test_bad_seed_is_one_error_line(self, capsys):
        assert cli.main(["train", "--seed", "x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert err.strip().count("\n") == 0

    def test_config_key_set_twice_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: config key seed is set again")
        assert err.strip().count("\n") == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pairs", [["--lr", "1", "--lr", "2"],
                                       ["--grad-clip", "1", "--grad_clip", "2"]],
                             ids=["same", "dash-and-underscore"])
    def test_override_given_twice_is_one_error_line(self, tmp_path, capsys, pairs):
        out = tmp_path / "out"
        assert cli.main(["train", "--out", str(out)] + pairs) == 1
        err = capsys.readouterr().err
        key = pairs[0][2:].replace("-", "_")
        assert err == f"error: command-line key {key} is set again\n"
        assert not out.exists()

    def test_minus_one_is_one_error_line(self, tmp_path, capsys):
        assert cli.main(["train", "--grad_clip", "-1", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: grad_clip must be >= 0, got -1.0\n"
        assert not (tmp_path / "out").exists()

    def test_infinite_lr_is_one_error_line_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["train", "--out", str(out)]
        for key, value in lm_overrides(tmp_path, max_steps="2", lr="inf").items():
            args += [f"--{key}", value]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "error: config key lr: 'inf' is not a finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("task, labels, lines", [
        ("sentiment", "3", ["0\tbad film", "4\tgood movie"]),
        ("nli", "2", ["entailment\ta dog runs\tan animal moves",
                      "neutral\ta dog runs\tthe dog is old"]),
        ("nli", "4", ["contradiction\ta dog runs\tno dog runs"])])
    def test_num_labels_the_data_cannot_fill_is_one_error_line_before_any_write(
            self, tmp_path, capsys, task, labels, lines):
        path, out = tmp_path / "data.tsv", tmp_path / "out"
        synthetic.write_lines(path, lines)
        assert cli.main(["train", "--task", task, "--num_labels", labels,
                         "--train_data", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: num_labels must be ") and err.count("\n") == 1
        assert f"for task {task}, got {labels}" in err
        assert not out.exists()

    def test_non_utf8_config_is_one_error_line_naming_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed = 1\nhidden = \xff\n")
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: not UTF-8 text")
        assert err.strip().count("\n") == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_unreadable_checkpoint_is_one_error_line_naming_it(self, tmp_path, capsys, damage):
        args = ["train", "--out", str(tmp_path / "run")]
        for key, value in lm_overrides(tmp_path, epochs="0").items():
            args += [f"--{key}", value]
        assert cli.main(args) == 0
        ckpt = tmp_path / "run" / "checkpoint.npz"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(b"not an archive\n" * 64 if damage == "garbage" else raw[:len(raw) // 2])
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt} is not a readable .npz archive")
        assert err.strip().count("\n") == 0

    def test_non_utf8_data_is_one_error_line_naming_file_and_line(self, tmp_path, capsys):
        overrides = lm_overrides(tmp_path)
        with open(overrides["train_data"], "ab") as fh:
            fh.write(b"open1 \xff close1\n")
        lines = len(open(overrides["train_data"], "rb").read().splitlines())
        args = ["train", "--out", str(tmp_path / "run")]
        for key, value in overrides.items():
            args += [f"--{key}", value]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {overrides['train_data']}:{lines}: not UTF-8 text")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("label,message", [("x", "sentiment label 'x' is not an integer"),
                                               ("7", "sentiment label 7 outside 0..4")],
                             ids=["not-an-integer", "out-of-range"])
    def test_bad_sentiment_label_is_one_error_line_naming_file_and_line(self, tmp_path, capsys,
                                                                        label, message):
        path, out = tmp_path / "sent.tsv", tmp_path / "out"
        path.write_text(f"3\tfine film\n{label}\tgood movie\n")
        assert cli.main(["train", "--task", "sentiment", "--train_data", str(path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: {message}\n"
        assert not out.exists()

    def test_no_usable_examples_is_one_error_line_naming_the_file(self, tmp_path, capsys):
        # The binary task drops neutral (2) rows, and this file has no others.
        path, out = tmp_path / "neutral.tsv", tmp_path / "out"
        path.write_text("2\tso so\n2\tfair enough\n")
        assert cli.main(["train", "--task", "sentiment", "--num_labels", "2",
                         "--train_data", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: no usable examples after label filtering\n"
        assert not out.exists()

    def test_duplicate_vocabulary_token_is_one_error_line_naming_file_and_line(self, tmp_path,
                                                                               capsys):
        args = ["train", "--out", str(tmp_path / "run")]
        for key, value in lm_overrides(tmp_path, epochs="0").items():
            args += [f"--{key}", value]
        assert cli.main(args) == 0
        vocab = tmp_path / "run" / "vocab.txt"
        tokens = vocab.read_text().splitlines()
        vocab.write_text("\n".join(tokens + [tokens[5]]) + "\n")
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {vocab}:{len(tokens) + 1}: duplicate token {tokens[5]!r}, "
                       "first on line 6\n")

    def test_readme_fixed_flags_match_the_parser(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        listed = text.split("Fixed flags:", 1)[1].split("Any config key", 1)[0]
        subparsers = next(a for a in cli._make_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {flag for sub in subparsers.choices.values()
                 for flag in sub._option_string_actions if flag.startswith("--")}
        assert set(re.findall(r"--\w+", listed)) == flags - {"--help"}

    def test_dangling_override_fails(self, capsys):
        assert cli.main(["train", "--hidden"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        overrides = lm_overrides(tmp_path, max_steps="1")
        args = ["train", "--out", str(tmp_path / "run"), "--seed", "123"]
        for key, value in overrides.items():
            if key != "seed":
                args += [f"--{key}", value]
        assert cli.main(args) == 0
        text = (tmp_path / "run" / "config.cfg").read_text()
        assert "seed = 123" in text
