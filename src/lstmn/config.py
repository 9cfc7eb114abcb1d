"""Run configuration: defaults, file parsing, overrides, validation.

Config files are flat ``key = value`` text (blank lines and ``#``
comment lines ignored).  Precedence is CLI overrides > file > defaults.
Every field is validated before any training starts and unknown keys are
rejected, so a typo fails fast instead of silently training the wrong
model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid, unknown, or inconsistent configuration."""


TASKS = ("lm", "sentiment", "nli")
MODELS = ("lstm", "lstmn", "lstmn-stack", "seq2seq-shallow", "seq2seq-deep")
SEQ2SEQ_MODELS = ("seq2seq-shallow", "seq2seq-deep")
EMBEDDING_POLICIES = ("auto", "none", "scale-first-epoch", "freeze-pretrained-first-epoch")


@dataclass
class RunConfig:
    """Every setting of a run.  A field that defaults to None is resolved
    from the task by ``finalize``; no parsed value is None, so every value
    given, -1 included, is validated."""

    task: str = "lm"
    model: str = "lstmn"

    # model dimensions
    hidden: int = 64
    embedding: int = 32
    attention: int = 0          # 0 -> same as hidden
    layers: int = 1
    capacity: int = 0           # memory span; 0 -> unbounded
    skip_connections: bool = False
    attention_bias: bool = True
    num_labels: int = None
    tie_encoders: bool = False

    # optimizer block
    optimizer: str = "auto"
    lr: float = None
    lr_decay: float = 0.85
    improvement_threshold: float = 0.001
    grad_clip: float = None
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    dropout: float = None
    l2: float = None
    embedding_grad_policy: str = "auto"   # auto -> from task and embeddings_path
    embedding_grad_scale: float = 0.35

    # data
    train_data: str = ""
    val_data: str = ""
    test_data: str = ""
    embeddings_path: str = ""
    vocab_size: int = 0         # 0 -> unlimited
    min_freq: int = 1

    # training loop
    epochs: int = 1
    batch_size: int = None
    max_steps: int = 0          # 0 -> no step cap
    bucketing: bool = False
    seed: int = 0
    precision: str = "float64"
    log_every: int = 50
    split: str = "test"         # which split run_eval reports on


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

_TASK_DEFAULTS = {
    # (optimizer, lr, batch, dropout, l2, grad_clip, labels)
    "lm": ("sgd", 0.65, 40, 0.0, 0.0, 5.0, 0),
    "sentiment": ("adam", 2e-3, 5, 0.5, 1e-4, 0.0, 5),
    "nli": ("adam", 1e-3, 16, 0.2, 0.0, 0.0, 3),
}

# embedding_grad_policy "auto" with pretrained vectors ("none" without).
_AUTO_EMBEDDING_POLICY = {"sentiment": "scale-first-epoch",
                          "nli": "freeze-pretrained-first-epoch"}


def _parse_value(name: str, raw: str):
    if name not in _FIELDS:
        raise ConfigError(f"unknown config key: {name}")
    ftype = _FIELDS[name].type
    raw = raw.strip()
    try:
        if ftype == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config key {name}: cannot parse {raw!r} as {ftype}") from None


def text_lines(path: str, error: type = ConfigError):
    """(line number, line) over a UTF-8 text file, counted from 1.  Bytes
    that are not UTF-8 are an ``error`` naming the path and the first line
    that holds them: a ``ConfigError`` for config files, and
    ``data.DataFormatError`` for the files ``data`` reads."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, error) from None


def _not_utf8(path: str, exc: UnicodeDecodeError, error: type) -> Exception:
    # The text reader decodes ahead of the lines it hands out, so the
    # failing line is found again in the raw bytes.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return error(f"{path}:{lineno}: not UTF-8 text ({bad.reason})")
    return error(f"{path}: not UTF-8 text ({exc.reason})")


def parse_config_file(path: str) -> dict:
    """The file's values by key.  A key set twice is refused, naming both
    lines, rather than one of them silently winning."""
    values, first = {}, {}
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: config key {key} is set again "
                              f"(first set on line {first[key]})")
        values[key], first[key] = _parse_value(key, raw), lineno
    return values


def build_config(file_path: str = "", overrides: dict | None = None) -> RunConfig:
    """Resolve defaults < file < overrides into a validated RunConfig."""
    values = {}
    if file_path:
        values.update(parse_config_file(file_path))
    for key, raw in (overrides or {}).items():
        key = key.replace("-", "_")
        values[key] = _parse_value(key, raw) if isinstance(raw, str) else raw
    cfg = RunConfig(**values)
    return finalize(cfg)


def finalize(cfg: RunConfig) -> RunConfig:
    """Fill per-task defaults and validate every field."""
    if cfg.task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {cfg.task!r}")
    if cfg.model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {cfg.model!r}")

    opt, lr, batch, drop, l2, clip, labels = _TASK_DEFAULTS[cfg.task]
    cfg = dataclasses.replace(
        cfg,
        optimizer=opt if cfg.optimizer == "auto" else cfg.optimizer,
        lr=lr if cfg.lr is None else cfg.lr,
        batch_size=batch if cfg.batch_size is None else cfg.batch_size,
        dropout=drop if cfg.dropout is None else cfg.dropout,
        l2=l2 if cfg.l2 is None else cfg.l2,
        num_labels=labels if cfg.num_labels is None else cfg.num_labels,
        attention=cfg.hidden if cfg.attention == 0 else cfg.attention,
    )
    if cfg.grad_clip is None:
        cfg = dataclasses.replace(cfg, grad_clip=clip if cfg.optimizer == "sgd" else 0.0)
    if cfg.embedding_grad_policy == "auto":
        policy = _AUTO_EMBEDDING_POLICY.get(cfg.task, "none") if cfg.embeddings_path else "none"
        cfg = dataclasses.replace(cfg, embedding_grad_policy=policy)

    def require(cond, msg):
        if not cond:
            raise ConfigError(msg)

    require(cfg.model != "lstmn" or cfg.layers == 1,
            "model lstmn is single-layer; use lstmn-stack with layers >= 2")
    require(cfg.model != "lstmn-stack" or cfg.layers >= 2,
            "model lstmn-stack needs layers >= 2")
    require(cfg.model not in SEQ2SEQ_MODELS or cfg.task in ("lm", "nli"),
            f"model {cfg.model} needs a source sequence; task {cfg.task} has none")
    require(cfg.task != "nli" or cfg.model != "lstm",
            "task nli supports lstmn, lstmn-stack, or seq2seq models")
    require(cfg.hidden >= 1, f"hidden must be >= 1, got {cfg.hidden}")
    require(cfg.embedding >= 1, f"embedding must be >= 1, got {cfg.embedding}")
    require(cfg.attention >= 1, f"attention must be >= 1, got {cfg.attention}")
    require(cfg.layers >= 1, f"layers must be >= 1, got {cfg.layers}")
    require(cfg.capacity >= 0, f"capacity must be >= 0, got {cfg.capacity}")
    require(cfg.optimizer in ("sgd", "adam"),
            f"optimizer must be sgd or adam, got {cfg.optimizer!r}")
    require(cfg.lr > 0, f"lr must be > 0, got {cfg.lr}")
    require(0.0 < cfg.lr_decay < 1.0, f"lr_decay must be in (0, 1), got {cfg.lr_decay}")
    require(cfg.improvement_threshold >= 0,
            f"improvement_threshold must be >= 0, got {cfg.improvement_threshold}")
    require(cfg.grad_clip >= 0, f"grad_clip must be >= 0, got {cfg.grad_clip}")
    require(0.0 <= cfg.beta1 < 1.0, f"beta1 must be in [0, 1), got {cfg.beta1}")
    require(0.0 <= cfg.beta2 < 1.0, f"beta2 must be in [0, 1), got {cfg.beta2}")
    require(cfg.adam_eps > 0, f"adam_eps must be > 0, got {cfg.adam_eps}")
    require(0.0 <= cfg.dropout < 1.0, f"dropout must be in [0, 1), got {cfg.dropout}")
    require(cfg.l2 >= 0, f"l2 must be >= 0, got {cfg.l2}")
    require(cfg.embedding_grad_policy in EMBEDDING_POLICIES,
            f"embedding_grad_policy must be one of {EMBEDDING_POLICIES}, "
            f"got {cfg.embedding_grad_policy!r}")
    require(cfg.embedding_grad_scale >= 0,
            f"embedding_grad_scale must be >= 0, got {cfg.embedding_grad_scale}")
    require(cfg.task == "lm" or cfg.num_labels >= 2,
            f"num_labels must be >= 2 for task {cfg.task}, got {cfg.num_labels}")
    require(cfg.epochs >= 0, f"epochs must be >= 0, got {cfg.epochs}")
    require(cfg.batch_size >= 1, f"batch_size must be >= 1, got {cfg.batch_size}")
    require(cfg.max_steps >= 0, f"max_steps must be >= 0, got {cfg.max_steps}")
    require(cfg.vocab_size >= 0, f"vocab_size must be >= 0, got {cfg.vocab_size}")
    require(cfg.min_freq >= 1, f"min_freq must be >= 1, got {cfg.min_freq}")
    require(cfg.log_every >= 1, f"log_every must be >= 1, got {cfg.log_every}")
    require(cfg.precision in ("float64", "float32"),
            f"precision must be float64 or float32, got {cfg.precision!r}")
    require(cfg.split in ("train", "val", "test"),
            f"split must be train/val/test, got {cfg.split!r}")
    return cfg


def data_kind(cfg: RunConfig) -> str:
    """Which loader format the task/model combination consumes."""
    if cfg.task == "sentiment":
        return "labeled-sentences"
    if cfg.task == "nli":
        return "sentence-pairs"
    if cfg.model in SEQ2SEQ_MODELS:
        return "sentence-pairs"   # conditional LM: source TAB target (any label)
    return "lm-text"


def format_config(cfg: RunConfig) -> str:
    """Serialize the effective config; reparsing reproduces the run."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
