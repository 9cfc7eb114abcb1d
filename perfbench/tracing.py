"""Per-layer measurement from outside the package.

``Tracer`` wraps public functions of the package's modules from here,
records a span per call and puts every original back on exit; nothing
under ``src/`` changes.  Counts come from a separate forward-only pass,
memory peaks from ``tracemalloc``, and backward times from probes that
run one layer alone on inputs shaped like the workload's first batch.
"""

from __future__ import annotations

import inspect
import statistics
import time
import tracemalloc

import numpy as np

from lstmn import autodiff as ad
from lstmn import cells, data, fusion, heads, models, optim, train

# Spans of the timed traced run: layer boundaries only, so that a span's
# self time (duration minus its child spans) is the layer's own work.
TIMED = [
    (ad, "lookup"), (ad, "backward"),
    (heads, "lm_loss"), (heads, "lm_correct"),
    (cells, "run_stack"), (cells, "intra_attend"),
    (fusion, "encode"), (fusion, "run_decoder"), (fusion, "inter_attend"),
    (optim, "renorm_gradients"), (optim.Sgd, "step"), (optim.Adam, "step"),
    (data, "load_dataset"), (data, "build_vocab"), (data, "batchify"),
    (train, "prepare_examples"), (models, "build_model"),
]

SETUP_METRICS = (("data.load_ms", "data.load_dataset"),
                 ("data.build_vocab_ms", "data.build_vocab"),
                 ("train.prepare_ms", "train.prepare_examples"),
                 ("data.batchify_ms", "data.batchify"),
                 ("models.build_ms", "models.build_model"))

# Intra-attention per-call buckets by tape length, with the tape length a
# probe uses when the workload's own loop never reaches the bucket.
BUCKETS = (("short", 1, 16, 8), ("mid", 17, 64, 40), ("long", 65, None, 96))

# Each per-layer metric: its unit, and the end-to-end metric (and
# workload) it is predicted to move.
PER_LAYER = {
    "models.embed_fwd_ms_per_step": ("ms", "train_tok_s on lm-ptb-scale; flat on lm-long-tape"),
    "models.embed_bwd_ms_per_step": ("ms", "train_tok_s, peak_rss_mb on lm-ptb-scale"),
    "heads.lm_loss_fwd_ms_per_step":
        ("ms", "train_tok_s, peak_rss_mb on lm-ptb-scale; flat on lm-long-tape"),
    "heads.lm_loss_bwd_ms_per_step":
        ("ms", "train_tok_s, peak_rss_mb on lm-ptb-scale; flat on lm-long-tape"),
    "heads.lm_correct_ms_per_batch": ("ms", "eval_tok_s on lm-ptb-scale"),
    "cells.run_stack_fwd_ms_per_step": ("ms", "train_tok_s, eval_tok_s on lm-long-tape"),
    "cells.run_stack_bwd_ms_per_step": ("ms", "train_tok_s, eval_tok_s on lm-long-tape"),
    "cells.intra_attend_us.short":
        ("us", "train_tok_s on lm-long-tape; decode_ms_per_tok_p50 on copy-seq2seq"),
    "cells.intra_attend_us.mid": ("us", "train_tok_s on lm-long-tape"),
    "cells.intra_attend_us.long": ("us", "train_tok_s on lm-long-tape"),
    "cells.tape_slots_per_step": ("count", "workload property; repeats exactly"),
    "fusion.encode_fwd_ms_per_step": ("ms", "train_tok_s on copy-seq2seq"),
    "fusion.run_decoder_fwd_ms_per_step": ("ms", "train_tok_s on copy-seq2seq"),
    "fusion.decoder_bwd_ms_per_step": ("ms", "train_tok_s on copy-seq2seq"),
    "fusion.inter_attend_us_per_call": ("us", "decode_ms_per_tok_p50 on copy-seq2seq"),
    "autodiff.backward_ms_per_step": ("ms", "train_tok_s on all three workloads"),
    "autodiff.kernel_calls_per_step":
        ("count", "train_tok_s on copy-seq2seq, lm-long-tape; ~flat on lm-ptb-scale"),
    "autodiff.kernel_calls_per_decoded_tok": ("count", "decode_ms_per_tok_p50"),
    "autodiff.train_step_peak_mb": ("MB", "peak_rss_mb, eval_tok_s on lm-ptb-scale"),
    "autodiff.eval_batch_peak_mb": ("MB", "peak_rss_mb, eval_tok_s on lm-ptb-scale"),
    "optim.clip_ms_per_step": ("ms", "train_tok_s on lm-ptb-scale; flat on lm-long-tape"),
    "optim.step_ms_per_step": ("ms", "train_tok_s on lm-ptb-scale; flat on lm-long-tape"),
    "data.load_ms": ("ms", "setup_s, most on lm-ptb-scale"),
    "data.build_vocab_ms": ("ms", "setup_s, most on lm-ptb-scale"),
    "train.prepare_ms": ("ms", "setup_s, most on lm-ptb-scale"),
    "data.batchify_ms": ("ms", "setup_s, most on lm-ptb-scale"),
    "models.build_ms": ("ms", "setup_s, most on lm-ptb-scale"),
    "trace.overhead_ratio": ("ratio", "information: traced / untraced train_tok_s"),
}


def _label(owner, attr: str) -> str:
    if inspect.isclass(owner):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def kernels() -> list:
    """``autodiff``'s public kernels, found at run time: the public
    functions that create graph nodes through ``_make``."""
    return [(ad, name) for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_") and "_make" in fn.__code__.co_names]


class Tracer:
    """Spans (name, start, end, parent index, tape length) for every call of
    the wrapped functions while the tracer is entered."""

    def __init__(self, targets):
        self.targets = [t for t in targets if hasattr(t[0], t[1])]
        self.spans = []
        self._open = []
        self._saved = []

    def __enter__(self):
        for owner, attr in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrapper(original, _label(owner, attr), attr == "intra_attend"))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, name: str, tape_arg: bool):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent,
                                len(args[1]) if tape_arg else None)
                open_.pop()
        traced.__wrapped__ = fn
        return traced

    def clear(self) -> None:
        self.spans.clear()

    def durations(self, name: str, self_time: bool = False) -> list:
        child = {}
        if self_time:
            for s in self.spans:
                if s[3] >= 0:
                    child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
        return [s[2] - s[1] - child.get(i, 0.0)
                for i, s in enumerate(self.spans) if s[0] == name]

    def count(self, prefix: str) -> int:
        return sum(1 for s in self.spans if s[0].startswith(prefix))


def bucket_of(tape_len: int) -> str:
    for name, lo, hi, _ in BUCKETS:
        if tape_len >= lo and (hi is None or tape_len <= hi):
            return name
    raise ValueError(tape_len)


# ---------------------------------------------------------------------------
# probes


def _linear_loss(outs, coefs):
    total = None
    for o, c in zip(outs, coefs):
        term = ad.sum_all(ad.mul(o, ad.Tensor(c)))
        total = term if total is None else ad.add(total, term)
    return total


def probe(build, reps: int) -> tuple:
    """Median forward and backward seconds of one layer.  ``build()`` runs
    the layer on fresh leaves and returns its outputs; backward runs on a
    fixed random linear function of them, minus the same function's
    backward on detached copies."""
    fwd, bwd = [], []
    for _ in range(reps):
        rng = np.random.default_rng(4321)
        t0 = time.perf_counter()
        outs = build()
        fwd.append(time.perf_counter() - t0)
        coefs = [rng.standard_normal(o.data.shape) for o in outs]
        loss = _linear_loss(outs, coefs)
        t0 = time.perf_counter()
        ad.backward(loss)
        t1 = time.perf_counter()
        control = _linear_loss([ad.Tensor(o.data, requires_grad=True) for o in outs], coefs)
        t2 = time.perf_counter()
        ad.backward(control)
        bwd.append(t1 - t0 - (time.perf_counter() - t2))
        del outs, loss, control
    return statistics.median(fwd), statistics.median(bwd)


def _leaves(rng, count: int, shape: tuple) -> list:
    return [ad.Tensor(rng.standard_normal(shape) * 0.1, requires_grad=True)
            for _ in range(count)]


def decoder_io(batch, vocab) -> tuple:
    """Teacher-forcing inputs, targets and mask of a seq2seq batch, as the
    private ``Seq2SeqModel._decoder_io`` builds them."""
    tgt, mask = batch.tokens2, batch.mask2
    b, m = tgt.shape
    lengths = mask.sum(axis=1).astype(int)
    inputs = np.full((b, m + 1), vocab.pad, dtype=np.int64)
    targets = np.full((b, m + 1), vocab.pad, dtype=np.int64)
    out_mask = np.zeros((b, m + 1))
    inputs[:, 0] = vocab.bos
    inputs[:, 1:] = tgt
    targets[:, :m] = tgt
    for i, n in enumerate(lengths):
        targets[i, n] = vocab.eos
        out_mask[i, :n + 1] = 1.0
    return inputs, targets, out_mask


def layer_probes(run, batch, reps: int) -> dict:
    """Forward/backward seconds of each layer alone on ``batch``'s shapes,
    plus decoder spans for workloads whose loop has no decoder."""
    model, cfg = run.model, run.cfg
    rng = np.random.default_rng(99)
    seq2seq = isinstance(model, models.Seq2SeqModel)
    if seq2seq:
        src_tokens, src_mask = batch.tokens, batch.mask
        dec_inputs, targets, out_mask = decoder_io(batch, run.vocab)
        stack, decoder = model.encoder, model.decoder
        blocks = [src_tokens, dec_inputs]
    else:
        src_tokens, src_mask = batch.tokens[:, :-1], batch.mask[:, :-1]
        dec_inputs, targets, out_mask = src_tokens, batch.tokens[:, 1:], batch.mask[:, 1:]
        stack = model.stack
        decoder = fusion.init_decoder(rng, cfg.hidden, cfg.embedding, cfg.attention)
        blocks = [src_tokens]
    b, t_src = src_tokens.shape
    t_dec = dec_inputs.shape[1]
    width = model.proj.w.data.shape[1]
    table = model.embeddings.weights
    cap = cfg.capacity or None

    out = {}
    out["embed"] = probe(lambda: [ad.lookup(table, blk[:, t]) for blk in blocks
                                  for t in range(blk.shape[1])], reps)
    out["lm_loss"] = probe(lambda: [heads.lm_loss(_leaves(rng, t_dec, (b, width)), targets,
                                                  out_mask, model.proj)[0]], reps)

    def stack_run():
        r = cells.run_stack(_leaves(rng, t_src, (b, cfg.embedding)), stack, cap)
        return r.top_h + r.top_c
    out["run_stack"] = probe(stack_run, reps)

    src = fusion.SourceTapes(y=_leaves(rng, 1, (b, t_src, cfg.hidden))[0],
                             a=_leaves(rng, 1, (b, t_src, cfg.hidden))[0], mask=src_mask)
    tracer = Tracer([(cells, "intra_attend"), (fusion, "inter_attend"), (fusion, "run_decoder")])
    with tracer:
        out["decoder"] = probe(lambda: fusion.run_decoder(_leaves(rng, t_dec, (b, cfg.embedding)),
                                                          src, decoder, "deep", cap).outputs, reps)
    out["run_decoder_self"] = statistics.median(tracer.durations("fusion.run_decoder", True))
    out["inter_attend_calls"] = tracer.durations("fusion.inter_attend")
    out["encode"] = probe(lambda: [fusion.encode(_leaves(rng, t_src, (b, cfg.embedding)), stack,
                                                 cap, src_mask)[0].y], 1)
    ad.zero_grad(run.tensors)
    return out


def intra_attend_probe(run, tape_len: int, batch_size: int, reps: int = 20) -> float:
    """Median seconds of one ``intra_attend`` call over a tape of
    ``tape_len`` slots with cached projections."""
    cfg = run.cfg
    model = run.model
    layer = (model.encoder if isinstance(model, models.Seq2SeqModel) else model.stack).layers[0]
    rng = np.random.default_rng(5)
    tapes = cells.Tapes()
    for h, c in zip(_leaves(rng, tape_len, (batch_size, cfg.hidden)),
                    _leaves(rng, tape_len, (batch_size, cfg.hidden))):
        tapes.append(h, c, ad.linear(h, layer.attn.w_h))
    x = _leaves(rng, 1, (batch_size, layer.attn.w_x.data.shape[1]))[0]
    prev = _leaves(rng, 1, (batch_size, cfg.hidden))[0]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        cells.intra_attend(x, tapes, prev, layer.attn)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def memory_peaks(run, train_batch, val_batch) -> tuple:
    """``tracemalloc`` peaks (bytes above the starting level) of one train
    step's forward, backward and clipping, and of one eval batch.  The
    optimizer step is left out so the pass changes no weights."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.zero_grad(run.tensors)
        loss, _ = run.model.loss(train_batch, training=True, rng=None)
        ad.backward(loss, params=run.tensors)
        if run.cfg.grad_clip > 0:
            optim.renorm_gradients(run.tensors, run.cfg.grad_clip)
        train_peak = tracemalloc.get_traced_memory()[1] - base
        del loss
        ad.zero_grad(run.tensors)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run.model.evaluate([val_batch])
        eval_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return train_peak, eval_peak


# ---------------------------------------------------------------------------
# per-layer metrics


def loop_metrics(tracers: dict, steps: int, batches: int, optimizer: str, seq2seq: bool) -> dict:
    """Per-layer values from the spans of the traced decode, eval and train
    phases: (value, sample count, source)."""
    train_t, eval_t, decode_t = tracers["train_traced"], tracers["eval"], tracers["decode"]

    def per_step(name, self_time=False):
        return (1e3 * sum(train_t.durations(name, self_time)) / steps, steps, "loop")

    out = {
        "models.embed_fwd_ms_per_step": per_step("autodiff.lookup"),
        "heads.lm_loss_fwd_ms_per_step": per_step("heads.lm_loss"),
        "heads.lm_correct_ms_per_batch": (
            1e3 * sum(eval_t.durations("heads.lm_correct")) / batches, batches, "loop"),
        "cells.run_stack_fwd_ms_per_step": per_step("cells.run_stack", True),
        "autodiff.backward_ms_per_step": per_step("autodiff.backward"),
        "optim.clip_ms_per_step": per_step("optim.renorm_gradients"),
        "optim.step_ms_per_step": per_step(f"optim.{optimizer}.step"),
    }
    by_bucket = {name: [] for name, *_ in BUCKETS}
    for s in train_t.spans:
        if s[0] == "cells.intra_attend":
            by_bucket[bucket_of(s[4])].append(s[2] - s[1])
    for name, calls in by_bucket.items():
        if calls:
            out[f"cells.intra_attend_us.{name}"] = (1e6 * statistics.median(calls), len(calls),
                                                    "loop")
    if seq2seq:
        inter = decode_t.durations("fusion.inter_attend")
        out["fusion.encode_fwd_ms_per_step"] = per_step("fusion.encode")
        out["fusion.run_decoder_fwd_ms_per_step"] = per_step("fusion.run_decoder", True)
        out["fusion.inter_attend_us_per_call"] = (1e6 * statistics.median(inter), len(inter),
                                                  "loop, B=1 decode")
    return out


def fill_in(layer: dict, probes: dict, run, reps: int) -> dict:
    """Backward times from the probes, and probe values for the layers the
    workload's own loop never runs (fusion in a language model, tape
    lengths it never reaches)."""
    out = {key: (1e3 * probes[name][1], reps, "probe")
           for key, name in (("models.embed_bwd_ms_per_step", "embed"),
                             ("heads.lm_loss_bwd_ms_per_step", "lm_loss"),
                             ("cells.run_stack_bwd_ms_per_step", "run_stack"),
                             ("fusion.decoder_bwd_ms_per_step", "decoder"))}
    for name, _, _, tape_len in BUCKETS:
        key = f"cells.intra_attend_us.{name}"
        if key not in layer:
            out[key] = (1e6 * intra_attend_probe(run, tape_len, run.cfg.batch_size), 20,
                        f"probe, tape {tape_len}")
    if "fusion.encode_fwd_ms_per_step" not in layer:
        inter = probes["inter_attend_calls"]
        out["fusion.encode_fwd_ms_per_step"] = (1e3 * probes["encode"][0], 1, "probe")
        out["fusion.run_decoder_fwd_ms_per_step"] = (1e3 * probes["run_decoder_self"], reps,
                                                     "probe")
        out["fusion.inter_attend_us_per_call"] = (1e6 * statistics.median(inter), len(inter),
                                                  "probe")
    return out


def format_table(workload: str, layer: dict) -> str:
    rows = [f"per-layer {workload}",
            f"  {'metric':38} {'value':>11} {'unit':5} {'n':>5}  {'source':17} predicted to move"]
    for name, (unit, moves) in PER_LAYER.items():
        value, n, source = layer[name]
        rows.append(f"  {name:38} {value:11.5g} {unit:5} {n:5}  {source:17} {moves}")
    return "\n".join(rows)
