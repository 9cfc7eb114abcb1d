"""A stateful property test of tape chains against a dense oracle.

``TapeChainMachine`` grows one chain of ``autodiff.tape_write`` nodes and
reads it with ``autodiff.tape_attend`` in any order that hypothesis picks:

* a write of 1 or m slots at the chain's end, in no more rows than the
  write before, from a first buffer of 1 to 4 slots, so writes grow it;
* a read of any node of the chain, old or newest, with a random window
  start, a mask or none, a bias or none, and a row range of a wider input
  block;
* an operation the chain must refuse (a write from an older node, more
  rows or other widths than the tape's, an empty window, more rows than
  the node's write covered, a fully masked row, a memory that is no tape
  node),
  after which every node's values and keys, the chain's written end and
  its read log's counts are as they were.

Each read's output and weights are checked against
``oracles.tape_read_ref`` when it is made, over a numpy copy of every slot
written.  At teardown one loss, sum_r g_r . out_r over every read, runs
backward, and the gradient of every leaf (each write's value parts and
keys, each read's input block and carried summary, and the shared W_x,
W_prev, v and bias) is checked against the oracle's sums.

Bounds, fixed before the first run: float64 at rtol 1e-10, atol 1e-12;
float32 at rtol 1e-4, atol 1e-5 against the same float64 oracle, run on
the float32 values.  The runs are derandomized and capped, so the suite
stays deterministic and the test takes seconds.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

import oracles
from lstmn import autodiff as ad
from lstmn.autodiff import ShapeMismatchError, TapeError, Tensor

ATTN, IN, CARRIED = 2, 2, 2      # key width a, input width, W_prev width k
REFUSALS = ("older write", "more rows", "value width", "key width", "empty window",
            "rows past the write", "masked row", "no tape")


class TapeChainMachine(RuleBasedStateMachine):
    DTYPE = np.float64
    TOLERANCE = dict(rtol=1e-10, atol=1e-12)

    def __init__(self):
        super().__init__()
        ad.set_default_dtype(self.DTYPE)
        self.nodes, self.writes, self.reads = [], [], []
        self.values, self.keys = [], []     # per slot, (B, d) and (B, a), 0 in rows unwritten

    def leaf(self, *shape) -> Tensor:
        return Tensor(self.rng.normal(size=shape), requires_grad=True)

    def new_write(self, prev, rows: int, m: int, widths=None, key_width: int = ATTN):
        """The parts and key leaves of m slots in ``rows`` rows, written
        after ``prev``: (B, k) parts for one slot, (B, m, k) for more."""
        lead = (rows,) if m == 1 else (rows, m)
        parts = [self.leaf(*lead, k) for k in widths or self.widths]
        key = self.leaf(*lead, key_width)
        return parts, key, ad.tape_write(prev, parts, key, self.first_slots)

    @initialize(seed=st.integers(0, 2**16), rows=st.integers(1, 3), m=st.integers(1, 3),
                first_slots=st.integers(1, 4), widths=st.sampled_from([(3,), (2, 1), (1, 1, 1)]))
    def first_write(self, seed, rows, m, first_slots, widths):
        self.rng = np.random.default_rng(seed)
        self.widths, self.first_slots, self.batch = widths, first_slots, rows
        self.w_x, self.w_prev = self.leaf(ATTN, IN), self.leaf(ATTN, CARRIED)
        self.v, self.bias = self.leaf(ATTN), self.leaf(ATTN)
        self.write_slots(None, rows, m)

    def write_slots(self, prev, rows: int, m: int) -> None:
        parts, key, node = self.new_write(prev, rows, m)
        n = len(self.values)
        self.writes.append((parts, key, rows, n, n + m))
        joined = np.concatenate([p.data.reshape(rows, m, -1) for p in parts], axis=2)
        for j in range(m):
            self.values.append(np.zeros((self.batch, joined.shape[2])))
            self.keys.append(np.zeros((self.batch, ATTN)))
            self.values[-1][:rows] = joined[:, j]
            self.keys[-1][:rows] = key.data.reshape(rows, m, ATTN)[:, j]
        self.nodes.append(node)
        assert node.end == len(self.values)

    @rule(data=st.data())
    def write(self, data):
        last = self.nodes[-1]
        self.write_slots(last, data.draw(st.integers(1, last.rows)), data.draw(st.integers(1, 3)))

    def read_args(self, data, node, lo: int, rows: int, masked_row=None):
        """A read of ``node`` from slot ``lo`` in ``rows`` rows: its input
        block, a row range of a wider block or none, the carried summary,
        read in its first rows and ``CARRIED`` columns, and a mask (with
        one more row, which the read must not see) or none."""
        start = data.draw(st.integers(0, 2))
        span = None if data.draw(st.booleans()) else (start, start + rows)
        x = self.leaf(rows if span is None else start + rows + data.draw(st.integers(0, 1)), IN)
        prev = self.leaf(rows + data.draw(st.integers(0, 1)),
                         CARRIED + data.draw(st.integers(0, 1)))
        width = node.end - lo
        mask = None
        if masked_row is not None or data.draw(st.booleans()):
            mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=(rows + 1) * width,
                                               max_size=(rows + 1) * width)),
                            dtype=float).reshape(rows + 1, width)
            mask[np.arange(rows), data.draw(st.lists(st.integers(0, width - 1),
                                                     min_size=rows, max_size=rows))] = 1.0
            mask[rows] = 0.0
            if masked_row is not None:
                mask[masked_row] = 0.0
        bias = self.bias if data.draw(st.booleans()) else None
        return x, span, prev, bias, mask

    @rule(data=st.data())
    def read(self, data):
        node = self.nodes[data.draw(st.integers(0, len(self.nodes) - 1))]
        lo = data.draw(st.integers(0, node.end - 1))
        rows = data.draw(st.integers(1, node.rows))
        x, span, prev, bias, mask = self.read_args(data, node, lo, rows)
        out, weights = ad.tape_attend(node, lo, x, self.w_x, prev, self.w_prev, self.v, bias,
                                      mask=mask, span=span)
        g = self.rng.normal(size=out.data.shape).astype(self.DTYPE)
        refs = [self.row_ref(node.end, lo, x, span, prev, bias, mask, g, b) for b in range(rows)]
        np.testing.assert_allclose(out.data, [r[0] for r in refs], **self.TOLERANCE)
        np.testing.assert_allclose(weights, [r[1] for r in refs], **self.TOLERANCE)
        assert out.data.dtype == weights.dtype == self.DTYPE
        self.reads.append((out, g, node.end, lo, x, span, prev, bias, mask, refs))

    def row_ref(self, hi, lo, x, span, prev, bias, mask, g, b):
        """``oracles.tape_read_ref`` of row b of a read, in float64."""
        f64 = np.float64
        return oracles.tape_read_ref(
            np.stack([s[b] for s in self.values[lo:hi]]),
            np.stack([k[b] for k in self.keys[lo:hi]]),
            x.data[(0 if span is None else span[0]) + b].astype(f64), self.w_x.data.astype(f64),
            prev.data[b, :CARRIED].astype(f64), self.w_prev.data.astype(f64),
            self.v.data.astype(f64), None if bias is None else bias.data.astype(f64),
            None if mask is None else mask[b], g[b])

    def chain_state(self) -> list:
        log = self.nodes[-1].log
        return [n.data.tobytes() + n.keys.tobytes() for n in self.nodes] + \
            [log.end, log.reads, log.count, len(self.nodes), len(self.values)]

    @rule(data=st.data(), refusal=st.sampled_from(REFUSALS))
    def refuse(self, data, refusal):
        if refusal == "older write" and len(self.nodes) == 1:
            refusal = "more rows"   # a write from None starts a new chain
        before = self.chain_state()
        last = self.nodes[-1]
        node = self.nodes[data.draw(st.integers(0, len(self.nodes) - 1))]
        with pytest.raises((TapeError, ShapeMismatchError)):
            if refusal == "older write":
                self.new_write(data.draw(st.sampled_from(self.nodes[:-1])), 1, 1)
            elif refusal == "more rows":
                self.new_write(last, last.rows + 1, data.draw(st.integers(1, 2)))
            elif refusal == "value width":
                self.new_write(last, 1, 1, widths=self.widths + (1,))
            elif refusal == "key width":
                self.new_write(last, 1, 1, key_width=ATTN + 1)
            elif refusal in ("empty window", "no tape"):
                x, span, prev, bias, _ = self.read_args(data, node, 0, 1)
                memory = Tensor(node.data, requires_grad=True) if refusal == "no tape" else node
                lo = 0 if refusal == "no tape" else node.end
                ad.tape_attend(memory, lo, x, self.w_x, prev, self.w_prev, self.v, bias,
                               span=span)
            else:
                rows = node.rows + 1 if refusal == "rows past the write" else node.rows
                masked = data.draw(st.integers(0, rows - 1)) if refusal == "masked row" else None
                x, span, prev, bias, mask = self.read_args(data, node, 0, rows, masked)
                ad.tape_attend(node, 0, x, self.w_x, prev, self.w_prev, self.v, bias,
                               mask=mask, span=span)
        assert self.chain_state() == before

    def teardown(self):
        try:
            if self.reads:
                self.check_gradients()
        finally:
            ad.set_default_dtype(np.float64)

    def check_gradients(self):
        total = None
        for out, g, *_ in self.reads:
            term = ad.sum_all(ad.mul(out, Tensor(g)))
            total = term if total is None else ad.add(total, term)
        shared = [self.w_x, self.w_prev, self.v, self.bias]
        leaves = shared + [t for parts, key, *_ in self.writes for t in parts + [key]] + \
            [t for *_, x, _, prev, _, _, _ in self.reads for t in (x, prev)]
        ad.backward(total, params=leaves)

        want = {id(t): np.zeros(t.data.shape) for t in leaves}
        slot_values = np.zeros((self.batch, len(self.values), self.values[0].shape[1]))
        slot_keys = np.zeros((self.batch, len(self.keys), ATTN))
        for _, _, hi, lo, x, span, prev, bias, _, refs in self.reads:
            for b, (_, _, grads) in enumerate(refs):
                slot_values[b, lo:hi] += grads["values"]
                slot_keys[b, lo:hi] += grads["keys"]
                want[id(x)][(0 if span is None else span[0]) + b] += grads["x"]
                want[id(prev)][b, :CARRIED] += grads["prev"]
                for t, name in zip(shared, ("w_x", "w_prev", "v", "bias")):
                    if name != "bias" or bias is not None:
                        want[id(t)] += grads[name]
        for parts, key, rows, n, stop in self.writes:
            cols = np.cumsum((0,) + self.widths)
            for p, c0, c1 in zip(parts, cols[:-1], cols[1:]):
                want[id(p)] = slot_values[:rows, n:stop, c0:c1].reshape(p.data.shape)
            want[id(key)] = slot_keys[:rows, n:stop].reshape(key.data.shape)
        for t in leaves:
            assert t.grad.dtype == self.DTYPE
            np.testing.assert_allclose(t.grad, want[id(t)], **self.TOLERANCE)


TapeChainMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, derandomize=True, deadline=None, database=None)
TestTapeChains = TapeChainMachine.TestCase


class Float32TapeChainMachine(TapeChainMachine):
    DTYPE = np.float32
    TOLERANCE = dict(rtol=1e-4, atol=1e-5)


Float32TapeChainMachine.TestCase.settings = TapeChainMachine.TestCase.settings
TestTapeChainsFloat32 = Float32TapeChainMachine.TestCase
