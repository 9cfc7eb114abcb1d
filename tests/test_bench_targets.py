"""The benchmark's tracer wraps package functions by name and skips a
name it cannot find, so a rename in ``src/`` would drop its span in
silence.  Every timed target must still resolve."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import tracing  # noqa: E402


def test_every_timed_target_resolves():
    missing = [tracing._label(owner, attr) for owner, attr in tracing.TIMED
               if not hasattr(owner, attr)]
    assert missing == []
    assert len(tracing.Tracer(tracing.TIMED).targets) == len(tracing.TIMED)
