"""``tools/fingerprint.py``, the bit-identity check for refactors that
claim unchanged numbers, must give the same digest on every call."""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fingerprint_is_a_stable_sha256():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", os.path.join(ROOT, "tools", "fingerprint.py"))
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    first = fingerprint.fingerprint("copy-seq2seq")
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert fingerprint.fingerprint("copy-seq2seq") == first
