"""``tools/fingerprint.py``, the bit-identity check for refactors that
claim unchanged numbers, must give the same digest on every call, at
either precision."""

import importlib.util
import os
import re

import numpy as np

from lstmn.autodiff import set_default_dtype

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", os.path.join(ROOT, "tools", "fingerprint.py"))
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    return fingerprint


def test_fingerprint_is_a_stable_sha256():
    fingerprint = _tool()
    first = fingerprint.fingerprint("copy-seq2seq")
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert fingerprint.fingerprint("copy-seq2seq") == first


def test_float32_fingerprint_is_stable_and_its_own(capsys):
    fingerprint = _tool()
    try:
        assert fingerprint.main(["--precision", "float32", "copy-seq2seq"]) == 0
        first = fingerprint.fingerprint("copy-seq2seq", "float32")
    finally:
        set_default_dtype(np.float64)
    assert capsys.readouterr().out == f"copy-seq2seq {first}\n"
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert first != fingerprint.fingerprint("copy-seq2seq")
