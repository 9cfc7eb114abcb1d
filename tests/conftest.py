"""Fixtures shared by the test modules."""

import pytest

from lstmn import autodiff as ad


@pytest.fixture
def made_ops(monkeypatch):
    """The op name of every node ``_make`` makes from here on."""
    ops = []
    make = ad._make

    def counting(data, parents, backward_fn, op, *args, **kwargs):
        ops.append(op)
        return make(data, parents, backward_fn, op, *args, **kwargs)

    monkeypatch.setattr(ad, "_make", counting)
    return ops
