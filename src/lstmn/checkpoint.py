"""Checkpoint container: named parameter tensors in a single .npz file.

Compatibility between a checkpoint and a model is checked by the (name,
shape) of every tensor, in both directions, so a mismatched config fails
with the offending tensor named instead of silently training from
garbage.
"""

from __future__ import annotations

import os
import zipfile
import zlib

import numpy as np


class CheckpointError(ValueError):
    """Checkpoint is unreadable, or has missing, extra, shape-incompatible
    or non-finite tensors."""


def save_checkpoint(params: dict, path: str) -> None:
    """Write ``path`` (``.npz`` appended if missing) atomically: the
    archive goes to a temporary file in the same directory, which then
    replaces ``path``, so a save that fails part-way leaves the previous
    checkpoint intact and no temporary file behind."""
    if not path.endswith(".npz"):
        path += ".npz"
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{name: t.data for name, t in params.items()})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> dict:
    """Every array of the ``.npz`` at ``path``, by name.  A file that is not
    such an archive of plain arrays (truncated, garbage, or holding pickled
    objects, which are never loaded) is a ``CheckpointError`` naming it."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise
    except (ValueError, OSError, EOFError, NotImplementedError, zipfile.BadZipFile, zlib.error):
        raise CheckpointError(f"checkpoint {path} is not a readable .npz archive of arrays "
                              "(truncated, corrupt, or holding pickled objects)") from None


def load_into(params: dict, path: str) -> None:
    """Copy checkpoint arrays into the model's parameter tensors, each in
    the tensor's own memory layout and dtype: a checkpoint of the other
    precision is cast (float64 rounded to a float32 model, float32
    widened exactly to a float64 one).  Nothing is written unless every
    tensor is present, of the model's shape and finite in the model's
    dtype; a NaN/Inf, also one the cast makes (a float64 value beyond
    float32's range), is refused with the tensor named."""
    stored = load_checkpoint(path)
    missing = sorted(set(params) - set(stored))
    if missing:
        raise CheckpointError(f"checkpoint {path} is missing tensor {missing[0]!r}")
    extra = sorted(set(stored) - set(params))
    if extra:
        raise CheckpointError(f"checkpoint {path} has unexpected tensor {extra[0]!r}")
    for name, tensor in params.items():
        if stored[name].shape != tensor.data.shape:
            raise CheckpointError(
                f"tensor {name!r}: checkpoint shape {stored[name].shape} "
                f"!= model shape {tensor.data.shape}")
        with np.errstate(over="ignore"):
            stored[name] = stored[name].astype(tensor.data.dtype, copy=False)
        if not np.all(np.isfinite(stored[name])):
            raise CheckpointError(f"tensor {name!r}: checkpoint {path} holds non-finite "
                                  f"values as {tensor.data.dtype}")
    for name, tensor in params.items():
        tensor.data[...] = stored[name]
