"""Deterministic random streams (stream contract 2).

All randomness flows through counter-based Philox generators keyed by a
master seed plus a path of purpose tags and context values, for example
(seed, "bootstrap") or (seed, "subsample", sample size). One key serves a
whole batch of draws: draw i of a batch is the i-th draw taken from the
batch's generator in index order. Consequences:

* the key is hashed once per batch, not once per draw;
* a batch is always drawn in index order in the calling thread, before any
  work is handed to worker threads, so results are identical across
  platforms, thread counts and chunk sizes;
* draw i does not depend on the batch size: the first 100 of 250
  permutations are the 100 permutations a 100-draw batch produces.

String tags are folded to integers with crc32, which is stable across
platforms and Python versions.

``STREAM_CONTRACT`` versions this derivation and is written into every
report's metadata. Contract 1 built one generator per draw, keyed by
(seed, purpose, index).
"""

import zlib

import numpy as np

STREAM_CONTRACT = 2


def _encode(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    raise TypeError(f"stream path parts must be str or int, got {type(part).__name__}")


def substream(seed: int, *path) -> np.random.Generator:
    """Return the Philox generator for (seed, *path)."""
    entropy = [_encode(seed)] + [_encode(p) for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *path) -> int:
    """Derive a child integer seed for handing to a nested seeded operation."""
    entropy = [_encode(seed)] + [_encode(p) for p in path]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def permutation_rows(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Permutations of range(shape[-1]) along the last axis, drawn from ``gen``.

    The permutations are taken in C order: for shape (k, n), row i equals
    the i-th ``gen.permutation(n)`` drawn in sequence.
    """
    return gen.permuted(np.broadcast_to(np.arange(shape[-1]), shape), axis=-1)
