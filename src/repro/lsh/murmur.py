"""MurmurHash3 (x86 32-bit variant), scalar and vectorized.

The paper uses MurmurHash3 as the random-projection function of the
re-hashing mechanism (Section IV-A2). The scalar implementation follows
Appleby's reference; the vectorized versions hash whole numpy arrays with
the same algorithm so the two can be cross-checked.

The vectorized functions are shape-agnostic: :func:`murmur3_int64` hashes
an array of any shape under one seed or an array of per-element seeds, and
:func:`hash_combine` folds the last axis of an N-d array with
:func:`fold_components`, which RBH also feeds from a table of its batch's cells.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Elements the batch callers (:mod:`repro.lsh.rbh`, :mod:`repro.lsh.rehash`)
#: hand to one hash pass: its few temporaries of that size (state, scratch, key
#: words; RBH's cell table and block of cells) stay under ~2 MB each, however
#: large the batch, while a pass stays long enough that numpy's per-call overhead is noise.
_CHUNK_CELLS = 200_000

_C1 = np.uint32(0xCC9E2D51)
_C2 = np.uint32(0x1B873593)
_F1, _F2 = np.uint32(0x85EBCA6B), np.uint32(0xC2B2AE35)
_U31, _S13, _S16 = np.uint32(31), np.uint32(13), np.uint32(16)
_MASK = 0xFFFFFFFF


def _rotl32(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """Reference scalar MurmurHash3_x86_32 over a byte string.

    Args:
        data: Bytes to hash.
        seed: 32-bit seed.

    Returns:
        The 32-bit hash as a non-negative int.
    """
    length = len(data)
    h = seed & _MASK
    n_blocks = length // 4
    for i in range(n_blocks):
        k = int.from_bytes(data[4 * i : 4 * i + 4], "little")
        k = (k * 0xCC9E2D51) & _MASK
        k = _rotl32(k, 15)
        k = (k * 0x1B873593) & _MASK
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK
    tail = data[4 * n_blocks :]
    k = 0
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * 0xCC9E2D51) & _MASK
        k = _rotl32(k, 15)
        k = (k * 0x1B873593) & _MASK
        h ^= k
    h ^= length
    return _fmix32_scalar(h)


def _fmix32_scalar(h: int) -> int:
    h &= _MASK
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK
    h ^= h >> 16
    return h


def _rotl32_vec(x: np.ndarray, r: int, scratch: np.ndarray) -> None:
    """Rotate each ``uint32`` of ``x`` left by ``r`` bits, in place."""
    np.right_shift(x, np.uint32(32 - r), out=scratch)
    x <<= np.uint32(r)
    x |= scratch


def _fmix32_vec(h: np.ndarray, scratch: np.ndarray) -> None:
    """MurmurHash3's 32-bit finalizer over each element of ``h``, in place."""
    np.right_shift(h, _S16, out=scratch)
    h ^= scratch
    h *= _F1
    np.right_shift(h, _S13, out=scratch)
    h ^= scratch
    h *= _F2
    np.right_shift(h, _S16, out=scratch)
    h ^= scratch


def _seed_state(seed: int | np.ndarray, shape: tuple) -> np.ndarray:
    """``seed`` (int or integer array) as a fresh ``uint32`` array of ``shape``."""
    seeds = np.asarray(seed)
    if seeds.dtype.kind not in "iu":
        raise ConfigError(f"seed must be an integer or an integer array, got dtype {seeds.dtype}")
    state = np.empty(shape, dtype=np.uint32)
    try:
        state[...] = seeds & _MASK  # the assignment broadcasts
    except ValueError:
        raise ConfigError(
            f"seed of shape {seeds.shape} does not broadcast to the hashed shape {shape}"
        ) from None
    return state


def murmur3_int64(values: np.ndarray, seed: int | np.ndarray = 0) -> np.ndarray:
    """Vectorized MurmurHash3_x86_32 of each int64 as an 8-byte little-endian key.

    Bit-identical to ``murmur3_32(value.tobytes(), seed)`` element-wise,
    for an array of any shape. ``seed`` is one 32-bit seed for every
    element or an integer array broadcastable to ``values.shape`` — e.g.
    a length-``m`` vector against ``(n, m)`` values hashes column ``j``
    under ``seed[j]``, all in this one call.

    Args:
        values: Array of int64 keys, any shape.
        seed: 32-bit seed, or an integer array of per-element seeds.

    Returns:
        ``uint32`` array of hashes, shaped like ``values``.

    Raises:
        ConfigError: If an array ``seed`` does not broadcast to
            ``values.shape`` or is not of integer dtype.
    """
    values = np.asarray(values, dtype=np.int64)
    vals = np.atleast_1d(values).view(np.uint64)
    # One state array, the two key words and one scratch buffer are all a
    # pass allocates; every step below works in place on them.
    h = _seed_state(seed, vals.shape)
    scratch = np.empty_like(h)
    low = vals.astype(np.uint32)  # the cast truncates to the low word
    high = (vals >> np.uint64(32)).astype(np.uint32)
    with np.errstate(over="ignore"):
        for k in (low, high):
            k *= _C1
            _rotl32_vec(k, 15, scratch)
            k *= _C2
            h ^= k
            _rotl32_vec(h, 13, scratch)
            h *= np.uint32(5)
            h += np.uint32(0xE6546B64)
        h ^= np.uint32(8)  # key length in bytes
        _fmix32_vec(h, scratch)
    return h.reshape(values.shape)


def hash_combine(values: np.ndarray, seed: int | np.ndarray = 0) -> np.ndarray:
    """Fold the last axis of an int64 array to one hash per leading index.

    Used to hash multi-dimensional LSH signatures (e.g. Random Binning
    Hashing's per-dimension grid coordinates) into a single 32-bit value:
    the whole tensor is murmur-mixed in one :func:`murmur3_int64` call,
    then component ``j`` of every vector is folded, in order, into a
    running state ``state = fmix(state * 31 + mixed[..., j])``. A 1-D
    input is ``n`` one-component vectors.

    Args:
        values: ``(..., d)`` int64 array (``(n, d)`` for a plain batch,
            ``(n, m, d)`` for ``m`` functions' signatures at once).
        seed: Initial state: one 32-bit seed, or an integer array
            broadcastable to ``values.shape[:-1]`` (a length-``m`` vector
            seeds function ``j`` of an ``(n, m, d)`` tensor with
            ``seed[j]``).

    Returns:
        ``uint32`` array of shape ``values.shape[:-1]``.

    Raises:
        ConfigError: If an array ``seed`` does not broadcast to
            ``values.shape[:-1]`` or is not of integer dtype.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[:, None]
    # The fold reads one component of every vector per step: lay the mixed
    # tensor out component-major once instead of striding through it d times.
    return fold_components(np.ascontiguousarray(np.moveaxis(murmur3_int64(arr), -1, 0)), seed)


def fold_components(mixed: np.ndarray, seed: int | np.ndarray = 0) -> np.ndarray:
    """:func:`hash_combine`'s fold of ``(d, ...)`` ``uint32`` hashes from
    ``seed``, component ``mixed[j]`` at step ``j``; ``uint32`` of ``mixed.shape[1:]``."""
    state = _seed_state(seed, mixed.shape[1:])
    scratch = np.empty_like(state)
    for component in mixed:  # state = fmix32(state * 31 + component)
        state *= _U31
        state += component
        _fmix32_vec(state, scratch)
    return state
