"""k-wise independent hashing via random polynomials.

Evaluation of a random degree-(k-1) polynomial over the Mersenne
prime field GF(2^61 - 1) gives a k-wise independent family; the ℓ0-
sampler's level assignment and fingerprint verification both build on
it.  Python integers make the modular arithmetic exact and simple.

Two evaluation paths share the same coefficients:

* the scalar path (:meth:`PolynomialHash.value`) — exact Python-int
  Horner, kept as the bit-equality reference;
* the columnar path (:meth:`PolynomialHash.values_many`) — numpy
  Horner over ``uint64`` arrays, where each modular product is
  computed exactly via 32-bit limb splitting (:func:`mulmod_vec`).
  ``2^61 ≡ 1 (mod p)`` makes the limb recombination a few shifts.

Both paths return identical field elements for identical inputs; the
fuzz tests in ``tests/test_vectorized_equivalence.py`` pin this down.
The module-level forms (:func:`horner_vec`, :func:`hash_levels`,
:func:`powmod_rows`) broadcast, so the ℓ0-sampler bank evaluates one
hash function *per row* over a block of ``(row, item)`` pairs with the
same exact arithmetic.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.utils.rng import RandomSource, ensure_rng

#: The Mersenne prime 2^61 - 1.
MERSENNE_PRIME = (1 << 61) - 1

_P = np.uint64(MERSENNE_PRIME)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_U3 = np.uint64(3)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U61 = np.uint64(61)
_LOW_MAX = (1 << 32) - 1
_PRIME_BITS = MERSENNE_PRIME.bit_length()
#: Levels :func:`hash_levels` computes through float64 bit lengths
#: (values below ``2^53`` convert exactly).
_EXACT_FLOAT_LEVELS = 52

#: Exponent bits per window of :func:`power_tables` (64-entry tables).
WINDOW_BITS = 6
_WINDOW = 1 << WINDOW_BITS
_WINDOW_MASK = np.uint64(_WINDOW - 1)


def mulmod_vec(a: np.ndarray, b, addend=None) -> np.ndarray:
    """Elementwise ``(a * b [+ addend]) mod (2^61 - 1)`` on ``uint64`` operands < p.

    A 61-bit product does not fit in 64 bits, so each factor is split
    into 32-bit limbs; ``2^64 ≡ 8`` and ``2^61 ≡ 1 (mod p)`` fold the
    partial products back without ever exceeding ``uint64``:

    ``a·b = hh·2^64 + mid·2^32 + ll`` with ``hh = a_hi·b_hi`` (< 2^58),
    ``mid = a_hi·b_lo + a_lo·b_hi`` (< 2^62), ``ll = a_lo·b_lo``.
    ``mid·2^32 = (mid >> 29)·2^61 + (mid mod 2^29)·2^32 ≡
    (mid >> 29) + (mid mod 2^29)·2^32``.  The folded terms sum below
    ``3·2^61 + 2^34``, so an *addend* < p (a Horner step's coefficient)
    joins them before the single final reduction.  Operands broadcast.
    """
    a_hi = a >> _U32
    a_lo = a & _MASK32
    b_hi = b >> _U32
    b_lo = b & _MASK32
    mid = a_hi * b_lo
    mid += a_lo * b_hi
    out = a_hi * b_hi
    out <<= _U3
    ll = a_lo * b_lo
    out += ll >> _U61
    ll &= _P
    out += ll
    out += mid >> _U29
    mid &= _MASK29
    mid <<= _U32
    out += mid
    if addend is not None:
        out += addend
    high = out >> _U61
    out &= _P
    out += high
    return _reduce_once(out)


def mulmod32_vec(a: np.ndarray, x, addend=None) -> np.ndarray:
    """:func:`mulmod_vec` for a second factor below ``2^32``.

    With ``x < 2^32`` only *a* needs splitting: ``a·x = (a_hi·x)·2^32 +
    a_lo·x``, where ``a_hi·x < 2^61`` folds like :func:`mulmod_vec`'s
    ``mid`` and ``a_lo·x < 2^64`` like its ``ll``, so the two high-limb
    products are skipped.  Same exact residue, so the two forms agree
    bit for bit.  Operands broadcast.
    """
    return _reduce_once(_mulmod32_folded(a, x, addend))


def _mulmod32_folded(a: np.ndarray, x, addend) -> np.ndarray:
    """``a·x [+ addend]`` congruent mod p and folded below ``2^61 + 3``, not reduced.

    Takes *a* up to ``2^61 + 2`` — its own output — so a Horner chain
    reduces once at the end.  The folded terms sum below ``3·2^61 +
    2^33`` with an *addend* < p; one more fold (``2^61 ≡ 1``) leaves
    at most ``p + 3``.
    """
    mid = (a >> _U32) * x
    out = (a & _MASK32) * x
    high = out >> _U61
    out &= _P
    out += high
    out += mid >> _U29
    mid &= _MASK29
    mid <<= _U32
    out += mid
    if addend is not None:
        out += addend
    high = out >> _U61
    out &= _P
    out += high
    return out


def _reduce_once(out: np.ndarray) -> np.ndarray:
    """``out mod p`` for ``out < 2p``: below p, ``out - p`` wraps above ``out``."""
    return np.minimum(out, out - _P)


def addmod_vec(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``(a + b) mod (2^61 - 1)`` on ``uint64`` operands < p."""
    return _reduce_once(a + b)


def power_tables(bases: np.ndarray, bits: int) -> np.ndarray:
    """Per-row window tables: ``T[r, j, w] = bases[r]^(w·64^j) mod p``.

    Covers exponents below ``2^bits`` with ``ceil(bits / 6)`` windows of
    64 entries; each window fills by doubling (6 vector products over
    the rows), then its base steps to the next power of 64.
    """
    bases = np.ascontiguousarray(bases, dtype=np.uint64)
    windows = max(1, -(-bits // WINDOW_BITS))
    tables = np.empty((len(bases), windows, _WINDOW), dtype=np.uint64)
    step = bases % _P
    for window in range(windows):
        table = tables[:, window]
        table[:, 0] = 1
        width = 1
        while width < _WINDOW:
            factor = mulmod_vec(table[:, width - 1], step)  # step^width
            table[:, width : 2 * width] = mulmod_vec(table[:, :width], factor[:, None])
            width *= 2
        step = mulmod_vec(table[:, _WINDOW - 1], step)  # step^64
    return tables


def powmod_rows(tables: np.ndarray, rows: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``base[row]^exponent mod p`` from :func:`power_tables`, broadcasting.

    *rows* and *exponents* broadcast against each other (a row block
    against shared items, or flat ``(row, item)`` pairs); every
    exponent must be below ``2^(6·windows)``.  Costs one gather per
    window the largest exponent uses plus one :func:`mulmod_vec` per
    further window — not one masked product per exponent bit.
    """
    exponents = np.asarray(exponents, dtype=np.uint64)
    windows = tables.shape[1]
    flat = tables.reshape(-1)
    base = np.asarray(rows, dtype=np.int64) * (windows * _WINDOW)
    top = int(exponents.max()) if exponents.size else 0
    used = max(1, -(-top.bit_length() // WINDOW_BITS))
    if used > windows:
        raise ValueError(f"exponent {top} needs {used} windows; the tables have {windows}")
    result = flat.take(base + (exponents & _WINDOW_MASK).astype(np.int64))
    for window in range(1, used):
        digits = (exponents >> np.uint64(WINDOW_BITS * window)) & _WINDOW_MASK
        result = mulmod_vec(
            result, flat.take(base + (window * _WINDOW) + digits.astype(np.int64))
        )
    return result


def horner_vec(coefficients, x: np.ndarray) -> np.ndarray:
    """Evaluate polynomials at *x* over GF(p), highest degree first.

    Each ``coefficients[k]`` broadcasts against *x*: scalars give one
    polynomial, a ``(rows, 1)`` column block gives one polynomial per
    row over shared items, and a ``(pairs,)`` gather gives one per
    ``(row, item)`` pair.  When every ``x`` is below ``2^32`` (every
    item of a universe up to ``2^32``) each step is a
    :func:`mulmod32_vec`, left folded but unreduced until the last;
    otherwise the full :func:`mulmod_vec`.
    """
    if len(coefficients) == 1:
        return addmod_vec(np.zeros_like(x), coefficients[0])
    accumulator = coefficients[0]
    if x.size and int(x.max()) <= _LOW_MAX:
        for coefficient in coefficients[1:]:
            accumulator = _mulmod32_folded(accumulator, x, coefficient)
        return _reduce_once(accumulator)
    for coefficient in coefficients[1:]:
        accumulator = mulmod_vec(accumulator, x, coefficient)
    return accumulator


def horner(coefficients: Sequence[int], item: int) -> int:
    """Scalar Python-int form of :func:`horner_vec` (the exact reference)."""
    accumulator = 0
    x = item % MERSENNE_PRIME
    for coefficient in coefficients:
        accumulator = (accumulator * x + coefficient) % MERSENNE_PRIME
    return accumulator


def geometric_level(raw: int, max_level: int) -> int:
    """Level of a raw hash value: ``P(level >= l) = 2^-l``, capped.

    Level l contains the value iff the top l bits of the hash are
    zero — the standard ℓ0-sampler subsampling scheme.
    """
    level = 0
    threshold = MERSENNE_PRIME
    while level < max_level:
        threshold //= 2
        if raw >= threshold:
            break
        level += 1
    return level


def hash_levels(raw: np.ndarray, max_level: int) -> np.ndarray:
    """Vectorized :func:`geometric_level` over an array of raw values.

    The scalar loop halves ``MERSENNE_PRIME`` down and stops at the
    first threshold the hash reaches, so ``level = #{k in [1,
    max_level] : raw < p >> k}`` (the thresholds are decreasing, so
    the satisfied set is a prefix).  As ``p >> k = 2^(61-k) - 1``, that
    count is ``max_level - bitlen((raw + 1) >> (61 - max_level))``; the
    shifted value is below ``2^max_level``, so up to
    :data:`_EXACT_FLOAT_LEVELS` levels ``frexp`` reads its bit length
    exactly.  Past that, a ``searchsorted`` against the ascending
    threshold array counts the prefix per value.
    """
    if max_level < 1:
        return np.zeros(raw.shape, dtype=np.int64)
    if max_level <= _EXACT_FLOAT_LEVELS:
        top = (raw + np.uint64(1)) >> np.uint64(_PRIME_BITS - max_level)
        return max_level - np.frexp(top.astype(np.float64))[1].astype(np.int64)
    thresholds = np.array(
        [MERSENNE_PRIME >> k for k in range(max_level, 0, -1)], dtype=np.uint64
    )
    below = np.searchsorted(thresholds, raw, side="right")
    return max_level - below.astype(np.int64)


class PolynomialHash:
    """A k-wise independent hash function h: [universe] -> [0, prime).

    Parameters
    ----------
    independence:
        k — the degree of independence (polynomial degree k-1).
    rng:
        Randomness for the coefficients.

    Notes
    -----
    ``value`` returns the raw field element; convenience mappers
    reduce it to a range, a unit float, or a geometric level.
    Coefficients are stored highest-degree first, so Horner evaluation
    walks them in storage order (no per-call ``reversed()``).
    """

    __slots__ = ("_coefficients", "_coefficients_vec")

    def __init__(self, independence: int, rng: RandomSource = None) -> None:
        if independence < 1:
            raise ValueError(f"independence must be >= 1, got {independence}")
        random_state = ensure_rng(rng)
        # Leading coefficient non-zero keeps the polynomial degree exact.
        coefficients: List[int] = [
            random_state.randrange(MERSENNE_PRIME) for _ in range(independence - 1)
        ]
        coefficients.append(1 + random_state.randrange(MERSENNE_PRIME - 1))
        # Highest-degree first: exactly the order Horner consumes.
        self._coefficients = tuple(reversed(coefficients))
        self._coefficients_vec = np.array(self._coefficients, dtype=np.uint64)

    @property
    def independence(self) -> int:
        return len(self._coefficients)

    @property
    def coefficients(self) -> tuple:
        """The drawn coefficients, highest degree first."""
        return self._coefficients

    def value(self, item: int) -> int:
        """Raw hash value in ``[0, MERSENNE_PRIME)`` (Horner evaluation)."""
        return horner(self._coefficients, item)

    def values_many(self, items) -> np.ndarray:
        """Raw hash values for a batch of items, as a ``uint64`` array.

        Bit-identical to calling :meth:`value` per item: the batched
        Horner (:func:`horner_vec`) runs the same exact field
        arithmetic via :func:`mulmod_vec`.
        """
        x = np.ascontiguousarray(items, dtype=np.uint64) % _P
        return horner_vec(self._coefficients_vec, x)

    def to_range(self, item: int, size: int) -> int:
        """Hash reduced to ``[0, size)`` (negligible modular bias)."""
        if size <= 0:
            raise ValueError(f"range size must be positive, got {size}")
        return self.value(item) % size

    def to_unit(self, item: int) -> float:
        """Hash as a float in ``[0, 1)``."""
        return self.value(item) / MERSENNE_PRIME

    def level(self, item: int, max_level: int) -> int:
        """Geometric level of *item* (see :func:`geometric_level`)."""
        return geometric_level(self.value(item), max_level)

    def levels_many(self, items, max_level: int) -> np.ndarray:
        """Geometric levels for a batch of items (matches :meth:`level`)."""
        return hash_levels(self.values_many(items), max_level)
