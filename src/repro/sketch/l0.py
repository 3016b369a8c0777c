"""ℓ0-sampling for turnstile streams (Lemma 7, Cormode–Firmani).

An ℓ0-sampler returns a (near-)uniform non-zero coordinate of a signed
vector maintained under insertions and deletions.  Structure:

* ``levels`` geometric sub-sampling levels; a k-wise independent hash
  assigns every coordinate its maximum level (P(level >= l) = 2^-l);
* one exact 1-sparse recovery cell (:mod:`repro.sketch.onesparse`) per
  level;
* query: scan levels top-down and return the first verified recovery.
  At the level where the expected number of surviving coordinates is
  Θ(1), recovery succeeds with constant probability; ``repetitions``
  independent copies drive the failure probability down geometrically,
  matching Lemma 7's 1 - 1/n^c guarantee.

The paper uses ℓ0-samplers in two places (proof of Theorem 11): a
sampler over the adjacency-matrix vector emulates f1 (uniform edge),
and a sampler over one adjacency-list column emulates f3 (uniform
neighbor).

:class:`L0Sampler` holds a whole *bank* of samplers as arrays, one row
per (sampler, repetition) — row ``sampler * repetitions + repetition``.
The *frozen part* — hash coefficients ``(8, rows)``, fingerprint bases
``(rows,)`` and their power tables — is drawn once and never written
in place, so shard replicas share it (:meth:`~L0Sampler.replica`);
the one-sparse aggregates are each bank's own ``(rows, levels + 1)``
cells.  One :meth:`~L0Sampler.update_many_arrays` call drives every
sampler of a turnstile pass, so the per-call cost is paid per batch,
not per sampler and repetition.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, MergeError, SketchError
from repro.sketch.hashing import MERSENNE_PRIME as _PRIME
from repro.sketch.hashing import (
    PolynomialHash,
    addmod_vec,
    geometric_level,
    hash_levels,
    horner,
    horner_vec,
    mulmod_vec,
    power_tables,
    powmod_rows,
)
from repro.sketch.onesparse import OneSparseRecovery, draw_base, recover
from repro.utils.checkpoint import check_merge_config, check_state_config, state_field
from repro.utils.rng import RandomSource, derive_rng, ensure_rng

_HASH_INDEPENDENCE = 8

#: ``(row, item)`` pairs per kernel block: bounds the transient arrays
#: whatever the bank and batch sizes.
_BLOCK_PAIRS = 8192

#: The array kernel takes batches with ``max|delta| × length`` at or
#: below this, so each of its limb sums stays below 2^62 in magnitude;
#: heavier batches take the exact scalar path.
_ARRAY_DELTA_MASS = 1 << 30

#: Largest ``|weight|`` and ``|weighted_sum >> 32|`` a cell may hold.
#: A cell at the bound plus another cell (a merge) or plus one array
#: batch still sums inside int64, so the bound check itself cannot wrap.
CELL_BOUND = 1 << 61

_LOW_MASK = (1 << 32) - 1
_U32 = np.uint64(32)
_MASK32 = np.uint64(_LOW_MASK)
_TWO_POW_32 = np.uint64(1 << 32)


class L0Sampler:
    """A bank of near-uniform samplers over supports of turnstile vectors.

    ``L0Sampler(universe, rng)`` is a bank of one sampler;
    :meth:`bank` builds one sampler per random source.  Methods that
    read or write one sampler take its index (default 0).

    Parameters
    ----------
    universe:
        Coordinates are integers in ``[0, universe)``.
    rng:
        Source for hash functions and recovery fingerprints.
    repetitions:
        Independent copies; failure probability decays as
        ``2^-repetitions`` at the critical level.
    levels:
        Number of sub-sampling levels; defaults to ``log2(universe)+2``.

    Each cell keeps its weight and its weighted sum as exact int64
    limbs (``high = Σ delta·(item >> 32)``, ``low`` carried into
    ``[0, 2^32)`` after every batch) and its fingerprint mod p.  A cell
    whose ``|weight|`` or ``|high|`` would pass :data:`CELL_BOUND`
    raises :class:`~repro.errors.SketchError` instead of wrapping.
    """

    def __init__(
        self,
        universe: int,
        rng: RandomSource = None,
        repetitions: int = 8,
        levels: Optional[int] = None,
    ) -> None:
        self._build(universe, [rng], repetitions, levels)

    @classmethod
    def bank(
        cls,
        universe: int,
        rngs: Sequence[RandomSource],
        repetitions: int = 8,
        levels: Optional[int] = None,
    ) -> "L0Sampler":
        """One sampler per source in *rngs*, in order.

        Sampler ``s`` draws exactly what ``L0Sampler(universe, rngs[s])``
        draws, so a bank is bit-identical to its samplers built alone.
        """
        bank = cls.__new__(cls)
        bank._build(universe, rngs, repetitions, levels)
        return bank

    def _build(self, universe, rngs, repetitions, levels) -> None:
        if universe <= 0:
            raise SketchError(f"universe must be positive, got {universe}")
        if repetitions < 1:
            raise SketchError(f"repetitions must be >= 1, got {repetitions}")
        self._universe = universe
        self._levels = levels if levels is not None else max(2, int(math.log2(universe)) + 2)
        self._repetitions = repetitions
        coefficients: List[Tuple[int, ...]] = []
        bases: List[int] = []
        for rng in rngs:
            random_state = ensure_rng(rng)
            for repetition in range(repetitions):
                child = derive_rng(random_state, f"l0-rep-{repetition}")
                coefficients.append(PolynomialHash(_HASH_INDEPENDENCE, child).coefficients)
                # All levels of one repetition share a fingerprint base so
                # an update needs a single modular exponentiation.
                bases.append(draw_base(child))
        # Coefficient-major: _coefficients[k] is one coefficient over all rows.
        self._freeze(
            np.array(coefficients, dtype=np.uint64).reshape(-1, _HASH_INDEPENDENCE).T.copy(),
            np.array(bases, dtype=np.uint64),
        )
        self._zero_cells()

    def _freeze(self, coefficients: np.ndarray, bases: np.ndarray) -> None:
        """Install a frozen part as read-only arrays; power tables on first use."""
        coefficients.flags.writeable = False
        bases.flags.writeable = False
        self._coefficients = coefficients
        self._bases = bases
        self._tables: Optional[np.ndarray] = None

    def _zero_cells(self) -> None:
        cells = (len(self._bases), self._levels + 1)
        self._weight = np.zeros(cells, dtype=np.int64)
        self._sum_high = np.zeros(cells, dtype=np.int64)
        self._sum_low = np.zeros(cells, dtype=np.int64)
        self._fingerprint = np.zeros(cells, dtype=np.uint64)

    def replica(self) -> "L0Sampler":
        """A bank over this bank's frozen part, with zeroed cells.

        The coefficients, bases and power tables (built here if this
        bank has not built them yet) are the same read-only arrays, not
        copies, so a replica costs only its cells; it
        merges with this bank (:meth:`merge`) like an identically
        seeded one.  A restore (:meth:`load_sampler_state`,
        :meth:`load_state_dict`) copies the frozen arrays of the bank it
        loads before writing them, so siblings are unaffected.
        """
        replica = type(self).__new__(type(self))
        replica._universe = self._universe
        replica._levels = self._levels
        replica._repetitions = self._repetitions
        replica._coefficients = self._coefficients
        replica._bases = self._bases
        replica._tables = self._power_tables()
        replica._zero_cells()
        return replica

    @property
    def universe(self) -> int:
        return self._universe

    @property
    def samplers(self) -> int:
        """Number of samplers in the bank."""
        return len(self._bases) // self._repetitions

    @property
    def space_words(self) -> int:
        """Accounted words of the bank: recovery cells plus hash coefficients."""
        per_repetition = (self._levels + 1) * OneSparseRecovery.WORDS + _HASH_INDEPENDENCE
        return len(self._bases) * per_repetition

    def _rows(self, sampler: int) -> slice:
        if not 0 <= sampler < self.samplers:
            raise SketchError(f"sampler {sampler} outside bank of {self.samplers}")
        return slice(sampler * self._repetitions, (sampler + 1) * self._repetitions)

    def update(self, item: int, delta: int) -> None:
        """Apply ``x[item] += delta`` to every sampler of the bank."""
        self.update_many([(item, delta)])

    def update_many(
        self, updates: Iterable[Tuple[int, int]], sampler: Optional[int] = None
    ) -> None:
        """Scalar reference path: apply ``(item, delta)`` pairs exactly.

        Every sampler takes every pair, or only *sampler* when given.
        Per row and pair it runs the definition with Python ints — the
        Horner hash, the geometric level, ``pow`` for ``z^item``, and
        the item added to levels ``0..level`` — which the array kernel
        of :meth:`update_many_arrays` must match bit for bit.
        """
        updates = list(updates)
        universe = self._universe
        for item, _ in updates:
            if not 0 <= item < universe:
                raise SketchError(f"item {item} outside universe [0, {universe})")
        rows = slice(0, len(self._bases)) if sampler is None else self._rows(sampler)
        width = self._levels + 1
        weight: List[int] = []
        weighted: List[int] = []
        fingerprint: List[int] = []
        for coefficients, base in zip(
            self._coefficients.T[rows].tolist(), self._bases[rows].tolist()
        ):
            row_weight = [0] * width
            row_weighted = [0] * width
            row_fingerprint = [0] * width
            for item, delta in updates:
                item_level = geometric_level(horner(coefficients, item), self._levels)
                z_power = pow(base, item, _PRIME)
                # The item participates in levels 0..item_level.
                for level in range(item_level + 1):
                    row_weight[level] += delta
                    row_weighted[level] += delta * item
                    row_fingerprint[level] = (
                        row_fingerprint[level] + delta * z_power
                    ) % _PRIME
            weight += row_weight
            weighted += row_weighted
            fingerprint += row_fingerprint
        shape = (-1, width)
        weight_cells, high, low = (part.reshape(shape) for part in _limbs(weight, weighted))
        self._accumulate(
            rows, weight_cells, high, low,
            np.array(fingerprint, dtype=np.uint64).reshape(shape),
        )

    def update_many_arrays(
        self,
        items: np.ndarray,
        deltas: np.ndarray,
        samplers: Optional[np.ndarray] = None,
    ) -> None:
        """Vectorized :meth:`update_many` over parallel numpy arrays.

        With *samplers* ``None`` every sampler takes every ``(item,
        delta)`` — edge samplers see the whole batch, as a 2-D step over
        row blocks × items.  Otherwise ``samplers[i]`` names the one
        sampler item ``i`` updates — neighbor samplers see their
        vertex's incident updates, as flat ``(row, item)`` pairs with
        gathered coefficients.  Either way one call drives the bank:

        * blocks of ~8k ``(row, item)`` pairs, never rows × items at once;
        * per pair, a Horner hash assigns the level and the row's
          window tables give ``z^item``
          (:func:`~repro.sketch.hashing.powmod_rows`);
        * one ``np.add.at`` per limb into ``(row × level)`` bins — the
          fingerprint as ``delta`` times the 32-bit limbs of ``z^item``
          — then a suffix ``cumsum`` along levels (an item at level L
          updates cells 0..L), folded in with the limb carry and one
          reduction of the fingerprint limbs mod p per cell.

        Before hashing, the batch is folded to one ``(sampler, item)``
        per key with its net delta, and zero nets are dropped
        (:func:`_net_deltas`): every cell is linear in delta, so this is
        exact, and an insert that a delete of the same batch cancels
        costs nothing.

        Bit-identical to :meth:`update_many`: every field operation is
        exact and the integer aggregates are exact limb sums.  A batch
        with ``max|delta| × length`` above 2^30 takes the scalar path.
        Columns of different lengths, items outside the universe and
        sampler indices outside the bank raise
        :class:`~repro.errors.SketchError` before any cell changes.
        """
        items = np.ascontiguousarray(items, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        if samplers is not None:
            samplers = np.ascontiguousarray(samplers, dtype=np.int64)
        if len(deltas) != len(items) or (samplers is not None and len(samplers) != len(items)):
            sampler_count = "" if samplers is None else f", {len(samplers)} samplers"
            raise SketchError(
                f"update columns differ in length: {len(items)} items, "
                f"{len(deltas)} deltas{sampler_count}"
            )
        if not len(items) or not len(self._bases):
            return
        universe = self._universe
        if items.min() < 0 or items.max() >= universe:
            bad = items[(items < 0) | (items >= universe)][0]
            raise SketchError(f"item {int(bad)} outside universe [0, {universe})")
        if samplers is not None:
            if samplers.min() < 0 or samplers.max() >= self.samplers:
                raise SketchError(f"sampler index outside bank of {self.samplers}")
        # Min/max as Python ints: np.abs(int64 min) would itself wrap.
        largest = max(-int(deltas.min()), int(deltas.max()))
        if largest * len(items) > _ARRAY_DELTA_MASS:
            if samplers is None:
                self.update_many(zip(items.tolist(), deltas.tolist()))
            else:
                for sampler in np.unique(samplers).tolist():
                    mask = samplers == sampler
                    self.update_many(
                        zip(items[mask].tolist(), deltas[mask].tolist()), sampler
                    )
            return
        items, deltas, samplers = _net_deltas(items, deltas, samplers)
        if not len(items):
            return
        rows_total = len(self._bases)
        width = self._levels + 1
        bins = np.zeros((5, rows_total * width), dtype=np.int64)
        if samplers is None:
            for start in range(0, len(items), _BLOCK_PAIRS):
                block_items = items[None, start : start + _BLOCK_PAIRS]
                block_deltas = deltas[None, start : start + _BLOCK_PAIRS]
                rows_per_block = max(1, _BLOCK_PAIRS // block_items.shape[1])
                for first in range(0, rows_total, rows_per_block):
                    rows = np.arange(first, min(first + rows_per_block, rows_total))
                    self._scatter(rows[:, None], block_items, block_deltas, bins)
        else:
            repetitions = self._repetitions
            offsets = np.arange(repetitions)
            per_block = max(1, _BLOCK_PAIRS // repetitions)
            for start in range(0, len(items), per_block):
                block = slice(start, start + per_block)
                rows = (samplers[block, None] * repetitions + offsets).ravel()
                self._scatter(
                    rows,
                    np.repeat(items[block], repetitions),
                    np.repeat(deltas[block], repetitions),
                    bins,
                )
        # Level l aggregates every item whose level is >= l.
        weight, high, low, fp_high, fp_low = np.cumsum(
            bins.reshape(5, rows_total, width)[:, :, ::-1], axis=2
        )[:, :, ::-1]
        fingerprint = mulmod_vec(
            (fp_high % _PRIME).astype(np.uint64),
            _TWO_POW_32,
            (fp_low % _PRIME).astype(np.uint64),
        )
        self._accumulate(slice(0, rows_total), weight, high, low, fingerprint)

    def _scatter(self, rows, items, deltas, bins: np.ndarray) -> None:
        """Add one block's pairs into ``bins[:, (row, level)]``.

        *rows*, *items* and *deltas* broadcast to the block's pairs.
        The five bin rows are the weight, the weighted-sum limbs
        (``item >> 32``, ``item & (2^32-1)``; the high limb is always 0
        below a universe of ``2^32`` and skipped) and ``delta`` times the
        32-bit limbs of ``z^item``, exact in int64 under the batch's
        ``Σ|delta| <= 2^30``.
        """
        exponents = items.astype(np.uint64)
        raw = horner_vec(self._coefficients[:, rows], exponents % np.uint64(_PRIME))
        cells = (rows * (self._levels + 1) + hash_levels(raw, self._levels)).ravel()
        powers = powmod_rows(self._power_tables(), rows, exponents)
        columns = [
            (0, deltas),
            (2, deltas * (items & _LOW_MASK)),
            (3, deltas * (powers >> _U32).astype(np.int64)),
            (4, deltas * (powers & _MASK32).astype(np.int64)),
        ]
        if self._universe > _LOW_MASK + 1:
            columns.append((1, deltas * (items >> 32)))
        for bin_row, values in columns:
            np.add.at(bins[bin_row], cells, np.broadcast_to(values, powers.shape).ravel())

    def _power_tables(self) -> np.ndarray:
        """Per-row window tables for ``z^item``, built on first use (read-only)."""
        if self._tables is None:
            tables = power_tables(self._bases, (self._universe - 1).bit_length())
            tables.flags.writeable = False
            self._tables = tables
        return self._tables

    def _accumulate(self, rows: slice, weight, high, low, fingerprint) -> None:
        """Add per-cell deltas to *rows*, carrying low limbs; refuse past the bound."""
        low = self._sum_low[rows] + low
        weight = self._weight[rows] + weight
        high = self._sum_high[rows] + high + (low >> 32)
        low &= _LOW_MASK
        if weight.size and max(np.abs(weight).max(), np.abs(high).max()) > CELL_BOUND:
            raise SketchError(
                "ℓ0-sampler cell aggregates would pass the exact int64 limb bound "
                f"(|weight| and |weighted_sum >> 32| <= 2^61, CELL_BOUND={CELL_BOUND}); "
                "the update was refused and left every cell unchanged"
            )
        self._weight[rows] = weight
        self._sum_high[rows] = high
        self._sum_low[rows] = low
        self._fingerprint[rows] = addmod_vec(self._fingerprint[rows], fingerprint)

    def sample(self, sampler: int = 0) -> Optional[int]:
        """A (near-)uniform member of the support, or ``None`` on failure.

        Scans levels from the sparsest (highest) down within each
        repetition and returns the first verified recovery; ``None``
        means every repetition failed, which for a correctly sized
        sampler happens with probability ≈ 2^-repetitions.
        """
        rows = self._rows(sampler)
        for row in range(rows.start, rows.stop):
            weights = self._weight[row]
            base = int(self._bases[row])
            for level in np.flatnonzero(weights)[::-1].tolist():
                found = recover(
                    int(weights[level]),
                    self._weighted_sum(row, level),
                    int(self._fingerprint[row, level]),
                    base,
                    self._universe,
                )
                if found is not None:
                    return found[0]
        return None

    def _weighted_sum(self, row: int, level: int) -> int:
        return (int(self._sum_high[row, level]) << 32) + int(self._sum_low[row, level])

    def is_empty(self, sampler: int = 0) -> bool:
        """Whether all repetitions certify an all-zero vector."""
        rows = self._rows(sampler)
        return not any(
            cells[rows, 0].any()
            for cells in (self._weight, self._sum_high, self._sum_low, self._fingerprint)
        )

    def merge(self, other: "L0Sampler") -> None:
        """Fold another bank's sketch state into this one.

        Valid only for *replica* banks: same universe, levels,
        repetitions and sampler count, **and** the same frozen
        randomness (hash coefficients and fingerprint bases), i.e. both
        were built from the same construction seeds.  Then every cell's
        aggregates add exactly (the sketches are linear over the same
        level assignment), and the merged bank is bit-identical to one
        that ingested both shards' updates itself.  Any config or
        frozen-randomness mismatch raises
        :class:`~repro.errors.MergeError` naming the field.
        """
        if not isinstance(other, L0Sampler):
            raise MergeError(f"cannot merge L0Sampler with {type(other).__name__}")
        check_merge_config(
            "L0Sampler",
            universe=(self._universe, other._universe),
            levels=(self._levels, other._levels),
            repetitions=(self._repetitions, other._repetitions),
            samplers=(self.samplers, other.samplers),
        )
        for field, mine, theirs in (
            ("coefficients", self._coefficients, other._coefficients),
            ("bases", self._bases, other._bases),
        ):
            if not np.array_equal(mine, theirs):
                raise MergeError(
                    f"cannot merge L0Sampler: {field} differ; replica samplers "
                    "must be built from the same construction seeds"
                )
        self._accumulate(
            slice(0, len(self._bases)),
            other._weight, other._sum_high, other._sum_low, other._fingerprint,
        )

    def sampler_state(self, sampler: int = 0) -> dict:
        """One sampler's full state: hash coefficients, bases, recovery cells.

        Cells are nested per repetition and level, each in the
        :meth:`~repro.sketch.onesparse.OneSparseRecovery.state_dict`
        layout — the layout live checkpoints store, so existing
        checkpoints restore into a bank.
        """
        rows = self._rows(sampler)
        universe = self._universe
        bases = self._bases[rows].tolist()
        weights = self._weight[rows].tolist()
        highs = self._sum_high[rows].tolist()
        lows = self._sum_low[rows].tolist()
        fingerprints = self._fingerprint[rows].tolist()
        return {
            "universe": universe,
            "levels": self._levels,
            "repetitions": self._repetitions,
            "bases": bases,
            "hashes": [
                {"independence": _HASH_INDEPENDENCE, "coefficients": tuple(coefficients)}
                for coefficients in self._coefficients.T[rows].tolist()
            ],
            "sketches": [
                [
                    {
                        "universe": universe,
                        "z": base,
                        "weight": weight,
                        "weighted_sum": (high << 32) + low,
                        "fingerprint": fingerprint,
                    }
                    for weight, high, low, fingerprint in zip(*cells)
                ]
                for base, *cells in zip(bases, weights, highs, lows, fingerprints)
            ],
        }

    def load_sampler_state(self, sampler: int, state: dict) -> None:
        """Restore one sampler's capture (see :meth:`sampler_state`).

        Restores the *frozen randomness* (hash coefficients, fingerprint
        bases) as well as the linear aggregates, so future updates and
        queries behave exactly as the captured sampler's would.  The
        whole capture is validated before any cell changes.
        """
        self._restore([(sampler, state)])

    def _restore(self, captures) -> None:
        """Load ``(sampler, state)`` captures into a private copy of the frozen part.

        Replicas may share the frozen arrays, so they are copied, never
        written in place; the copy is frozen again (and the power
        tables dropped) even when a capture is refused part-way.
        """
        self._coefficients = self._coefficients.copy()
        self._bases = self._bases.copy()
        try:
            for sampler, state in captures:
                self._load_sampler(sampler, state)
        finally:
            self._freeze(self._coefficients, self._bases)

    def _load_sampler(self, sampler: int, state: dict) -> None:
        rows = self._rows(sampler)
        check_state_config(
            "L0Sampler",
            state,
            universe=self._universe,
            levels=self._levels,
            repetitions=self._repetitions,
        )
        bases = [int(b) for b in state_field("L0Sampler", state, "bases")]
        hash_states = state_field("L0Sampler", state, "hashes")
        sketch_states = state_field("L0Sampler", state, "sketches")
        repetitions = self._repetitions
        if {len(bases), len(hash_states), len(sketch_states)} != {repetitions}:
            raise SketchError(
                f"L0Sampler state carries {len(bases)} bases / {len(hash_states)} hash / "
                f"{len(sketch_states)} sketch repetitions for a sampler with {repetitions}"
            )
        coefficients = []
        for captured in hash_states:
            check_state_config("PolynomialHash", captured, independence=_HASH_INDEPENDENCE)
            coefficients.append(
                [int(c) for c in state_field("PolynomialHash", captured, "coefficients")]
            )
        width = self._levels + 1
        weight: List[int] = []
        weighted: List[int] = []
        fingerprint: List[int] = []
        for base, captured_levels in zip(bases, sketch_states):
            if len(captured_levels) != width:
                raise SketchError(
                    f"L0Sampler state carries {len(captured_levels)} levels for "
                    f"a sampler with {width}"
                )
            for captured in captured_levels:
                check_state_config("OneSparseRecovery", captured, universe=self._universe)
                if int(state_field("OneSparseRecovery", captured, "z")) != base:
                    raise CheckpointError(
                        "L0Sampler state: every level of a repetition must share "
                        "that repetition's fingerprint base"
                    )
                weight.append(int(state_field("OneSparseRecovery", captured, "weight")))
                weighted.append(
                    int(state_field("OneSparseRecovery", captured, "weighted_sum"))
                )
                fingerprint.append(
                    int(state_field("OneSparseRecovery", captured, "fingerprint"))
                )
        field_values = bases + fingerprint + [c for row in coefficients for c in row]
        if not all(0 <= value < _PRIME for value in field_values):
            raise CheckpointError(
                "L0Sampler state carries a base, coefficient or fingerprint outside [0, p)"
            )
        weight_cells, high, low = (part.reshape(-1, width) for part in _limbs(weight, weighted))
        self._coefficients[:, rows] = np.array(coefficients, dtype=np.uint64).T
        self._bases[rows] = bases
        self._weight[rows] = weight_cells
        self._sum_high[rows] = high
        self._sum_low[rows] = low
        self._fingerprint[rows] = np.array(fingerprint, dtype=np.uint64).reshape(-1, width)

    def state_dict(self) -> dict:
        """Every sampler's :meth:`sampler_state`, in bank order."""
        return {"samplers": [self.sampler_state(s) for s in range(self.samplers)]}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` capture into an identically built bank."""
        captured = state_field("L0Sampler", state, "samplers")
        if len(captured) != self.samplers:
            raise CheckpointError(
                f"L0Sampler state carries {len(captured)} samplers for a bank of "
                f"{self.samplers}"
            )
        self._restore(enumerate(captured))


def _net_deltas(items: np.ndarray, deltas: np.ndarray, samplers: Optional[np.ndarray]):
    """Fold a batch to one ``(sampler, item)`` per key with its net delta.

    Returns ``(items, deltas, samplers)`` sorted by key, with zero nets
    dropped; *samplers* stays ``None`` when given ``None``.  Keys sort
    column by column (``lexsort``), never through an int64 product
    ``sampler × universe + item`` that could wrap.  Nets are exact:
    the caller's ``max|delta| × length <= 2^30`` bounds every sum.
    """
    keys = (items,) if samplers is None else (items, samplers)
    order = np.lexsort(keys)
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    for column in keys:
        ordered = column[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    net = np.add.reduceat(deltas[order], starts)
    nonzero = net != 0
    kept = order[starts[nonzero]]
    return items[kept], net[nonzero], None if samplers is None else samplers[kept]


def _limbs(weight: Sequence[int], weighted: Sequence[int]):
    """Exact Python-int cell values as int64 ``(weight, high, low)`` arrays.

    ``weighted = high · 2^32 + low`` with ``low`` in ``[0, 2^32)``;
    values past :data:`CELL_BOUND` raise
    :class:`~repro.errors.SketchError`.
    """
    high = [value >> 32 for value in weighted]
    if any(abs(value) > CELL_BOUND for value in weight) or any(
        abs(value) > CELL_BOUND for value in high
    ):
        raise SketchError(
            "ℓ0-sampler cell aggregates pass the exact int64 limb bound "
            f"(|weight| and |weighted_sum >> 32| <= 2^61, CELL_BOUND={CELL_BOUND})"
        )
    return (
        np.array(weight, dtype=np.int64),
        np.array(high, dtype=np.int64),
        np.array([value & _LOW_MASK for value in weighted], dtype=np.int64),
    )
