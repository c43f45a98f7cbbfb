"""Weighted voting games with optional inter-player association.

A game has ``m`` players and ``k`` weight dimensions, each with its own
quota.  A coalition is a bitmask over player indices ``0..m-1``.  The
coalition wins when its summed weight meets every quota (non-strict
comparison, so a coalition sitting exactly on a quota wins).

Weights, quotas and association rows all pass through one reader,
`_float_rows`, into one flat float64 array under one ``np.isfinite`` check;
`VotingGame` and `AssociationMatrix` check lengths, signs and bounds on that
array, and report the first offence in row order.

A member of a winning coalition is critical when subtracting the member's
removal load from the coalition weight breaks at least one quota.  For the
classical index the removal load is the member's own weight.  Under an
association matrix the load becomes the persuasion load: the weight the
member can pull out of the coalition via its influence over every player.

This module owns that comparison for every engine.  `VotingGame.thresholds`
gives per-dimension thresholds ``t`` under either boundary convention, and
`sums_win` (``s >= t`` in every dimension) and `removal_breaks` (``s - l < t``
in some dimension) apply them to sums indexed by dimension first: a tuple of
floats for one coalition, or rows of a numpy array for many.  The scalar
predicates below, the exact engines and the sampler all call these two;
`removal_edges` turns each load into the sum below which its removal breaks
a quota, checked by `removal_breaks` itself, for every exact engine: the
enumerator, the sorted halves and the sum grid in `banzhaf.exact`.

Random streams are Philox generators keyed by numpy's `SeedSequence` hash of
a seed and a spawn key (`seeded_rng`).  A loop over many streams takes them
from `seeded_streams`, which hashes the keys of every stream of one entropy
length in one uint32 pass, restating `SeedSequence`'s mix and
``generate_state(2, np.uint64)`` (NEP 19), and re-keys one generator for each
stream in turn, with a fresh state's zero counter and empty buffer.  Philox
is counter-based, so that is the stream a fresh generator gives; the
generator is never shared by two live streams.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Sized

import numpy as np

__all__ = [
    "InvalidGameError",
    "AssociationMatrix",
    "VotingGame",
    "PersuasionLoad",
    "single_quota_game",
    "coalition_of",
    "coalition_members",
    "coalition_size",
    "full_coalition",
    "validate_coalition",
    "coalition_weight",
    "sums_win",
    "removal_breaks",
    "is_winning",
    "is_critical_classical",
    "is_critical_assoc",
    "persuasion_loads",
    "persuasion_load",
]

# Relative tolerance applied at quota boundaries for games whose weights or
# quotas are not integer valued.  Integer games compare exactly.
BOUNDARY_REL_TOL = 1e-12

# float64 holds every integer below 2^53 exactly, so integer weights whose
# column total stays below it sum, and compare, without rounding.
EXACT_INTEGER_LIMIT = float(2**53)


class InvalidGameError(ValueError):
    """Game or matrix data violates a structural invariant."""


def as_finite(v: object, where: str) -> float:
    """``v`` as a finite float; otherwise an error naming ``where``.  A
    numeric string or a bool, which float() would read, is not numeric, nor
    is a complex number, whose numpy forms float() would cut to the real part."""
    complex_ = isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real)
    if not isinstance(v, numbers.Number) or isinstance(v, bool) or complex_:
        raise InvalidGameError(f"{where}: not numeric")
    try:
        f = float(v)
    except OverflowError:  # an int beyond the float range
        f = math.inf
    except (TypeError, ValueError):  # a Decimal NaN that signals, for one
        raise InvalidGameError(f"{where}: not numeric") from None
    if not math.isfinite(f):
        raise InvalidGameError(f"{where}: not finite")
    return f


_PLAIN_NUMBERS = {float, int}


def _float_rows(rows, name: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``rows`` as one flat float64 array, and each row's
    length: a 2-D int, uint or float ndarray by one `astype`, rows of plain
    ints and floats by one `np.array`, other entries by `as_finite`, which
    names the first that is not numeric as ``name(i)[j]``.  One `np.isfinite`
    check then names the first that is not finite, and a row that is not a
    sequence of numbers (a string or a dict iterates, but is not one) is
    named ``name(i)`` after the rows before it."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iuf":
        flat = rows.astype(np.float64).ravel()  # a copy, which the caller cannot change
        lengths = np.full(len(rows), rows.shape[1])
    else:
        rows = list(rows)
        if not set(map(type, rows)) <= {list, tuple}:
            for i, r in enumerate(rows):
                if isinstance(r, (str, dict)) or not hasattr(r, "__iter__") or getattr(r, "ndim", 1) == 0:
                    _float_rows(rows[:i], name)  # an offence in an earlier row comes first
                    raise InvalidGameError(f"{name(i)}: not numeric")
            rows = list(map(tuple, rows))
        lengths = np.array(list(map(len, rows)), dtype=np.intp)
        entries = list(chain.from_iterable(rows))
        flat = None
        if set(map(type, entries)) <= _PLAIN_NUMBERS:
            try:
                flat = np.array(entries, dtype=np.float64)
            except OverflowError:  # an int beyond the float range, which `as_finite` names
                pass
        if flat is None:
            flat = np.array([as_finite(v, f"{name(i)}[{j}]") for i, row in enumerate(rows) for j, v in enumerate(row)])
    finite = np.isfinite(flat)
    if not finite.all():
        at, ends = np.argmin(finite), np.cumsum(lengths)
        i = int(np.searchsorted(ends, at, side="right"))
        raise InvalidGameError(f"{name(i)}[{at - ends[i] + lengths[i]}]: not finite")
    return flat, lengths


def _require_size(phi: AssociationMatrix, m: int) -> None:
    if phi.size != m:
        raise InvalidGameError(
            f"association matrix is {phi.size}x{phi.size} but the game has {m} players"
        )


def check_association(a: np.ndarray) -> None:
    """Reject a (..., n, m) float64 array of association rows (n <= m) unless its entries are finite and
    inside [-1, 1], with a[i][i] = 1; name the first non-finite entry, else the first bad row's offence."""
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        *_, i, j = map(int, np.unravel_index(bad[0], a.shape))
        raise InvalidGameError(f"association row {i}[{j}]: not finite")
    outside = np.abs(a) > 1.0
    off_diagonal = np.diagonal(a, axis1=-2, axis2=-1) != 1.0
    bad = np.flatnonzero(off_diagonal | outside.any(axis=-1))
    if bad.size:
        at = tuple(map(int, np.unravel_index(bad[0], off_diagonal.shape)))
        i, row = at[-1], a[at]
        if off_diagonal[at]:
            raise InvalidGameError(f"association diagonal a[{i}][{i}] must be 1, got {float(row[i])!r}")
        j = int(np.argmax(outside[at]))
        raise InvalidGameError(f"association a[{i}][{j}]={float(row[j])!r} outside [-1, 1]")


@dataclass(frozen=True)
class AssociationMatrix:
    """Square matrix of persuasion coefficients.

    ``entries[i][j]`` quantifies player ``i``'s pull on player ``j``.
    Every entry must satisfy ``|a_ij| <= 1`` and the diagonal is fixed at
    ``a_ii = 1`` (full pull on oneself).  Rows (lists, tuples, ndarrays or
    one square int or float ndarray) go through `_float_rows`, and are kept
    as the read-only float64 `matrix` and as float tuples, ``entries``, so
    equal floats give equal matrices that hash alike (``-0.0 == 0.0``).
    """

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if isinstance(entries, (str, dict)) or not isinstance(entries, Iterable) or getattr(entries, "ndim", 1) == 0:
            raise InvalidGameError("association matrix must be a list of rows")
        flat, lengths = _float_rows(entries, "association row {}".format)
        # rows are checked in order, and within a row the length, then the
        # diagonal, then the entries; the first offence is reported
        m = len(lengths)
        wrong = np.flatnonzero(lengths != m)
        square = int(wrong[0]) if wrong.size else m
        a = flat[: square * m].reshape(square, m)
        check_association(a)
        if square < m:
            raise InvalidGameError(f"association row {square}: expected {m} entries, got {lengths[square]}")
        if not m:
            raise InvalidGameError("association matrix is empty")
        a.flags.writeable = False
        object.__setattr__(self, "entries", tuple(map(tuple, a.tolist())))
        object.__setattr__(self, "_matrix", a)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def matrix(self) -> np.ndarray:
        """The entries as a read-only float64 array."""
        return self._matrix

    @classmethod
    def identity(cls, m: int) -> "AssociationMatrix":
        return cls(np.eye(m))


def _default_ids(m: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(m))


@dataclass(frozen=True)
class VotingGame:
    """An ``m``-player voting game with ``k`` weighted quota dimensions.

    ``weights`` holds one row per player with ``k`` non-negative entries;
    ``quotas`` holds the ``k`` positive thresholds.  ``association`` is
    optional and, when present, must be an ``m x m`` matrix.

    Weight rows (lists, tuples, ndarrays or one (m, k) int or float ndarray)
    and quotas go through `_float_rows`, so the same numbers give the same
    game and the same first error.  Derived once, read-only:
    ``weight_matrix``, the (m, k) float64 array, sharing no memory with the
    caller's (``weights`` is its rows as float tuples); ``dimension_totals``,
    each dimension's total added in player order; ``integral_dimensions``,
    whether its weights are all integers; and ``quota_tolerances``
    (`quota_tolerance`).  Equal fields give equal games; ``hash(game)``
    raises `TypeError`, because ``metadata`` is a dict.
    """

    player_ids: tuple[str, ...]
    weights: tuple[tuple[float, ...], ...]
    quotas: tuple[float, ...]
    association: AssociationMatrix | None = None
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.player_ids, Iterable) or getattr(self.player_ids, "ndim", 1) == 0:  # an int, a 0-d array
            raise InvalidGameError("player ids must be a list of ids")
        ids = tuple(map(str, self.player_ids))
        if not ids:
            raise InvalidGameError("game needs at least one player")
        if len(set(ids)) != len(ids):
            raise InvalidGameError("player ids must be unique")
        m = len(ids)
        if not isinstance(self.weights, Sized) or getattr(self.weights, "ndim", 1) == 0:  # an iterator, a 0-d array
            raise InvalidGameError("weights must be a list of rows")
        if len(self.weights) != m:
            raise InvalidGameError(f"{m} players but {len(self.weights)} weight rows")
        flat, lengths = _float_rows(self.weights, lambda i: f"weights for player {ids[i]}")
        quotas = tuple(_float_rows((self.quotas,), lambda i: "quotas")[0].tolist())
        if not quotas:
            raise InvalidGameError("game needs at least one quota dimension")
        k = len(quotas)
        # rows are checked in order: a negative weight in the rows before
        # the first row of another length than k is reported before it
        wrong = np.flatnonzero(lengths != k)
        short = int(wrong[0]) if wrong.size else m
        w = flat[: short * k].reshape(short, k)
        negative = np.flatnonzero(w < 0)
        if negative.size:
            i, d = divmod(int(negative[0]), k)
            raise InvalidGameError(f"weights for player {ids[i]}[{d}]: negative weight {float(w[i, d])!r}")
        if short < m:
            raise InvalidGameError(f"weights for player {ids[short]}: expected {k} entries, got {lengths[short]}")
        sums, whole = np.cumsum(w, axis=0)[-1], (w == np.floor(w)).all(axis=0)  # sums in player order, not np.sum's pairs
        totals, integral = tuple(sums.tolist()), tuple(whole.tolist())
        for d, q in enumerate(quotas):
            if q <= 0:
                raise InvalidGameError(f"quotas[{d}]: must be positive, got {q!r}")
            if totals[d] >= EXACT_INTEGER_LIMIT and integral[d]:
                raise InvalidGameError(
                    f"weight dimension {d}: integer weights total {totals[d]:.0f}, "
                    "at or above 2^53, where float64 sums are no longer exact"
                )
        if self.association is not None:
            _require_size(self.association, m)
        w.flags.writeable = False
        object.__setattr__(self, "player_ids", ids)
        object.__setattr__(self, "weights", tuple(map(tuple, w.tolist())))
        object.__setattr__(self, "quotas", quotas)
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "weight_matrix", w)
        object.__setattr__(self, "dimension_totals", totals)
        object.__setattr__(self, "integral_dimensions", integral)
        object.__setattr__(self, "quota_tolerances", tuple(quota_tolerance(np.array(quotas), sums, whole).tolist()))
        for d, (q, tol) in enumerate(zip(quotas, self.quota_tolerances)):
            if q - tol <= 0:
                raise InvalidGameError(
                    f"quotas[{d}]: boundary tolerance {tol!r} reaches the quota {q!r}, "
                    "so the empty coalition would win"
                )

    @property
    def num_players(self) -> int:
        return len(self.player_ids)

    @property
    def num_dimensions(self) -> int:
        return len(self.quotas)

    def player_index(self, player: int | str) -> int:
        return resolve_player(self.player_ids, player)

    @cached_property
    def winning_thresholds(self) -> tuple[float, ...]:
        """Effective per-dimension thresholds: a sum wins iff sum >= threshold."""
        return tuple(q - t for q, t in zip(self.quotas, self.quota_tolerances))

    def thresholds(self, strict: bool = False) -> tuple[float, ...]:
        """Per-dimension thresholds ``t``: a sum wins iff ``s >= t`` and a
        removal breaks iff ``s - l < t``.

        The default is `winning_thresholds`.  The alternate strict convention
        wins iff ``s > q + tol``; for floats ``x > u`` is exactly
        ``x >= nextafter(u, inf)``, so both conventions share one comparison.
        """
        if not strict:
            return self.winning_thresholds
        return tuple(
            math.nextafter(q + t, math.inf) for q, t in zip(self.quotas, self.quota_tolerances)
        )


def quota_tolerance(quota, total, integral):
    """The absolute tolerance at a quota boundary, for a dimension whose
    weights add to ``total``: zero when the weights (``integral``) and the
    quota are integer valued (sums are then exact in float64, since such a
    column totals below `EXACT_INTEGER_LIMIT`), a small relative slack otherwise;
    over arrays of dimensions or games too."""
    slack = BOUNDARY_REL_TOL * np.maximum(np.maximum(1.0, np.abs(quota)), np.abs(total))
    return np.where(np.logical_and(integral, np.floor(quota) == quota), 0.0, slack)


def resolve_player(player_ids: Sequence[str], player: int | str) -> int:
    """Position of ``player``, given by id or by index, in ``player_ids``."""
    if isinstance(player, str):
        try:
            return player_ids.index(player)
        except ValueError:
            raise InvalidGameError(f"unknown player id {player!r}") from None
    if not isinstance(player, numbers.Integral) or isinstance(player, bool):
        raise InvalidGameError(f"player must be an id or an integer index, got {player!r}")
    if not 0 <= player < len(player_ids):
        raise InvalidGameError(f"player index {player} out of range")
    return player


def require_single_quota(game: VotingGame, what: str) -> None:
    if game.num_dimensions != 1:
        raise InvalidGameError(f"{what} requires a single-quota game")


def require_same_game(game: VotingGame, report) -> None:
    """A report belongs to the game of its players, weight rows and quotas (none, if it records none)."""
    if game.player_ids != report.player_ids:
        raise InvalidGameError("game players do not match the report's")
    if (game.weights, game.quotas) != (report.weights, report.quotas):
        raise InvalidGameError("game weights or quotas do not match the report's")


def _checked_seed(seed: int) -> int:
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise InvalidGameError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InvalidGameError(f"seed must be non-negative, got {seed}")
    return operator.index(seed)


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox stream keyed by ``seed`` and the spawn ``key``: the same
    arguments give the same stream, and different keys independent ones."""
    _checked_seed(seed)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


# numpy's `SeedSequence` hash: its pool size, the start and multiplier of the
# hash constants that mix entropy into the pool (A) and draw words from it (B),
# and the multipliers and shift of its `mix`.
_POOL = 4
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHERS = np.array([[d for d in range(_POOL) if d != s] for s in range(_POOL)])


def _hash_constants(start: int, multiplier: int, calls: int) -> np.ndarray:
    """(2, calls) uint32: the constant that each of ``calls`` hashes in turn xors in, and the next, its multiplier."""
    c = [start]
    for _ in range(calls):
        c.append(c[-1] * multiplier & 0xFFFFFFFF)
    return np.array([c[:-1], c[1:]], dtype=np.uint32)


def _hashmix(v: np.ndarray, constants: np.ndarray) -> np.ndarray:
    v = (v ^ constants[0]) * constants[1]
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """(n, 2) uint64: ``SeedSequence.generate_state(2, np.uint64)`` of the n
    streams whose assembled entropy is the rows of the (n, L) uint32
    ``words``, each step hashed across the rows and the pool's columns at once."""
    length = words.shape[1]
    a = _hash_constants(*_HASH_A, _POOL * max(length, _POOL))
    pool = np.zeros((len(words), _POOL), dtype=np.uint32)  # a missing word hashes as 0
    pool[:, :length] = words[:, :_POOL]
    pool = _hashmix(pool, a[:, :_POOL])
    for src, others in enumerate(_OTHERS):  # every pool word into each other one
        at = _POOL + 3 * src
        pool[:, others] = _mix(pool[:, others], _hashmix(pool[:, src, None], a[:, at : at + 3]))
    for src in range(_POOL, length):  # then each later entropy word into all four
        at = _POOL * src
        pool = _mix(pool, _hashmix(words[:, src, None], a[:, at : at + _POOL]))
    return _hashmix(pool, _hash_constants(*_HASH_B, _POOL)).astype("<u4").view("<u8").astype(np.uint64)


def _words(start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) uint32: the ints from ``start`` to ``stop``, each
    split into ``width`` words, low word first, as `SeedSequence` splits it."""
    dtype = np.uint64 if stop < 2**63 else object  # Python ints past int64, which any numpy's arange takes
    v = np.arange(start, stop, dtype=dtype)[:, None]
    return ((v >> np.arange(0, 32 * width, 32).astype(dtype)) & 0xFFFFFFFF).astype(np.uint32)


def seeded_streams(seed: int, count: int, first_key: int | None = None) -> Iterator[np.random.Generator]:
    """The ``count`` streams that `seeded_rng` gives at ``(seed, first_key + j)``,
    or, with no ``first_key``, at ``seed + j``, in turn.  The seed is checked
    once, and the keys hashed in one pass per entropy length; one generator is
    built and re-keyed for each stream, so a stream is valid only until the
    next is drawn."""
    if count == 1:  # numpy's own hash of one key costs less than a pass over arrays
        yield seeded_rng(seed, *(() if first_key is None else (first_key,)))
        return
    seed = _checked_seed(seed)
    start = seed if first_key is None else operator.index(first_key)
    end, keys = start + count, []
    while start < end:  # one pass for each span of ints with one word count
        width = max(1, -(-start.bit_length() // 32))
        stop = min(end, 1 << 32 * width)
        words = _words(start, stop, width)
        if first_key is not None:  # a spawn key follows the seed's words, zero padded to the pool size
            prefix = _words(seed, seed + 1, max(-(-seed.bit_length() // 32), _POOL))
            words = np.hstack([prefix.repeat(len(words), axis=0), words])
        keys += _philox_keys(words).tolist()
        start = stop
    bits = np.random.Philox(key=0)
    rng, state = np.random.Generator(bits), bits.state
    for key in keys:
        state["state"]["key"] = key  # with a fresh state's zero counter and empty buffer
        bits.state = state
        yield rng


def single_quota_game(
    weights: Sequence[float],
    quota: float,
    player_ids: Sequence[str] | None = None,
    association: AssociationMatrix | None = None,
    metadata: Mapping[str, object] | None = None,
) -> VotingGame:
    """Build a one-dimensional game from a flat weight list."""
    if not isinstance(weights, Sized) or getattr(weights, "ndim", 1) == 0:  # an iterator, a 0-d array
        raise InvalidGameError("weights must be a list of numbers")
    return VotingGame(
        player_ids=_default_ids(len(weights)) if player_ids is None else player_ids,
        weights=tuple((w,) for w in weights),
        quotas=(quota,),
        association=association,
        metadata=dict(metadata or {}),
    )


# ---------------------------------------------------------------------------
# Coalitions as bitmasks


def coalition_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _mask(coalition: int) -> int:
    try:
        c = operator.index(coalition)
    except TypeError:
        raise InvalidGameError(f"coalition {coalition!r} is not an integer bitmask of players") from None
    if c < 0:
        raise InvalidGameError(f"coalition {c} is negative, not a bitmask of players")
    return c


def coalition_members(coalition: int) -> Iterator[int]:
    c = _mask(coalition)
    return (i for i in range(c.bit_length()) if c >> i & 1)


def coalition_size(coalition: int) -> int:
    return _mask(coalition).bit_count()


def full_coalition(m: int) -> int:
    return (1 << m) - 1


def validate_coalition(game: VotingGame, coalition: int) -> None:
    if _mask(coalition) >> game.num_players:
        raise InvalidGameError(
            f"coalition {coalition:#x} has bits outside 0..{game.num_players - 1}"
        )


# ---------------------------------------------------------------------------
# Predicates


def coalition_weight(game: VotingGame, coalition: int) -> tuple[float, ...]:
    """Summed weight of the coalition in every dimension."""
    validate_coalition(game, coalition)
    totals = [0.0] * game.num_dimensions
    for i in coalition_members(coalition):
        row = game.weights[i]
        for d in range(game.num_dimensions):
            totals[d] += row[d]
    return tuple(totals)


def subset_sums(weights: np.ndarray) -> np.ndarray:
    """(k, 2^n) sums over every subset of the n rows of ``weights``: entry
    ``c`` sums the rows whose bits are set in ``c``, adding them to 0.0 in
    index order."""
    n, k = weights.shape
    sums = np.zeros((k, 1 << n), dtype=np.float64)
    for i, w in enumerate(weights[:, :, None]):
        lo = 1 << i
        np.add(sums[:, :lo], w, out=sums[:, lo : lo << 1])
    return sums


def sums_win(sums, thresholds: Sequence[float]):
    """Whether ``s >= t`` in every dimension.

    ``sums`` is indexed by dimension first: a tuple of floats gives a bool,
    a (k, n) array (or any sequence of k rows) gives a bool array of n.
    """
    win = sums[0] >= thresholds[0]
    for s, t in zip(sums[1:], thresholds[1:]):
        win &= s >= t
    return win


def removal_breaks(sums, loads: Sequence[float], thresholds: Sequence[float]):
    """Whether ``s - l < t`` in some dimension, with ``sums`` shaped as in
    `sums_win` and one load per dimension."""
    out = sums[0] - loads[0] < thresholds[0]
    for s, l, t in zip(sums[1:], loads[1:], thresholds[1:]):
        out |= s - l < t
    return out


_MAGNITUDE = np.int64(2**63 - 1)


def _ordered(x: np.ndarray) -> np.ndarray:
    """The float64 ``x`` as int64 keys in the floats' order: the magnitude
    bits of negative numbers flipped, a map that is its own inverse on the
    bits (``_ordered(keys.view(np.float64)).view(np.float64)`` undoes it)."""
    bits = x.view(np.int64)
    return bits ^ ((bits >> 63) & _MAGNITUDE)


def removal_edges(loads, thresholds: Sequence[float]) -> np.ndarray:
    """Per load ``l`` and its dimension's threshold ``t``, the least float
    ``v`` with ``v - l >= t`` (+inf when no finite float has it), with
    ``loads`` a finite (k, ...) array indexed by dimension first.

    Float subtraction of a fixed ``l`` never decreases as the sum grows, so
    ``s - l < t`` exactly when ``s < v``, for every float ``s``: a removal
    breaks a quota of a coalition of sums ``s`` iff ``sums_win(s, v)`` does
    not hold.  `removal_breaks` decides every edge: each is checked against
    the float one ulp below it.  The search starts from ``t + l`` and one ulp
    either way; the edges not found there are bisected on the floats'
    ordered int64 keys between -inf (which breaks) and +inf (which does not),
    at most 64 halvings, which also ends where ``t + l`` cancels to near 0
    and the edge lies many ulps away."""
    l = np.asarray(loads, dtype=np.float64)
    t = np.broadcast_to(np.reshape(np.asarray(thresholds, dtype=np.float64), (-1,) + (1,) * (l.ndim - 1)), l.shape)
    shape, l, t = l.shape, l.ravel(), t.ravel()

    def holds(v, at=slice(None)):
        return ~removal_breaks((v,), (l[at],), (t[at],))

    # the edge is the first of ``t + l`` and one ulp either way that holds,
    # if the float before that one breaks
    with np.errstate(over="ignore"):  # one ulp past the largest float is an infinity, a valid step
        start = t + l
        below = np.nextafter(start, -np.inf)
        steps = np.array([np.nextafter(below, -np.inf), below, start, np.nextafter(start, np.inf)])
    held = holds(steps)
    edges = np.where(held[1], below, np.where(held[2], start, steps[3]))
    lost = np.flatnonzero(held[0] | ~held[3])
    if lost.size:
        lo = np.full(lost.size, _ordered(np.array(-np.inf)))
        hi = np.full(lost.size, _ordered(np.array(np.inf)))
        while (lo + 1 < hi).any():  # lo breaks, hi holds; the range is below 2^64 at first
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # floor((lo + hi) / 2), without overflow
            up = holds(_ordered(mid.view(np.float64)).view(np.float64), lost)
            hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
        edges[lost] = _ordered(hi.view(np.float64)).view(np.float64)
    return edges.reshape(shape)


def is_winning(game: VotingGame, coalition: int, strict: bool = False) -> bool:
    """Whether the coalition meets every quota.

    The default convention is non-strict: a sum exactly on the quota wins.
    ``strict=True`` switches to the alternate strictly-above convention.
    """
    return sums_win(coalition_weight(game, coalition), game.thresholds(strict))


def _swings(game: VotingGame, i: int, coalition: int, load: Sequence[float]) -> bool:
    """Whether player ``i`` swings the coalition: it wins, and removing
    ``load`` from its weight breaks at least one quota."""
    validate_coalition(game, coalition)
    if not (coalition >> i) & 1:
        raise InvalidGameError(f"player {game.player_ids[i]} is not in the coalition")
    sums = coalition_weight(game, coalition)
    t = game.winning_thresholds
    return sums_win(sums, t) and removal_breaks(sums, load, t)


def is_critical_classical(game: VotingGame, player: int, coalition: int) -> bool:
    """Player swings the coalition: it wins, and removing the player's
    weight breaks at least one quota."""
    i = game.player_index(player)
    return _swings(game, i, coalition, game.weights[i])


def load_sums(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(r, k) loads of the (r, m) association rows ``A`` over the (m, k)
    weights ``W``: each row's products ``a_j * w_j`` added in place, in player
    order, to a running sum from 0.0 (an all -0.0 row totals 0.0), which a
    matmul would not match bit for bit.  Holding one (r, k) sum and product at
    a time, one call takes the rows of a whole stack of matrices."""
    out = np.zeros((W.shape[1], len(A)))  # a row per dimension: each add spans all of A's rows
    for a, w in zip(A.T, W[:, :, None]):
        out += a * w
    return out.T


def persuasion_loads(game: VotingGame, phi: AssociationMatrix) -> tuple[tuple[float, ...], ...]:
    """Per-player persuasion load in every dimension.

    Row ``i`` holds ``sum_j a_ij * w_jd`` over all ``m`` players, the weight
    player ``i`` can move by leaving and pulling along (or pushing back)
    everyone it influences, summed in player order (`load_sums`).
    """
    _require_size(phi, game.num_players)
    return tuple(map(tuple, load_sums(phi.matrix, game.weight_matrix).tolist()))


def removal_loads(game: VotingGame, phi: AssociationMatrix | None) -> tuple[str, np.ndarray]:
    """The criticality mode and the (m, k) removal loads it uses: each
    player's own weight without ``phi`` ("classical"), its persuasion load
    under ``phi`` ("association")."""
    if phi is None:
        return "classical", game.weight_matrix
    return "association", np.array(persuasion_loads(game, phi), dtype=np.float64)


@dataclass(frozen=True)
class PersuasionLoad:
    """A player's pull, and how far it overshoots the player's own weight."""

    player: str
    load: tuple[float, ...]
    surplus: tuple[float, ...]


def persuasion_load(game: VotingGame, phi: AssociationMatrix, player: int | str) -> PersuasionLoad:
    _require_size(phi, game.num_players)
    i = game.player_index(player)
    load = tuple(load_sums(phi.matrix[i : i + 1], game.weight_matrix)[0].tolist())
    surplus = tuple(l - w for l, w in zip(load, game.weights[i]))
    return PersuasionLoad(player=game.player_ids[i], load=load, surplus=surplus)


def is_critical_assoc(
    game: VotingGame,
    phi: AssociationMatrix,
    player: int | str,
    coalition: int,
    members_only: bool = False,
) -> bool:
    """Association-aware criticality.

    The coalition must win, and subtracting the player's persuasion load
    from the coalition weight must break at least one quota.  By default the
    load runs over all players, inside the coalition or not; pass
    ``members_only=True`` to restrict the pull to coalition members, whose
    products are then summed in player order as in `persuasion_loads`.  A
    matrix of the wrong size is rejected whether or not the coalition wins.
    """
    _require_size(phi, game.num_players)
    i = game.player_index(player)
    row = phi.matrix[i]
    if members_only:
        c = _mask(coalition)
        row = np.where([(c >> j) & 1 for j in range(game.num_players)], row, 0.0)
    return _swings(game, i, coalition, load_sums(row[None], game.weight_matrix)[0].tolist())
