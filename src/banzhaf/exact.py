"""Exact swing counting over the subset sums of a game's coalitions.

A table chooses its engine once, when it is built (`CoalitionTable.engine`),
and each engine has one count, of the swings per (player, load row) entry.
The sorted halves and the enumerator hold per-dimension subset sums of a low
and a high half of the players, so every coalition sum is ``high + low`` for
one sum from each half; float addition commutes, so under one split it is
the same float however the coalitions are visited.  Swing counts are integers.

Integer single-quota games whose sum grid fits a budget are counted on it
("subset-sum", Matsui & Matsui 2000; Uno 2012): the subsets of all the
players are counted by sum once, ``c[s]`` for ``s = 0..W``, with prefix
``P``.  Since ``c`` is the other players' counts ``o`` plus ``o`` shifted by
player ``i``'s weight ``w``, the others' count below a sum ``b`` is
``P[b] - P[b - w] + P[b - 2w] - ...``, and ``P[b] / 2`` for a zero weight.
The sums at which coalitions start to win and each removal stops breaking
the quota are the kernel's verdicts on the float grid ``0..W``, which holds
every integer sum exactly, so the counts are the enumerator's for any quota
and any load.  The grid grows as ``m * W``, not ``2^m``, and its counts are
Python ints from 63 players on, so that none wraps.  A table's grid is a
stack of one; many games (the conjecture scan's) are rows of one stack,
padded to its largest total, and count with one search and one gather.

Other single-quota games ("sorted-half") never visit coalitions one by one
either.  Both halves are sorted once by sum, and every player is counted by
one rule.  A player ``i`` with removal load ``l`` swings a coalition of sum
``s`` when ``s >= t`` and ``s - l < t``.  For a fixed sum ``a`` of one half
both sides are monotone in the other half's sum ``c`` (float ``a + c`` never
decreases as ``c`` grows), so over the other half's sorted sums the winning
coalitions are a suffix and those the removal breaks a prefix.  Each edge
is one search per sum of the scanned half for where the removal stops
breaking the quota, and the winning edge is the same search at load 0
(``s - 0.0 < t`` is ``s < t`` for every float): `np.searchsorted` guesses
it and the kernel in `banzhaf.games` itself corrects it over runs of equal
sums, so the counts are the enumerator's to the bit (the Horowitz-Sahni
split applied to power indices; Klinz & Woeginger 2005, Matsui & Matsui
2000).  Player ``i`` then adds, over the sums of its own half whose
coalitions hold it, the width of the window between the winning edge and
its break edge.  The scanned sums are taken in sorted order too, so the
searches and corrections walk both arrays in order.  The halves split the
players evenly and the table keeps only their sorted sums, so memory grows
as ``2^(m/2)``, and the games are capped where a count outgrows a stated
budget.

Games with several quotas ("enumeration") have no such order, and enumerate
the ``2^(m-b)`` high blocks of a low half of ``b = min(m, 16)`` players,
every one of the ``2^m`` coalitions once (a single-quota table builds them
only when `CoalitionTable.winner_blocks` asks, past the same cap).  Only winning
coalitions can be swung, and in games like the EU Council few of them win,
so the enumeration compacts each block's winners (their sums and membership
bits) and counts over those alone.  When all of a boundary convention's
winners fit in one block's sum arrays (``2^b * k * 8`` bytes), the first
scan caches them and later scans, one per load matrix, read only the cache;
larger sets are enumerated and compacted afresh by each scan.  The comparisons
themselves (``s >= t`` to win, ``s - l < t`` to break, under either boundary
convention's thresholds) live in `banzhaf.games`, which every engine shares.

Gain and loss between two load rows are three counts on any engine and for
any number of quotas: per dimension ``s - l < t`` is monotone in ``l``, since
float subtraction rounds monotonically, so breaking a quota under either row
is breaking one under their per-dimension maximum ``u``, and the gain is
swings(``u``) - swings(base), the loss swings(``u``) - swings(alt).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    removal_breaks,
    removal_loads,
    require_single_quota,
    subset_sums,
    sums_win,
)

__all__ = [
    "HARD_PLAYER_CAP",
    "SOFT_PLAYER_WARNING",
    "IndexReport",
    "DeltaReport",
    "CoalitionTable",
    "exact_indices",
    "association_delta",
]

# Games with several quotas enumerate all 2^m coalitions.
HARD_PLAYER_CAP = 32
SOFT_PLAYER_WARNING = 26
_DEFAULT_BLOCK_BITS = 16
# A sorted-half table keeps 24 bytes per entry of its larger half (each
# half's sorted sums and uint32 order), its build peaks at 40, and a count
# adds up to about 50 for one group's bounds and the winning edge (74 in all,
# measured at 32, 34 and 38 players).  The cap keeps that within
# _SORTED_TABLE_BYTES.
_SORTED_TABLE_BYTES = 128 << 20
_BYTES_PER_HALF_ENTRY = 80
_HALF_BITS_CAP = (_SORTED_TABLE_BYTES // _BYTES_PER_HALF_ENTRY).bit_length() - 1
SINGLE_QUOTA_PLAYER_CAP = 2 * _HALF_BITS_CAP
# An integer single-quota game is counted on its sum grid, the count of the
# subsets of each sum s = 0..W, when the m * (W + 1) additions that build it
# are within _GRID_CELLS and W + 1 is within _GRID_PER_HALF_ENTRY times the
# larger sorted half, past which the sorted halves count faster (measured at
# 16 to 32 players: the crossover lies between 16 and 64).  At the budget a
# count takes about 0.2 s in int64 and 1.5 s in Python ints (63 players), and
# a grid holds 16 bytes per sum in int64 and up to about 90 in Python ints,
# at most about 90 MiB.
_GRID_CELLS = 1 << 26
_GRID_PER_HALF_ENTRY = 16
# The bounds of a group of players, or a stack of small games' sum grids, are
# built at once, up to this many bytes.
_GROUP_BYTES = 1 << 20
_INF = np.array([np.inf])
# per engine, the `CoalitionTable` arrays built with the table, and its count
_ENGINES = {"subset-sum": ("_grid", "_grid_swings"), "sorted-half": ("_sides", "_sorted_swings"),
            "enumeration": ("_blocks", "_enumerated_swings")}


def _engine(game: VotingGame) -> str:
    """The engine that counts ``game``: "subset-sum" for one quota over
    integer weights whose sum grid fits its budget (see `_GRID_CELLS`),
    "sorted-half" for any other single quota, and "enumeration" for several
    quotas."""
    if game.num_dimensions > 1:
        return "enumeration"
    (total,), (integral,) = game._columns
    return "subset-sum" if integral and _grid_fits(game.num_players, int(total)) else "sorted-half"


def _grid_fits(m: int, total: int) -> bool:
    """Whether the sum grid of ``m`` integer weights adding to ``total`` fits
    its budget (see `_GRID_CELLS`)."""
    return m * (total + 1) <= min(_GRID_CELLS, _GRID_PER_HALF_ENTRY * m << (m + 1) // 2)


def _check_size(game: VotingGame, engine: str, stacklevel: int = 3) -> None:
    """Reject a game past ``engine``'s cap; warn of a long enumeration ``stacklevel`` frames up."""
    m = game.num_players
    if engine == "subset-sum":  # the grid fits its budget by choice
        return
    if engine == "sorted-half":
        if m > SINGLE_QUOTA_PLAYER_CAP:
            mib = (_BYTES_PER_HALF_ENTRY << _HALF_BITS_CAP) >> 20
            raise InvalidGameError(
                f"exact counting of single-quota games is capped at "
                f"{SINGLE_QUOTA_PLAYER_CAP} players, unless the weights are integers "
                f"whose sum grid, players x (total weight + 1), holds at most "
                f"2^{_GRID_CELLS.bit_length() - 1} cells; at the cap each half holds "
                f"2^{_HALF_BITS_CAP} sums and a count takes about {mib} MiB; got {m}"
            )
        return
    if m > HARD_PLAYER_CAP:
        raise InvalidGameError(
            f"exact enumeration is capped at {HARD_PLAYER_CAP} players, got {m}"
        )
    if m >= SOFT_PLAYER_WARNING:
        warnings.warn(
            f"enumerating 2^{m} coalitions; expect a long run",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


@dataclass(frozen=True)
class IndexReport:
    """Exact power indices for one game and one criticality mode."""

    player_ids: tuple[str, ...]
    mode: str  # "classical" or "association"
    swing_counts: tuple[int, ...]
    absolute: tuple[float, ...]
    normalized: tuple[float, ...]
    total_swings: int
    coalitions_per_player: int


@dataclass(frozen=True)
class DeltaReport:
    """Change in one player's absolute index when association kicks in."""

    player: str
    delta: float
    gain_count: int
    loss_count: int
    window: tuple[float, float]
    surplus: float


class CoalitionTable:
    """Subset-sum table over a game's full coalition space.

    Building the table chooses its engine once (`engine`, see `_engine`) and
    builds that engine's arrays; `swing_counts` can then be called repeatedly
    with different load matrices (for instance one call per sampled
    association matrix) without rebuilding them.  Integer single-quota games
    count on their sum grid, other single-quota games on both halves sorted
    by sum; games with several quotas enumerate the winning coalitions, and
    cache a boundary convention's winners when they fit the budget.
    """

    def __init__(self, game: VotingGame):
        self.engine = _engine(game)
        _check_size(game, self.engine)
        self.game = game
        # thresholds -> (sums, members) of every winning coalition, for the
        # conventions whose winners fit the budget of `winner_blocks`
        self._winning_sets: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}
        # the engine's arrays are built with the table; a single-quota table
        # builds the enumerator's blocks only if `winner_blocks` asks for them
        getattr(self, _ENGINES[self.engine][0])

    def swing_counts(self, loads: np.ndarray, strict: bool = False) -> np.ndarray:
        """Count, per player, the coalitions the player swings.

        ``loads`` is the (m, k) matrix of removal loads.  The counts are
        int64, or Python ints in an object array from 63 players on.
        """
        m = self.game.num_players
        loads = _shaped(loads, (m, self.game.num_dimensions), "loads")
        return self._swings(np.arange(m), loads, self.game.thresholds(strict))

    def criticality_gain_loss(
        self,
        player: int | str,
        base_loads: np.ndarray,
        alt_loads: np.ndarray,
    ) -> tuple[int, int]:
        """Coalitions where ``alt`` loads make the player critical but
        ``base`` loads do not (gain), and vice versa (loss), for any number
        of quotas on any engine: three counts, of the swings under ``base``,
        ``alt`` and their per-dimension maximum.  Each load row holds one
        finite load per dimension."""
        player = self.game.player_index(player)
        k = (self.game.num_dimensions,)
        base_loads, alt_loads = _shaped(base_loads, k, "base_loads"), _shaped(alt_loads, k, "alt_loads")
        loads = np.array([base_loads, alt_loads, np.maximum(base_loads, alt_loads)])
        base, alt, either = self._swings(np.full(3, player), loads, self.game.winning_thresholds)
        return int(either - base), int(either - alt)

    def _swings(self, players: np.ndarray, loads: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
        """Per entry, how many coalitions player ``players[e]`` swings with
        the removal loads ``loads[e]`` under ``thresholds``, by the table's
        engine.  Each engine's count takes these arguments."""
        return getattr(self, _ENGINES[self.engine][1])(players, loads, thresholds)

    # -- integer single quota: windows on the sum grid ---------------------

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The integer weights, and the game's grid as a stack of one."""
        weights = self.game.weight_matrix[:, 0].astype(np.int64)
        return (weights, *_grid_stack([weights]))

    def _grid_swings(self, players: np.ndarray, loads: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
        weights, prefix, sums = self._grid
        return _grid_swing_counts(prefix, sums, np.array(thresholds), np.zeros_like(players), weights[players], loads[:, 0])

    # -- single quota: windows over the other half's sorted sums ------------

    @cached_property
    def _sides(self) -> tuple[tuple, tuple]:
        """Per half of an even split, low then high: its players ``first`` to
        ``end``, its coalition masks in ascending order of their sums and
        those sums, and the other half's sums in order between -inf and +inf."""
        weights, m = self.game.weight_matrix, self.game.num_players
        b, halves = (m + 1) // 2, []
        for rows in (weights[:b], weights[b:]):
            sums = subset_sums(rows)[0]
            order = np.argsort(sums).astype(np.uint32)
            halves.append((order, np.concatenate((-_INF, sums[order], _INF))))
        (low, low_padded), (high, high_padded) = halves
        return (0, b, low, low_padded[1:-1], high_padded), (b, m, high, high_padded[1:-1], low_padded)

    def _sorted_swings(self, players: np.ndarray, loads: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
        counts = np.zeros(players.size, dtype=np.int64)
        for first, end, order, own, other in self._sides:
            entries = np.flatnonzero((players >= first) & (players < end))
            if not entries.size:  # no entry here: skip the half, its winning edge too
                continue
            # a row of bounds costs about 64 bytes per scanned sum; the first
            # row is load 0, whose bounds are the winning edge
            step = max(1, _GROUP_BYTES // (64 * own.size))
            rows = np.concatenate(([0.0], loads[entries, 0]))
            bits = (players[entries] - first).astype(np.uint32)[:, None]
            done = 0
            for start in range(0, rows.size, step):
                bounds = _break_bounds(own, other, rows[start : start + step], thresholds)
                if not start:
                    win, bounds = bounds[0], bounds[1:]
                group = slice(done, done + len(bounds))
                counts[entries[group]] = _member_sums(order, bits[group], np.maximum(bounds, win) - win)
                done += len(bounds)
                del bounds  # before the next group's bounds are built
        return counts

    # -- several quotas: enumeration ----------------------------------------

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The enumerator's (k, 2^b) sums over the subsets of the first
        ``b = min(m, _DEFAULT_BLOCK_BITS)`` players, and its (k, 2^(m - b))
        sums over the subsets of the others."""
        weights = self.game.weight_matrix
        b = min(len(weights), _DEFAULT_BLOCK_BITS)
        return subset_sums(weights[:b]), subset_sums(weights[b:])

    def _compact(self, h: int, b: int, sums: np.ndarray, win: np.ndarray, n: int):
        """Sums and membership rows of block ``h``'s ``n`` winning coalitions."""
        m = self.game.num_players
        low = np.flatnonzero(win).astype(np.uint32)
        members = np.empty((m, n), dtype=bool)
        for i in range(b):
            np.not_equal(low & np.uint32(1 << i), 0, out=members[i])
        members[b:] = ((h >> np.arange(m - b)) & 1)[:, None]
        return np.compress(win, sums, axis=1), members

    def winner_blocks(self, thresholds: tuple[float, ...]):
        """Yield ``(sums, members)``, in ascending bitmask order, for every
        coalition winning under ``thresholds``: (k, n) sums and an (m, n)
        bool membership row per player.  Nothing else visits every coalition.

        Yields the cached set when there is one.  Otherwise it compacts the
        high blocks in order and holds them back while they fit the budget;
        at the first block past it, it yields what it holds and streams the
        rest, and a set that fits is cached and yielded whole.  On a
        single-quota table it checks the enumeration's player cap first.
        """
        if self.engine != "enumeration":
            _check_size(self.game, "enumeration", stacklevel=4)
        cached = self._winning_sets.get(thresholds)
        if cached is not None:
            yield cached
            return
        m, k = self.game.num_players, self.game.num_dimensions
        low, high = self._blocks
        b = low.shape[1].bit_length() - 1
        # A compacted winner costs 8k bytes of sums and m of membership.  The
        # budget is one block's sum arrays, which the scan holds anyway.
        room = low.nbytes // (k * 8 + m)
        # an empty part first, so that a convention nothing wins caches an empty set
        held = [(np.empty((k, 0)), np.empty((m, 0), dtype=bool))]
        for h in range(high.shape[1]):
            sums = high[:, h : h + 1] + low
            win = sums_win(sums, thresholds)
            n = int(np.count_nonzero(win))
            if not n:
                continue
            part = self._compact(h, b, sums, win, n)
            room -= n
            if room >= 0:
                held.append(part)
                continue
            yield from held
            held = []
            yield part
        if room >= 0:
            winners = tuple(np.concatenate(p, axis=1) for p in zip(*held))
            self._winning_sets[thresholds] = winners
            yield winners

    def _enumerated_swings(self, players: np.ndarray, loads: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
        counts = np.zeros(players.size, dtype=np.int64)
        for sums, members in self.winner_blocks(thresholds):
            for e, (i, load) in enumerate(zip(players.tolist(), loads)):
                breaks = removal_breaks(sums, load, thresholds)
                counts[e] += int(np.count_nonzero(members[i] & breaks))
        return counts


def _break_bounds(
    scanned: np.ndarray, padded: np.ndarray, loads: np.ndarray, thresholds: tuple[float, ...]
) -> np.ndarray:
    """(g, n) first index among the other half's sorted sums (``padded``
    without its ends) where removing each of the g ``loads`` stops breaking
    the quota, for the coalitions of each of the n ``scanned`` sums; at load
    0, the first index whose coalition wins.

    `np.searchsorted` guesses each index, and the kernel's verdicts correct
    it by whole runs of equal sums, which share one verdict, until the run
    before it breaks and the run at it does not; the ``-inf`` and ``+inf``
    that pad the sums break and hold for every load."""
    loads, sorted_sums = loads[:, None], padded[1:-1]
    p = sorted_sums.searchsorted((thresholds[0] + loads) - scanned)
    while True:
        before, here = padded[p], padded[p + 1]
        back = ~removal_breaks((scanned + before,), (loads,), thresholds)
        ok = ~removal_breaks((scanned + here,), (loads,), thresholds)
        if ok.all() and not back.any():
            return p
        p = np.where(back, sorted_sums.searchsorted(before, "left"), p)
        p = np.where(ok, p, sorted_sums.searchsorted(here, "right"))


def _grid_stack(weights: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The sum grids of a stack of games, one per array of integer
    ``weights``: ``prefix[g, b]``, how many subsets of game g's players sum
    below ``b``, for ``b = 0..W + 1`` with ``W`` the stack's largest total
    (int64 below 63 players, Python ints from 63 on, so that no count
    wraps), and the sums ``0..W`` as floats between -inf and +inf."""
    width = max(int(w.sum()) for w in weights) + 2
    prefix = np.zeros((len(weights), width), dtype=np.int64 if max(w.size for w in weights) < 63 else object)
    prefix[:, 1] = 1  # the empty coalition
    for w, counts in zip(weights, prefix[:, 1:]):  # the count of each sum, summed in place below
        top = 0  # the largest sum so far
        for x in w.tolist():
            counts[x : top + x + 1] += counts[: top + 1]
            top += x
    np.cumsum(prefix, axis=1, out=prefix)
    sums = np.arange(-1.0, width)
    sums[0], sums[-1] = -np.inf, np.inf
    return prefix, sums


def _grid_swing_counts(
    prefix: np.ndarray, sums: np.ndarray, thresholds: np.ndarray, rows: np.ndarray, weights: np.ndarray, loads: np.ndarray
) -> np.ndarray:
    """Per entry, how many coalitions of the stack's game ``rows[e]``
    (`_grid_stack`) its player, of integer weight ``weights[e]``, swings with
    removal load ``loads[e]``: those of sums [win, break) that hold it, whose
    other members sum to [win - w, break - w).  The edges, where the game
    starts to win (its break edge at load 0) and the removal stops breaking,
    are the kernel's verdicts on the exact float grid ``sums``, so any quota
    or load (negative ones included) gets the enumerator's verdicts."""
    g, n = thresholds.size, rows.size
    t = np.concatenate((thresholds, thresholds[rows]))[:, None]
    edges = _break_bounds(np.zeros(1), sums, np.concatenate((np.zeros(g), loads)), (t,))[:, 0]
    win, w = edges[rows], np.tile(weights, 2)
    bounds = np.concatenate((np.maximum(edges[g:], win), win)) - w
    below = _others_below(prefix, np.tile(rows, 2), bounds, w)
    return below[:n] - below[n:]


def _others_below(prefix: np.ndarray, rows: np.ndarray, bounds: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per entry, how many subsets of the players of game ``rows[e]`` other
    than one of weight ``weights[e]`` sum below ``bounds[e]``, from that
    game's ``prefix`` row, the counts over all its players (`_grid_stack`).

    The counts ``c`` over all the players are ``o + shift(o, w)`` for those
    ``o`` over the others, so the others' count below ``b`` is the
    alternating strided sum ``P[b] - P[b - w] + P[b - 2w] - ...`` over
    ``b - jw > 0`` (``P`` is 0 from 0 down), and ``P[b] / 2`` for a zero
    weight.  Entries are gathered in groups of similar term counts, and a
    group's (entries x terms) gather is cut to fit `_GROUP_BYTES`."""
    # an entry reads its game's row of the flat prefix, from the row's start
    flat, starts = prefix.ravel(), rows * prefix.shape[1]
    bounds = np.maximum(bounds, 0)
    out = np.empty(bounds.size, dtype=prefix.dtype)
    zero = weights == 0
    out[zero] = flat[starts[zero] + bounds[zero]] // 2
    terms = -(-bounds // np.maximum(weights, 1))
    todo = np.flatnonzero(~zero)
    todo = todo[np.argsort(terms[todo], kind="stable")]
    room = _GROUP_BYTES // 16  # an int64 index and a count per term
    while todo.size:
        # the most entries whose terms, padded to the last (the most), fit the room
        n = max(1, int(np.count_nonzero(np.arange(1, todo.size + 1) * terms[todo] <= room)))
        group, todo = todo[:n], todo[n:]
        first, w = starts[group, None], weights[group, None]
        b = first + bounds[group, None]
        step = max(2, room // n & ~1)  # even, so that every slice starts on a + term
        total = np.zeros(n, dtype=prefix.dtype)
        k = int(terms[group[-1]])
        for j in range(0, k, step):
            # an index at or below the row's start reads P[0] = 0; built in
            # place, so that a slice holds only its indices and its counts
            at = w * -np.arange(j, min(j + step, k))
            at += b
            got = flat[np.maximum(at, first, out=at)]
            total += got[:, ::2].sum(axis=1) - got[:, 1::2].sum(axis=1)
            del at, got
        out[group] = total
    return out


def _member_sums(order: np.ndarray, bits: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Per row of ``widths``, its sum over the entries whose mask in
    ``order`` has that row's bit of ``bits`` set."""
    return (((order >> bits) & 1) * widths).sum(axis=-1)


def _shaped(loads, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``loads`` as an array of ``shape``, every load finite (no edge search ends on NaN or inf)."""
    loads = np.asarray(loads)
    if loads.shape != shape:
        raise InvalidGameError(f"{what} must be shaped {shape}, got {loads.shape}")
    if not np.isfinite(loads.astype(float)).all():  # of any numeric dtype, object included
        raise InvalidGameError(f"{what}: not finite")
    return loads


def _make_report(game: VotingGame, mode: str, counts: np.ndarray) -> IndexReport:
    m = game.num_players
    denom = 1 << (m - 1)
    swings = counts.tolist()
    total = sum(swings)
    normalized = tuple(c / total for c in swings) if total else (0.0,) * m
    return IndexReport(
        player_ids=game.player_ids,
        mode=mode,
        swing_counts=tuple(swings),
        absolute=tuple(c / denom for c in swings),
        normalized=normalized,
        total_swings=total,
        coalitions_per_player=denom,
    )


def _classical_reports(games: list[VotingGame]) -> list[IndexReport]:
    """``exact_indices(game)`` for each of the single-quota ``games``, to the bit.

    The games that `_engine` counts on the sum grid are rows of stacks
    (`_grid_stack`), as many in order as fit `_GROUP_BYTES` at 8 bytes per
    padded count (at least one), and a stack costs one edge search and one
    `_others_below` call, not a table per game.  Other games get a table.
    """
    reports = [None if _engine(g) == "subset-sum" else exact_indices(g) for g in games]
    grid = [p for p, report in enumerate(reports) if report is None]
    widths = np.array([int(games[p].dimension_totals[0]) + 2 for p in grid])
    while grid:
        padded = 8 * np.arange(1, len(grid) + 1) * np.maximum.accumulate(widths)
        n = max(1, int(np.count_nonzero(padded <= _GROUP_BYTES)))
        stack, grid, widths = grid[:n], grid[n:], widths[n:]
        loads = [games[p].weight_matrix[:, 0] for p in stack]
        weights = [w.astype(np.int64) for w in loads]
        rows = np.repeat(np.arange(n), [w.size for w in weights])
        thresholds = np.array([games[p].winning_thresholds[0] for p in stack])
        counts = _grid_swing_counts(*_grid_stack(weights), thresholds, rows, np.concatenate(weights), np.concatenate(loads))
        for p, row in zip(stack, np.split(counts, np.cumsum([w.size for w in weights])[:-1])):
            reports[p] = _make_report(games[p], "classical", row)
    return reports


def _table_for(game: VotingGame, table: CoalitionTable | None) -> CoalitionTable:
    """``table``, checked to belong to ``game``, or a new table for it."""
    if table is None:
        return CoalitionTable(game)
    if table.game is not game:
        raise InvalidGameError("table was built for a different game")
    return table


def exact_indices(
    game: VotingGame,
    phi: AssociationMatrix | None = None,
    strict: bool = False,
    table: CoalitionTable | None = None,
) -> IndexReport:
    """Exact Banzhaf indices, classical or association-aware.

    With ``phi`` the removal load of player ``i`` is its persuasion load;
    without, its own weight.  ``strict`` switches the quota comparison to the
    alternate strictly-above convention (a sensitivity knob; the default
    non-strict convention is the one every stated result uses).  Passing a
    prebuilt ``table`` recycles its sum arrays across calls.
    """
    mode, loads = removal_loads(game, phi)
    counts = _table_for(game, table).swing_counts(loads, strict=strict)
    return _make_report(game, mode, counts)


def association_delta(
    game: VotingGame,
    phi: AssociationMatrix,
    player: int | str,
    table: CoalitionTable | None = None,
) -> DeltaReport:
    """How association shifts one player's absolute index, with the swing
    window that explains the shift.

    Only defined for single-dimension games.  The player's surplus
    ``d = load - weight`` widens (``d > 0``) or narrows (``d < 0``) the band
    of coalition weights where the player swings; the report carries the
    resulting half-open window ``[lo, hi)`` plus the counts of coalitions
    gained and lost relative to the classical index.
    """
    require_single_quota(game, "association_delta")
    i = game.player_index(player)
    table = _table_for(game, table)
    _, loads = removal_loads(game, phi)
    gain, loss = table.criticality_gain_loss(i, game.weight_matrix[i], loads[i])
    q = game.quotas[0]
    w = game.weights[i][0]
    surplus = float(loads[i][0] - w)
    top = q + w + surplus
    if surplus >= 0:
        window = (q + w, top)
    else:
        window = (max(q, top), q + w)
    denom = 1 << (game.num_players - 1)
    return DeltaReport(
        player=game.player_ids[i],
        delta=(gain - loss) / denom,
        gain_count=gain,
        loss_count=loss,
        window=window,
        surplus=surplus,
    )
