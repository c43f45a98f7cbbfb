"""Exact swing counting over the subset sums of a game's coalitions.

A table chooses its engine once, when it is built (`CoalitionTable.engine`),
by one rule over the engines' stated budgets and work (`engine_plan`), and
each engine has one count, of the swings per (player, load row) entry.
The sorted halves and the enumerator hold per-dimension subset sums of a low
and a high half of the players, so every coalition sum is ``high + low`` for
one sum from each half; float addition commutes, so under one split it is
the same float however the coalitions are visited.  Swing counts are integers.

Integer single-quota games can be counted on their sum grid
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
stack of one; `integer_game_counts` stacks many games, built a player
position at a time, and counts them with one search and one gather.

Any single-quota game can be counted on its sorted halves ("sorted-half"),
which never visit coalitions one by one either.  Both halves are sorted once
by sum, and every player is counted by one rule.  A player ``i`` with removal
load ``l`` swings a coalition of sum ``s`` when ``s >= t`` and ``s - l < t``.
For a fixed sum ``a`` of one half both sides are monotone in the other
half's sum ``c`` (float ``a + c`` never decreases as ``c`` grows), so over
the other half's sorted sums the winning coalitions are a suffix and those
the removal breaks a prefix.  Each edge is one search per sum of the scanned
half for where the removal stops breaking the quota, and the winning edge is
the same search at load 0 (``s - 0.0 < t`` is ``s < t`` for every float):
`np.searchsorted` guesses it and the kernel in `banzhaf.games` itself
corrects it over runs of equal sums, so the counts are the enumerator's to
the bit (the Horowitz-Sahni split applied to power indices; Klinz &
Woeginger 2005, Matsui & Matsui 2000).  Player ``i`` then adds, over the
sums of its own half whose coalitions hold it, the width of the window
between the winning edge and its break edge.  The scanned sums are taken in
sorted order too, so the searches and corrections walk both arrays in
order.  The halves split the players evenly and the table keeps only their
sorted sums, so memory grows as ``2^(m/2)``.

Games with several quotas ("enumeration") have no such order, and enumerate
the ``2^(m-b)`` high blocks of a low half of ``b = min(m, 16)`` players,
every one of the ``2^m`` coalitions once (a single-quota table builds them
only when `CoalitionTable.winner_blocks` asks, past the same cap).  Only winning
coalitions can be swung, and in games like the EU Council few of them win,
so the enumeration compacts each block's winners (their sums and membership
bits) and counts over those alone; it tests a block one dimension at a time
and then sums only the winners, so it never holds all of a block's sums.
When all of a boundary convention's winners fit in one block's sum arrays
(``2^b * k * 8`` bytes), the first scan caches them and later scans, one per
load matrix, read only the cache; larger sets are enumerated and compacted
afresh by each scan.  The comparisons themselves (``s >= t`` to win,
``s - l < t`` to break, under either boundary convention's thresholds) live
in `banzhaf.games`, which every engine shares.
A count finds each entry's break edge per dimension once (`removal_edges`):
the least float ``v`` with ``v - l >= t``.  Float subtraction of a fixed
``l`` is monotone, so ``s - l < t`` exactly when ``s < v``, and a winner
breaks an entry iff it does not win against the entry's edges, one
comparison per dimension.  Two rules skip the comparisons that cannot change
a count.  Every winner has ``s >= t``, so a quota whose edge is at or below
``t`` breaks no winner (it is dead), and an entry with no live quota counts
0 (a count of only such entries scans nothing).  Float addition of
non-negative weights never lowers a sum, and each half's sums add its
weights in player order, so no coalition's sums pass the full coalition's
(the two halves' last sums, added): an entry whose edge is above them in
some quota breaks every winner, and counts the winners that hold its
player.  The other entries are grouped once per count, by player and set of
live quotas (a tuple, so any number of quotas), and per block each group is
compared over its live quotas only: an entry alone against scalar edges,
more in one broadcast, in chunks that fit `_GROUP_BYTES`, so the r load
matrices of a stack (`CoalitionTable.swing_counts` takes one or r, and
`association_study` gives it r random matrices' loads) share one pass over
the winners.

Gain and loss between two load rows are three counts on any engine and for
any number of quotas: per dimension ``s - l < t`` is monotone in ``l``, since
float subtraction rounds monotonically, so breaking a quota under either row
is breaking one under their per-dimension maximum ``u``, and the gain is
swings(``u``) - swings(base), the loss swings(``u``) - swings(alt).
"""

from __future__ import annotations

import inspect
import numbers
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import association_draws
from .games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    check_association,
    load_sums,
    quota_tolerance,
    removal_breaks,
    removal_edges,
    removal_loads,
    require_single_quota,
    seeded_rng,
    single_quota_game,
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
    "association_study",
    "association_delta",
]

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
# A sum grid of m players and total weight W builds in m * (W + 1) cells; at
# _GRID_CELLS a count takes about 0.2 s in int64 and 1.5 s in Python ints (63
# players), and the grid holds 16 bytes a sum in int64, up to 90 in ints.
_GRID_CELLS = 1 << 26
# Work is counted in grid sums, W + 1 a game.  An entry of the larger sorted
# half costs _GRID_PER_HALF_ENTRY (the crossover, measured at 16 to 32
# players, lies between 16 and 64), and a table of its own _TABLE_SETUP in a
# stack: a lone 4-player sorted-half `exact_indices` takes about 140 us, a
# stack of 128 such games 8-11 ns a sum at W of 4,000-40,000, and scans of
# 3-24 players up to 20,000 ran fastest at 2^13-2^15 (in-process, 2-vCPU VM).
_GRID_PER_HALF_ENTRY = 16
_TABLE_SETUP = 1 << 14
# The bounds of a group of players, a stack of small games' sum grids, or the
# enumerator's comparisons of one player's entries with a block of winners
# are built at once, up to this many bytes.
_GROUP_BYTES = 1 << 20
# `association_study` draws its association matrices in stacks of at most this many bytes
_STACK_BYTES = 1 << 20
_INF = np.array([np.inf])


# An engine of `engine_plan`: whether it ``counts`` games of k quotas, integral or not; whether m players of
# total weight W (numbers or arrays) ``fits`` its budget, and their ``work``; whether it ``stacks`` games; its
# ``cap`` message; and the `CoalitionTable` ``arrays`` it builds and its ``count``.  Ties go to the first.
# tests/test_engines.py reads this table: every entry is checked against the brute-force oracle on every
# game it accepts, so a new engine is one entry here.
_Engine = namedtuple("_Engine", "counts fits work stacks cap arrays count")
_ENGINES = {
    "subset-sum": _Engine(
        counts=lambda k, integral: k == 1 and integral, fits=lambda m, W: m * (W + 1.0) <= _GRID_CELLS,
        work=lambda m, W: W + 1.0, stacks=True, arrays="_grid", count="_grid_swings",
        cap=f"a sum grid holds at most 2^{_GRID_CELLS.bit_length() - 1} cells, players x (total weight + 1); got {{m}}",
    ),
    "sorted-half": _Engine(  # 2^ceil(m/2) entries of _BYTES_PER_HALF_ENTRY bytes
        counts=lambda k, integral: k == 1, fits=lambda m, W: (m + 1) // 2 <= _HALF_BITS_CAP, stacks=False,
        work=lambda m, W: np.ldexp(_GRID_PER_HALF_ENTRY, (m + 1) // 2), arrays="_sides", count="_sorted_swings",
        cap=f"exact counting of single-quota games is capped at {SINGLE_QUOTA_PLAYER_CAP} players, unless the "
        f"weights are integers whose sum grid, players x (total weight + 1), holds at most "
        f"2^{_GRID_CELLS.bit_length() - 1} cells; at the cap each half holds 2^{_HALF_BITS_CAP} sums and a count "
        f"takes about {(_BYTES_PER_HALF_ENTRY << _HALF_BITS_CAP) >> 20} MiB; got {{m}}",
    ),
    "enumeration": _Engine(  # 2^m coalitions: planned for games with several quotas, counts any game named
        counts=lambda k, integral: k > 1, fits=lambda m, W: m <= HARD_PLAYER_CAP, work=lambda m, W: np.ldexp(1.0, m),
        stacks=False, arrays="_blocks", count="_enumerated_swings",
        cap=f"exact enumeration is capped at {HARD_PLAYER_CAP} players, got {{m}}",
    ),
}


def engine_plan(m, k: int = 1, integral: bool = False, total=0, engine: str | None = None, stacked: bool = False):
    """Of the `_ENGINES` that count a game of ``m`` players, ``k`` quotas and
    ``total`` weight, ``integral`` or not (or ``engine`` alone), the one of
    least work within its budget; in a stack (``stacked``) one that does not
    stack adds `_TABLE_SETUP`.  Arrays of ``m`` and ``total``, a game an entry,
    give an array of names.  A named engine that does not count the game, or
    an unknown name, is refused; past every budget it raises the ``cap`` of
    the last engine; an enumeration of `SOFT_PLAYER_WARNING` players or more
    warns at the caller of the package."""
    names = [name for name, e in _ENGINES.items() if e.counts(k, integral)]
    if engine is not None:
        if engine not in _ENGINES:
            raise InvalidGameError(f"unknown engine {engine!r}, not one of {', '.join(_ENGINES)}")
        if engine not in names and engine != "enumeration":
            raise InvalidGameError(f"the {engine} engine does not count games of {k} quota(s) "
                                   f"and {'integer' if integral else 'non-integer'} weights")
        names = [engine]
    with np.errstate(over="ignore"):  # 2^m past float64 is inf, and over every budget
        works = np.array([np.where(e.fits(m, total), e.work(m, total) + _TABLE_SETUP * (stacked and not e.stacks),
                                   np.inf) for e in map(_ENGINES.__getitem__, names)])
    if (over := np.isinf(works.min(axis=0))).any():
        raise InvalidGameError(_ENGINES[names[-1]].cap.format(m=np.max(m, where=over, initial=0)))
    chosen = np.array(names)[works.argmin(axis=0)]
    long = (chosen == "enumeration") & (m >= SOFT_PLAYER_WARNING)
    if np.any(long):  # at the caller of the package's outermost frame
        depth = max(i for i, f in enumerate(inspect.stack(0)) if f.frame.f_globals.get("__package__") == __package__)
        warnings.warn(f"enumerating 2^{np.max(m, where=long, initial=0)} coalitions; expect a long run",
                      RuntimeWarning, stacklevel=depth + 2)
    return chosen if chosen.ndim else str(chosen)


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

    Building the table chooses its engine once (`engine`: the one named, or
    `engine_plan`'s) and builds that engine's arrays; `swing_counts` can then
    be called repeatedly with different load matrices (for instance one call
    per sampled association matrix) without rebuilding them.
    """

    def __init__(self, game: VotingGame, engine: str | None = None):
        self.engine = engine_plan(game.num_players, game.num_dimensions, all(game.integral_dimensions),
                                  max(game.dimension_totals), engine)
        self.game = game
        # thresholds -> (sums, members) of every winning coalition, for the
        # conventions whose winners fit the budget of `winner_blocks`
        self._winning_sets: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}
        # the engine's arrays are built with the table; a single-quota table
        # builds the enumerator's blocks only if `winner_blocks` asks for them
        getattr(self, _ENGINES[self.engine].arrays)

    def swing_counts(self, loads: np.ndarray, strict: bool = False) -> np.ndarray:
        """Count, per player, the coalitions the player swings.

        ``loads`` is the (m, k) matrix of removal loads, or an (r, m, k)
        stack of r such matrices, counted at once, which gives (r, m) counts.
        The counts are int64, or Python ints in an object array from 63
        players on.
        """
        m, k = self.game.num_players, self.game.num_dimensions
        loads = np.asarray(loads)
        loads = _shaped(loads, (len(loads), m, k) if loads.ndim == 3 else (m, k), "loads")
        players = np.tile(np.arange(m), loads.size // (m * k))
        return self._swings(players, loads.reshape(-1, k), self.game.thresholds(strict)).reshape(loads.shape[:-1])

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
        return getattr(self, _ENGINES[self.engine].count)(players, loads, thresholds)

    # -- integer single quota: windows on the sum grid ---------------------

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The integer weights, and the game's grid as a stack of one."""
        weights = self.game.weight_matrix.astype(np.int64)
        return (weights[:, 0], *_grid_stack(weights))

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

    def _compact(self, h: int, b: int, win: np.ndarray, n: int):
        """Sums and membership rows of block ``h``'s ``n`` winning coalitions,
        whose low halves are where ``win`` holds."""
        m, (low, high) = self.game.num_players, self._blocks
        rows = np.flatnonzero(win).astype(np.uint32)
        members = np.empty((m, n), dtype=bool)
        for i in range(b):
            np.not_equal(rows & np.uint32(1 << i), 0, out=members[i])
        members[b:] = ((h >> np.arange(m - b)) & 1)[:, None]
        return high[:, h : h + 1] + low.take(rows, axis=1), members  # take keeps the sums' rows contiguous

    def winner_blocks(self, thresholds: tuple[float, ...]):
        """Yield ``(sums, members)``, in ascending bitmask order, for every
        coalition winning under ``thresholds``: (k, n) sums and an (m, n)
        bool membership row per player.  Nothing else visits every coalition.

        Yields the cached set when there is one.  Otherwise it compacts the
        high blocks in order and holds them back while they fit the budget;
        at the first block past it, it yields what it holds and streams the
        rest, and a set that fits is cached and yielded whole.  On a
        table of another engine it plans the enumeration first.
        """
        if self.engine != "enumeration":
            engine_plan(self.game.num_players, engine="enumeration")
        cached = self._winning_sets.get(thresholds)
        if cached is not None:
            yield cached
            return
        m, k = self.game.num_players, self.game.num_dimensions
        low, high = self._blocks
        b = low.shape[1].bit_length() - 1
        # A compacted winner costs 8k bytes of sums and m of membership.  The
        # budget is the size of the low half's sums, which the table holds anyway.
        room = low.nbytes // (k * 8 + m)
        # an empty part first, so that a convention nothing wins caches an empty set
        held = [(np.empty((k, 0)), np.empty((m, 0), dtype=bool))]
        for h in range(high.shape[1]):
            # one dimension's sums at a time, so the block's (k, 2^b) sums are never all held
            win = sums_win((high[0, h] + low[0],), thresholds[:1])
            for d in range(1, k):
                win &= sums_win((high[d, h] + low[d],), thresholds[d : d + 1])
            n = int(np.count_nonzero(win))
            if not n:
                continue
            part = self._compact(h, b, win, n)
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
        # a winner of sums s breaks entry e iff s < edges[:, e] in some
        # dimension, that is iff it does not win against the entry's edges
        edges = removal_edges(loads.T, thresholds)
        low, high = self._blocks
        # Every winner has s >= t, so a quota whose edge is at or below t breaks
        # none (it is dead), and no coalition's sums pass the full coalition's,
        # so an edge above them breaks every winner: such an entry is compared
        # in no quota.  An entry is kept if it breaks every winner or has a
        # live quota, and keyed by its player and which quotas it compares.
        every = (edges > (low[:, -1] + high[:, -1])[:, None]).any(axis=0)
        live = (edges > np.array(thresholds)[:, None]) & ~every
        breaks_some = (live.any(axis=0) | every).tolist()
        # grouped by key without a sort: numpy's first sort in a process maps
        # about 1.5 MB of its code, which the EU study's peak memory would show
        grouped: dict[tuple[int, tuple[bool, ...]], list[int]] = {}
        for e, (i, quotas, breaks) in enumerate(zip(players.tolist(), zip(*live.tolist()), breaks_some)):
            if breaks:
                grouped.setdefault((i, quotas), []).append(e)
        groups = []
        for (i, quotas), entries in grouped.items():
            dims = [d for d, on in enumerate(quotas) if on]  # none if it breaks every winner
            # an entry alone is compared with scalar edges, a group in columns
            live_edges = edges[dims, entries[0]].tolist() if len(entries) == 1 else edges[dims][:, entries, None]
            groups.append((i, entries, dims, live_edges))
        counts = [0] * players.size
        for sums, members in self.winner_blocks(thresholds) if groups else ():  # no scan when none can break
            # a chunk's two (rows, n) bool arrays take at most a quarter of
            # _GROUP_BYTES, which keeps a count's peak memory below the scan's
            rows = max(1, _GROUP_BYTES // max(1, 8 * sums.shape[1]))
            own_totals: dict[int, int] = {}  # each player's winners in the block, counted once
            for i, entries, dims, live_edges in groups:
                own = members[i]
                own_total = own_totals.get(i)
                if own_total is None:
                    own_total = own_totals[i] = np.count_nonzero(own)
                for start in range(0, len(entries), rows):
                    chunk = entries[start : start + rows]
                    kept = [0] * len(chunk)  # an entry that breaks every winner keeps none
                    if dims:
                        chunk_edges = live_edges if len(entries) == 1 else live_edges[:, start : start + rows]
                        keeps = sums_win([sums[d] for d in dims], chunk_edges)
                        keeps &= own
                        kept = [np.count_nonzero(row) for row in keeps.reshape(len(chunk), -1)]
                    for e, n in zip(chunk, kept):
                        counts[e] += own_total - n
        return np.array(counts, dtype=np.int64)


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


def _grid_stack(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sum grids of a stack of games, one per column of the (m, g)
    integer ``weights``: ``prefix[g, b]``, how many subsets of game g's
    players sum below ``b``, for ``b = 0..W + 1`` with ``W`` the stack's
    largest total (int64 below 63 players, Python ints from 63 on, so that
    no count wraps), and the sums ``0..W`` as floats between -inf and +inf.
    A game of fewer players is padded with weight 0, which doubles its counts.
    Each player position adds to every count ``c[s]`` its ``c[s - w]``, read
    as windows on the flat array, which starts with ``p`` zeros, one fewer
    than the heaviest weight ``w``, and ends each row with ``p`` more."""
    (m, g), tops = weights.shape, weights.cumsum(axis=0).max(axis=1).tolist()  # the stack's running top
    total, pad = tops[-1], max(int(weights.max()) - 1, 0)
    width = total + 2 + pad
    flat = np.zeros(pad + g * width, dtype=np.int64 if m < 63 else object)
    prefix = flat[pad:].reshape(g, width)
    prefix[:, 1] = 1  # the empty coalition
    # windows[o] is flat[o : o + total + 1]; game r's c[s - w] starts at pad + r * width + 1 - w
    windows = as_strided(flat, (flat.size - total, total + 1), flat.strides * 2, writeable=False)
    for starts, top in zip(np.arange(pad + 1, flat.size, width) - weights, tops):
        prefix[:, 1 : top + 2] += windows[starts, : top + 1]
    np.cumsum(prefix, axis=1, out=prefix)
    sums = np.arange(-1.0, total + 2)
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


def _stacked_swings(weights: list[np.ndarray], totals: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The swing counts of integer single-quota games' players, game after
    game: game g's players weigh ``weights[g]``, ``totals[g]`` in all, it wins
    from ``thresholds[g]``, and its grid fits its budget (`engine_plan`).  The
    games are stacked in order of total, so that each is padded to at most
    the next heavier game's width: a stack (`_grid_stack`) holds as many as
    fit `_GROUP_BYTES` at 16 bytes per padded count and its shifted copy (at
    least one), for one build, one edge search and one `_others_below` call."""
    players, order = np.array([w.size for w in weights], dtype=np.int64), np.argsort(totals, kind="stable")
    weights, totals, thresholds = [weights[g] for g in order], totals[order], thresholds[order]
    counts, widths = [np.zeros(0, dtype=np.int64)], totals + 2
    while weights:
        padded = 16 * np.arange(1, len(weights) + 1) * widths  # the widest game of a stack is its last
        n = max(1, int(np.count_nonzero(padded <= _GROUP_BYTES)))
        stack, weights, widths = weights[:n], weights[n:], widths[n:]
        sizes, flat = np.array([w.size for w in stack]), np.concatenate(stack)
        rows, by_position = np.repeat(np.arange(n), sizes), np.zeros((sizes.max(), n), dtype=np.int64)
        by_position.T[np.arange(sizes.max()) < sizes[:, None]] = flat  # each game's players, then weight-0 padding
        swings = _grid_swing_counts(*_grid_stack(by_position), thresholds[:n], rows, flat, flat)
        counts.append(swings >> (sizes.max() - sizes)[rows])  # each padding player doubled its game's counts
        thresholds = thresholds[n:]
    # back in game order: game g's players start at firsts[g] there and at starts[g] in the stacks
    starts, firsts = np.empty_like(order), np.cumsum(players) - players
    starts[order] = np.cumsum(players[order]) - players[order]
    return np.concatenate(counts)[np.repeat(starts - firsts, players) + np.arange(players.sum())]


def integer_game_counts(weights: list[np.ndarray], totals: np.ndarray, quotas: np.ndarray) -> np.ndarray:
    """`exact_indices`' swing counts of single-quota games, game after game:
    game g's integer ``weights[g]`` total ``totals[g]``, against
    ``quotas[g]``.  A game whose threshold is positive and that `engine_plan`
    puts on the grid in a stack is stacked (`_stacked_swings`); any other is
    built, and raises its errors (a game past every budget, the plan's)."""
    sizes = np.array([w.size for w in weights])
    thresholds = quotas - quota_tolerance(quotas, totals, True)
    grid = (engine_plan(sizes, 1, True, totals, stacked=True) == "subset-sum") & (thresholds > 0)
    stacked, counts = np.repeat(grid, sizes), np.empty(sizes.sum(), dtype=object)
    counts[stacked] = _stacked_swings([w for w, on in zip(weights, grid) if on], totals[grid], thresholds[grid])
    alone = [single_quota_game(w.tolist(), q) for w, q, on in zip(weights, quotas, grid) if not on]
    counts[~stacked] = [c for game in alone for c in exact_indices(game).swing_counts]
    return counts


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
    m = game.num_players
    denom = 1 << (m - 1)
    swings = _table_for(game, table).swing_counts(loads, strict=strict).tolist()
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


def association_study(game: VotingGame, seed: int, runs: int, table: CoalitionTable | None = None) -> np.ndarray:
    """The (runs, m) swing counts under ``random_association(m, seed + r)``,
    row ``r`` that of `exact_indices`, in stacks whose (n, m, m) draws fit
    `_STACK_BYTES`: a stack is drawn and checked as one array, loaded by one
    running sum over its (n * m, m) rows and counted by one ``table`` call (a
    new table when none is given).  A bad ``runs`` or ``seed`` is rejected
    before a table is built or a matrix drawn."""
    if not isinstance(runs, numbers.Integral) or isinstance(runs, bool) or runs <= 0:
        raise InvalidGameError(f"runs must be a positive integer, got {runs!r}")
    seeded_rng(seed)  # rejects a bad seed
    table = _table_for(game, table)
    m, k = game.num_players, game.num_dimensions
    step = max(1, _STACK_BYTES // (8 * m * m))
    counts = []
    for start in range(0, runs, step):
        draws = association_draws(m, seed + start, min(step, runs - start))
        check_association(draws)
        loads = load_sums(draws.reshape(-1, m), game.weight_matrix)
        counts.append(table.swing_counts(loads.reshape(-1, m, k)))
    return np.concatenate(counts)


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
