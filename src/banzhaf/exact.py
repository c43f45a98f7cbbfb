"""Exact swing counting over the split subset-sum table of a game.

The table splits the players into a low half of ``b`` players and a high
half of the rest, and holds per-dimension subset sums for each half
(``2^b`` and ``2^(m-b)`` floats per dimension).  Every coalition sum is
``high + low`` for one sum from each half, so it is the same float however
the coalitions are visited.  Swing counts are integers.

Single-quota games never visit coalitions one by one.  A player ``i`` with
removal load ``l`` swings a coalition of sum ``s`` when ``s >= t`` and
``s - l < t``; for a fixed high sum ``H`` both sides are monotone in the low
sum ``L`` (float ``H + L`` never decreases as ``L`` grows), so once the low
sums are sorted the winning coalitions of each high block are a suffix and
those the removal breaks a prefix.  Each edge is one search per high sum
for where the removal stops breaking the quota, and the winning edge is the
same search at load 0 (``s - 0.0 < t`` is ``s < t`` for every float):
`np.searchsorted` guesses it and the kernel in `banzhaf.games` itself
corrects it over runs of equal sums, so the counts are the enumerator's to
the bit (the Horowitz-Sahni split applied to power indices; Klinz &
Woeginger 2005, Matsui & Matsui 2000).  A high-half player then counts the
width of the window in the blocks that hold it.  A low-half player counts
its members in the window as the difference of two prefix counts of its
membership bit in sorted order, each a binary search among the sorted
positions of its members; those positions are found for a byte-bounded
group of players at a time.  Memory grows as ``2^(m/2)``, so these games
split evenly above 32 players and are capped where a count outgrows a
stated budget.

Games with several quotas have no such order, and enumerate the ``2^(m-b)``
high blocks, every one of the ``2^m`` coalitions once.  Only winning
coalitions can be swung, and in games like the EU Council few of them win,
so the enumeration compacts each block's winners (their sums and membership
bits) and counts over those alone.  When all of a boundary convention's
winners fit in one block's sum arrays (``2^b * k * 8`` bytes), the first
scan caches them and later scans, one per load matrix, read only the cache;
larger sets are enumerated and compacted afresh by each scan.  The comparisons
themselves (``s >= t`` to win, ``s - l < t`` to break, under either boundary
convention's thresholds) live in `banzhaf.games`, which every engine shares.
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
# A single-quota table keeps about 28 bytes per entry of its larger half (the
# low sums, their sorted copy and uint32 order, and the high sums), and a count
# adds up to about 72 more for one player's bounds and member positions (86
# in all measured at 32 and 36 players).  The cap keeps that within
# _SORTED_TABLE_BYTES.
_SORTED_TABLE_BYTES = 128 << 20
_BYTES_PER_HALF_ENTRY = 100
_HALF_BITS_CAP = (_SORTED_TABLE_BYTES // _BYTES_PER_HALF_ENTRY).bit_length() - 1
SINGLE_QUOTA_PLAYER_CAP = 2 * _HALF_BITS_CAP
# The bounds and member positions of a group of players are built at once,
# up to this many bytes.
_GROUP_BYTES = 1 << 20
_INF = np.array([np.inf])


def _check_size(game: VotingGame, enumerates: bool = False) -> None:
    m = game.num_players
    if game.num_dimensions == 1 and not enumerates:  # a 2^m scan takes the enumerator's cap
        if m > SINGLE_QUOTA_PLAYER_CAP:
            mib = (_BYTES_PER_HALF_ENTRY << _HALF_BITS_CAP) >> 20
            raise InvalidGameError(
                f"exact counting of single-quota games is capped at "
                f"{SINGLE_QUOTA_PLAYER_CAP} players, where each half holds "
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
            stacklevel=3,
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
    """Split subset-sum table over a game's full coalition space.

    Building the table costs the one-off sum arrays; `swing_counts` can then
    be called repeatedly with different load matrices (for instance one call
    per sampled association matrix) without rebuilding them.  Single-quota
    games count on the sorted low half; games with several quotas enumerate
    the winning coalitions, and cache a boundary convention's winners when
    they fit the budget.
    """

    def __init__(self, game: VotingGame, block_bits: int | None = None):
        _check_size(game)
        self.game = game
        m = game.num_players
        if block_bits is None:
            # above the enumerator's cap only single-quota games remain, split evenly
            block_bits = _DEFAULT_BLOCK_BITS if m <= HARD_PLAYER_CAP else (m + 1) // 2
        b = min(m, block_bits)
        if b < 1:
            raise InvalidGameError("block_bits must be at least 1")
        self.low_bits = b
        self.high_bits = m - b
        W = game.weight_matrix
        self.low_sums = subset_sums(W[:b])
        self.high_sums = subset_sums(W[b:])
        # thresholds -> (sums, members) of every winning coalition, for the
        # conventions whose winners fit the budget of `winner_blocks`
        self._winning_sets: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}

    @cached_property
    def _order(self) -> np.ndarray:
        """The low-half coalition masks in ascending order of their sums,
        sorted on the first single-quota count (`winner_blocks` never reads it)."""
        return np.argsort(self.low_sums[0]).astype(np.uint32)

    @cached_property
    def _padded(self) -> np.ndarray:
        """The low sums in ascending order between -inf and +inf."""
        return np.concatenate((-_INF, self.low_sums[0][self._order], _INF))

    def swing_counts(self, loads: np.ndarray, strict: bool = False) -> np.ndarray:
        """Count, per player, the coalitions the player swings.

        ``loads`` is the (m, k) matrix of removal loads.
        """
        thresholds = self.game.thresholds(strict)
        if self.game.num_dimensions == 1:
            return self._sorted_swing_counts(loads, thresholds)
        return self._enumerated_swing_counts(loads, thresholds)

    def criticality_gain_loss(
        self,
        player: int,
        base_loads: np.ndarray,
        alt_loads: np.ndarray,
    ) -> tuple[int, int]:
        """Coalitions where ``alt`` loads make the player critical but
        ``base`` loads do not (gain), and vice versa (loss)."""
        if self.game.num_dimensions == 1:
            return self._sorted_gain_loss(player, base_loads, alt_loads)
        return self._enumerated_gain_loss(player, base_loads, alt_loads)

    # -- single quota: bounds on the sorted low half -------------------------

    def _break_bounds(
        self, loads: np.ndarray, thresholds: tuple[float, ...], floor: np.ndarray | int
    ) -> np.ndarray:
        """(g, 2^(m-b)) first sorted low index where removing each of the g
        ``loads`` stops breaking the quota, raised to at least ``floor``; at
        load 0, the first index whose coalition wins.

        `np.searchsorted` guesses each index, and the kernel's verdicts
        correct it by whole runs of equal sums, which share one verdict,
        until the run before it breaks and the run at it does not; the
        ``-inf`` and ``+inf`` that pad the sums break and hold for every
        load."""
        high, loads = self.high_sums[0], loads[:, None]
        padded, sorted_sums = self._padded, self._padded[1:-1]
        p = sorted_sums.searchsorted((thresholds[0] + loads) - high)
        while True:
            before, here = padded[p], padded[p + 1]
            back = ~removal_breaks((high + before,), (loads,), thresholds)
            ok = ~removal_breaks((high + here,), (loads,), thresholds)
            if ok.all() and not back.any():
                return np.maximum(p, floor)
            p = np.where(back, sorted_sums.searchsorted(before, "left"), p)
            p = np.where(ok, p, sorted_sums.searchsorted(here, "right"))

    def _members_between(self, players: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Per row of ``start`` and ``stop``, how many coalitions holding
        that row's player lie at sorted low indices ``[start, stop)`` of every
        high block.  The rows pair with ``players``, which sit in one half;
        a single row or a single player serves every row."""
        b = self.low_bits
        if players[0] >= b:  # a high block holds the player or not
            width = stop - start
            players = np.broadcast_to(players, width.shape[:1])
            return np.array(
                [row.reshape(-1, 2, 1 << (i - b))[:, 1].sum() for row, i in zip(width, players)]
            )
        # A low player's members before sorted index x number as many as its
        # member positions below x.  Row r's positions are offset by r * n,
        # so one sorted array serves every row.
        n = self._order.size
        member = (self._order & (np.uint32(1) << players)[:, None]) != 0
        positions = member.reshape(-1).nonzero()[0]
        offset = np.arange(0, players.size * n, n)[:, None]
        inside = positions.searchsorted(stop + offset) - positions.searchsorted(start + offset)
        return inside.sum(axis=1)

    def _sorted_swing_counts(self, loads: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
        m, b = self.game.num_players, self.low_bits
        loads = np.asarray(loads)
        lo = self._break_bounds(np.zeros(1), thresholds, 0)[0]
        # a player's bounds cost about 64 bytes per high sum, and a low
        # player's member positions about 10 more per low sum
        bounds_bytes = 64 * self.high_sums.shape[1]
        counts = np.zeros(m, dtype=np.int64)
        for first, end, per_player in (
            (0, b, bounds_bytes + 10 * self.low_sums.shape[1]),
            (b, m, bounds_bytes),
        ):
            step = max(1, _GROUP_BYTES // per_player)
            for group in range(first, end, step):
                stop = min(end, group + step)
                hi = self._break_bounds(loads[group:stop, 0], thresholds, lo)
                players = np.arange(group, stop, dtype=np.uint32)
                counts[group:stop] = self._members_between(players, lo[None, :], hi)
        return counts

    def _sorted_gain_loss(self, player: int, base_loads: np.ndarray, alt_loads: np.ndarray):
        thresholds = self.game.winning_thresholds
        lo = self._break_bounds(np.zeros(1), thresholds, 0)[0]
        base, alt = self._break_bounds(np.array([base_loads[0], alt_loads[0]]), thresholds, lo)
        top = np.maximum(base, alt)
        players = np.array([player], dtype=np.uint32)
        gain, loss = self._members_between(players, np.stack([base, alt]), top[None, :])
        return int(gain), int(loss)

    # -- several quotas: enumeration ----------------------------------------

    def _compact(self, h: int, sums: np.ndarray, win: np.ndarray, n: int):
        """Sums and membership rows of block ``h``'s ``n`` winning coalitions."""
        b, m = self.low_bits, self.game.num_players
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
        rest, and a set that fits is cached and yielded whole.
        """
        cached = self._winning_sets.get(thresholds)
        if cached is not None:
            yield cached
            return
        m, k = self.game.num_players, self.game.num_dimensions
        # A compacted winner costs 8k bytes of sums and m of membership.  The
        # budget is one block's sum arrays, which the scan holds anyway.
        room = ((1 << self.low_bits) * k * 8) // (k * 8 + m)
        # an empty part first, so that a convention nothing wins caches an empty set
        held = [(np.empty((k, 0)), np.empty((m, 0), dtype=bool))]
        for h in range(1 << self.high_bits):
            sums = self.high_sums[:, h : h + 1] + self.low_sums
            win = sums_win(sums, thresholds)
            n = int(np.count_nonzero(win))
            if not n:
                continue
            part = self._compact(h, sums, win, n)
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

    def _enumerated_swing_counts(self, loads: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
        counts = np.zeros(self.game.num_players, dtype=np.int64)
        for sums, members in self.winner_blocks(thresholds):
            for i, member in enumerate(members):
                breaks = removal_breaks(sums, loads[i], thresholds)
                counts[i] += int(np.count_nonzero(member & breaks))
        return counts

    def _enumerated_gain_loss(self, player: int, base_loads: np.ndarray, alt_loads: np.ndarray):
        thresholds = self.game.winning_thresholds
        gain = loss = 0
        for sums, members in self.winner_blocks(thresholds):
            member = members[player]
            base = member & removal_breaks(sums, base_loads, thresholds)
            alt = member & removal_breaks(sums, alt_loads, thresholds)
            gain += int(np.count_nonzero(alt & ~base))
            loss += int(np.count_nonzero(base & ~alt))
        return gain, loss


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
