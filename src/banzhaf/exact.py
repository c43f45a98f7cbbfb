"""Exact swing counting by full enumeration of the coalition space.

The enumerator materialises per-dimension subset sums for the low ``b`` bits
of the coalition mask once (``2^b`` floats per dimension) and streams over
the ``2^(m-b)`` high-bit blocks, so memory stays bounded while every one of
the ``2^m`` coalitions is visited exactly once.  Swing counts are integers,
accumulated per block.

Only winning coalitions can be swung, and in games like the EU Council few
of them win.  Before its first scan under a boundary convention, the table
decides whether to cache that convention's winners: it compacts their sums
and membership bits block by block, and keeps them if they fit in one
block's sum arrays (``2^b * k * 8`` bytes), memory the streaming scan holds
anyway.  Each scan, one per load matrix, then reads only the cached winners.
At the first block past the budget it stops, drops what it has compacted
(at most one budget's worth of work) and marks the convention as streamed:
its scans visit every block.  Both paths use the same sums and comparisons,
so their counts are identical.  The comparisons themselves (``s >= t`` to
win, ``s - l < t`` to break, under either boundary convention's thresholds)
live in `banzhaf.games`, which every engine shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    removal_breaks,
    removal_loads,
    require_single_quota,
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

HARD_PLAYER_CAP = 32
SOFT_PLAYER_WARNING = 26
_DEFAULT_BLOCK_BITS = 16


def _check_size(game: VotingGame) -> None:
    m = game.num_players
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
    """Blocked subset-sum table over a game's full coalition space.

    Building the table costs the one-off sum arrays; `swing_counts` can then
    be called repeatedly with different load matrices (for instance one call
    per sampled association matrix) without re-enumerating.  Each boundary
    convention's winning coalitions are compacted once, when they fit the
    budget, and its scans then read only those.
    """

    def __init__(self, game: VotingGame, block_bits: int | None = None):
        _check_size(game)
        self.game = game
        m = game.num_players
        b = min(m, _DEFAULT_BLOCK_BITS if block_bits is None else block_bits)
        if b < 1:
            raise InvalidGameError("block_bits must be at least 1")
        self.low_bits = b
        self.high_bits = m - b
        W = game.weight_matrix
        self.low_sums = self._subset_sums(W[:b])
        self.high_sums = self._subset_sums(W[b:])
        # thresholds -> (sums, members) of every winning coalition, or None
        # when they outgrow the budget; absent until `_winning_set` decides
        self._winning_sets: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray] | None] = {}

    @staticmethod
    def _subset_sums(weights: np.ndarray) -> np.ndarray:
        """(k, 2^n) sums over every subset of the n rows of ``weights``."""
        n, k = weights.shape
        sums = np.zeros((k, 1 << n), dtype=np.float64)
        for i in range(n):
            lo = 1 << i
            sums[:, lo : lo << 1] = sums[:, :lo] + weights[i][:, None]
        return sums

    @cached_property
    def low_member(self) -> np.ndarray:
        """Membership masks over the low block, one bool row per low player;
        only the streaming scan needs them."""
        idx = np.arange(1 << self.low_bits, dtype=np.uint32)
        member = np.empty((self.low_bits, idx.size), dtype=bool)
        for i in range(self.low_bits):
            member[i] = (idx >> i) & 1
        return member

    def _block_sums(self, h: int) -> np.ndarray:
        return self.high_sums[:, h : h + 1] + self.low_sums

    def _compact(self, h: int, sums: np.ndarray, win: np.ndarray):
        """Sums and membership rows of block ``h``'s winning coalitions."""
        coalitions = np.flatnonzero(win).astype(np.uint32) | np.uint32(h << self.low_bits)
        bits = coalitions >> np.arange(self.game.num_players, dtype=np.uint32)[:, None]
        bits &= 1
        return np.compress(win, sums, axis=1), bits.astype(bool)  # C order: contiguous rows

    def _winning_set(self, thresholds: tuple[float, ...]):
        """``(sums, members)`` of every winning coalition under ``thresholds``,
        or None once the blocks compacted in order overflow the budget;
        decided once per convention."""
        if thresholds in self._winning_sets:
            return self._winning_sets[thresholds]
        m, k = self.game.num_players, self.game.num_dimensions
        # A compacted winner costs 8k bytes of sums and m of membership.  The
        # budget is one block's sum arrays, which the streaming scan holds anyway.
        room = ((1 << self.low_bits) * k * 8) // (k * 8 + m)
        parts = [(np.empty((k, 0)), np.empty((m, 0), dtype=bool))]
        for h in range(1 << self.high_bits):
            sums = self._block_sums(h)
            win = sums_win(sums, thresholds)
            n = int(np.count_nonzero(win))
            if n > room:
                self._winning_sets[thresholds] = None
                return None
            room -= n
            if n:
                parts.append(self._compact(h, sums, win))
        winners = tuple(np.concatenate(p, axis=1) for p in zip(*parts))
        self._winning_sets[thresholds] = winners
        return winners

    def _winners_by_player(self, thresholds: tuple[float, ...], players: Sequence[int]):
        """Yield ``(i, sums, member)`` over groups of winning coalitions:
        ``sums`` per dimension, and the mask of those that player ``i`` of
        ``players`` belongs to.

        Reads the cached winning set when there is one, and otherwise
        streams the blocks that hold any of ``players``.
        """
        winners = self._winning_set(thresholds)
        if winners is not None:
            sums, members = winners
            yield from ((i, sums, members[i]) for i in players)
            return
        b = self.low_bits
        for h in range(1 << self.high_bits):
            present = [i for i in players if i < b or (h >> (i - b)) & 1]
            if not present:
                continue
            sums = self._block_sums(h)
            win = sums_win(sums, thresholds)
            if not win.any():
                continue
            for i in present:
                yield i, sums, (win & self.low_member[i]) if i < b else win

    def swing_counts(self, loads: np.ndarray, strict: bool = False) -> np.ndarray:
        """Count, per player, the coalitions the player swings.

        ``loads`` is the (m, k) matrix of removal loads.
        """
        m = self.game.num_players
        thresholds = self.game.thresholds(strict)
        counts = np.zeros(m, dtype=np.int64)
        for i, sums, member in self._winners_by_player(thresholds, range(m)):
            breaks = removal_breaks(sums, loads[i], thresholds)
            counts[i] += int(np.count_nonzero(member & breaks))
        return counts

    def criticality_gain_loss(
        self,
        player: int,
        base_loads: np.ndarray,
        alt_loads: np.ndarray,
    ) -> tuple[int, int]:
        """Coalitions where ``alt`` loads make the player critical but
        ``base`` loads do not (gain), and vice versa (loss)."""
        thresholds = self.game.winning_thresholds
        gain = loss = 0
        for _, sums, member in self._winners_by_player(thresholds, (player,)):
            base = member & removal_breaks(sums, base_loads, thresholds)
            alt = member & removal_breaks(sums, alt_loads, thresholds)
            gain += int(np.count_nonzero(alt & ~base))
            loss += int(np.count_nonzero(base & ~alt))
        return gain, loss


def _make_report(game: VotingGame, mode: str, counts: np.ndarray) -> IndexReport:
    m = game.num_players
    denom = 1 << (m - 1)
    total = int(counts.sum())
    absolute = tuple(int(c) / denom for c in counts)
    if total:
        normalized = tuple(int(c) / total for c in counts)
    else:
        normalized = (0.0,) * m
    return IndexReport(
        player_ids=game.player_ids,
        mode=mode,
        swing_counts=tuple(int(c) for c in counts),
        absolute=absolute,
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
    prebuilt ``table`` recycles the enumeration arrays across calls.
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
