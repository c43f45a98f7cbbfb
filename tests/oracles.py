"""Independent reference implementations the engine tests compare against.

Everything here is deliberately naive: per-pair predicate loops and
arbitrary-precision arithmetic, no shared code with the vectorized engines
beyond the game-core predicates themselves.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from banzhaf.games import (
    AssociationMatrix,
    VotingGame,
    coalition_members,
    coalition_weight,
    is_critical_assoc,
    is_critical_classical,
    removal_breaks,
    sums_win,
)
from banzhaf.data import RandomGameSpec, random_game


def naive_swing_counts(game: VotingGame, phi: AssociationMatrix | None = None) -> list[int]:
    """Count swings by testing every (player, coalition) pair one at a time."""
    m = game.num_players
    counts = [0] * m
    for c in range(1, 1 << m):
        for i in coalition_members(c):
            if phi is None:
                crit = is_critical_classical(game, i, c)
            else:
                crit = is_critical_assoc(game, phi, i, c)
            if crit:
                counts[i] += 1
    return counts


def winning_coalitions(game: VotingGame, strict: bool = False) -> list[tuple[int, tuple[float, ...]]]:
    """``(coalition, sums)`` of every coalition that wins under the given
    convention, summed one coalition at a time."""
    thresholds = game.thresholds(strict)
    out = []
    for c in range(1 << game.num_players):
        sums = coalition_weight(game, c)
        if sums_win(sums, thresholds):
            out.append((c, sums))
    return out


def naive_load_swings(game: VotingGame, loads, strict: bool = False) -> list[int]:
    """Per player, the winning coalitions that removing its row of ``loads``
    breaks, under either convention."""
    thresholds = game.thresholds(strict)
    loads = np.asarray(loads).tolist()
    counts = [0] * game.num_players
    for c, sums in winning_coalitions(game, strict):
        for i in coalition_members(c):
            counts[i] += bool(removal_breaks(sums, loads[i], thresholds))
    return counts


def naive_gain_loss(winners, base_loads, alt_loads, thresholds) -> list[tuple[int, int]]:
    """Per player, the ``winners`` (from `winning_coalitions`) where removing
    its ``alt_loads`` row breaks a quota and its ``base_loads`` row does not
    (gain), and the reverse (loss)."""
    base_loads, alt_loads = np.asarray(base_loads).tolist(), np.asarray(alt_loads).tolist()
    gain, loss = [0] * len(base_loads), [0] * len(base_loads)
    for c, sums in winners:
        for i in coalition_members(c):
            base = removal_breaks(sums, base_loads[i], thresholds)
            alt = removal_breaks(sums, alt_loads[i], thresholds)
            gain[i] += alt and not base
            loss[i] += base and not alt
    return list(zip(gain, loss))


def naive_absolute(game: VotingGame, phi: AssociationMatrix | None = None) -> list[float]:
    denom = 1 << (game.num_players - 1)
    return [c / denom for c in naive_swing_counts(game, phi)]


def fraction_global_bounds(n: int, m_low: int, top: int) -> tuple[Fraction, Fraction]:
    """The two game-level bounds as exact rationals, built from a Pascal
    triangle rather than math.comb."""
    pascal = [[1]]
    for r in range(1, n + 1):
        prev = pascal[-1]
        pascal.append([1] + [prev[j - 1] + prev[j] for j in range(1, r)] + [1])
    comb = pascal[n]
    csum = sum(comb[i] for i in range(m_low + 1, top + 1))
    isum = sum(i * comb[i] for i in range(m_low + 1, top + 1))
    total = 2**n
    bound1 = Fraction(csum - 2 ** (n - 1), total)
    bound2 = Fraction(isum, n * total) - Fraction(1, 2)
    return bound1, bound2


def corpus(
    count: int,
    seed: int,
    max_players: int = 10,
    with_phi: bool = False,
) -> list[tuple[VotingGame, AssociationMatrix | None]]:
    """Deterministic list of random games, optionally each with a random
    association matrix drawn from the same stream."""
    spec = RandomGameSpec(max_players=max_players)
    out = []
    for trial in range(count):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
        )
        game = random_game(rng, spec)
        phi = None
        if with_phi:
            m = game.num_players
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            np.fill_diagonal(a, 1.0)
            phi = AssociationMatrix(tuple(tuple(float(v) for v in row) for row in a))
        out.append((game, phi))
    return out
