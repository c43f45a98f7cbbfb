"""Combinatorial bounds on Banzhaf indices, with violation flagging.

These are diagnostic computations for single-quota games.  The per-player
bound excludes two coalition families that provably contain no swings (small
coalitions that cannot win even with the player, and large ones that stay
winning without it).  The two global bounds and the max-weight conjecture
are reported as computed, flagged when the exact indices contradict them;
several fail on small instances, and the point of this module is to say so
rather than to hide it.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .games import (
    InvalidGameError,
    VotingGame,
    coalition_weight,
    removal_breaks,
    require_same_players,
    require_single_quota,
    sums_win,
)
from . import exact, games
from .exact import SINGLE_QUOTA_PLAYER_CAP, CoalitionTable, IndexReport, exact_indices
from .data import RandomGameSpec, random_weight_rows

__all__ = [
    "BoundsReport",
    "GlobalBounds",
    "ConjectureReport",
    "ht_profile",
    "ht_bound",
    "size_window",
    "global_bounds",
    "bounds_report",
    "all_critical_weight_check",
    "scan_all_critical_coalitions",
    "conjecture_check",
    "conjecture_scan",
]


def ht_profile(game: VotingGame, player: int | str) -> tuple[int, int | None]:
    """The exclusion sizes (t, h) behind the per-player bound.

    t is the largest count such that the t smallest weights, with the player
    forced in, still lose: they sum below the winning threshold (0 when even
    the player alone wins).  h is the smallest count such that the h largest
    other weights sum strictly above the quota (None when none does).  Both
    running sums only grow, so each count is one binary search among them.
    """
    require_single_quota(game, "ht_profile")
    i = game.player_index(player)
    w = game.weight_matrix[:, 0].tolist()
    q = game.quotas[0]
    lose = game.winning_thresholds[0]  # below it a sum cannot win, tolerance included
    others = sorted(w[:i] + w[i + 1 :])
    t = bisect.bisect_left(list(accumulate(others, initial=w[i])), lose)
    tops = list(accumulate(reversed(others), initial=0.0))
    h = bisect.bisect_right(tops, q)
    return t, (h if h < len(tops) else None)


def ht_bound(game: VotingGame, player: int | str) -> float:
    """Upper bound on the player's absolute index from the (t, h) profile.

    Value is (2^n - 2^t - 2^(n-h)) / 2^n.  A term drops to 0 when its
    exclusion family is empty: the 2^(n-h) term when no h exists, and the
    2^t term when t = 0 (the player meets the quota alone, so no coalition
    is excluded and subtracting 2^0 would falsely shave the bound below an
    attainable index of 1).
    """
    return _profile_bound(game.num_players, *ht_profile(game, player))


def _profile_bound(n: int, t: int, h: int | None) -> float:
    """`ht_bound` of an n-player game from the player's (t, h) profile."""
    total = 1 << n
    excluded = 0
    if t >= 1:
        excluded += 1 << t
    if h is not None:
        excluded += 1 << (n - h)
    return (total - excluded) / total


# The search for a size edge near ``guess`` spans ``2 * (guess >> 48) + 4``
# sizes, a `range` whose length must fit a C ssize_t (below 2^63), so edges
# are searched below 2^109.
_SIZE_EDGE_LIMIT = 2.0**109


def _first_size(holds, estimate: float, ratio: str) -> int:
    """The smallest size k >= 1 where ``holds(k)``, false then true as k
    grows, is true.  ``estimate`` is where it flips in exact arithmetic, and
    rounding moves the flip by a few parts in 2^52, so the search spans 2^-48
    of it, plus 2, either side.  ``ratio`` names the quota-to-weight ratio
    that ``estimate`` is, for the error raised when it is too large."""
    if not estimate < _SIZE_EDGE_LIMIT:
        raise InvalidGameError(
            f"size window: the quota-to-weight ratio {ratio} = {estimate:.6g} "
            "is at or above 2^109; coalition sizes that far out are not searched"
        )
    guess = math.ceil(estimate)
    margin = (abs(guess) >> 48) + 2
    sizes = range(max(1, guess - margin), guess + margin)
    return sizes.start + bisect.bisect_left(sizes, True, key=holds)


def size_window(game: VotingGame) -> tuple[int, int | float]:
    """Coalition-size window (m_low, M_high) outside of which no swings live.

    m_low is the largest size at which even all-max-weight coalitions stay
    below the quota; M_high is the smallest size at which all-min-weight
    coalitions stay winning after losing a max-weight member (inf when the
    minimum weight is 0).  Read as: sizes <= m_low cannot win, sizes >=
    M_high cannot produce a swing.  "Below the quota" means below the
    winning threshold, boundary tolerance included, as in `ht_profile`.
    Each edge is one binary search over sizes with its float comparison.
    """
    require_single_quota(game, "size_window")
    w = game.weight_matrix[:, 0].tolist()
    q = game.quotas[0]
    lose = game.winning_thresholds[0]  # below it a sum cannot win
    w_max, w_min = max(w), min(w)
    if w_max == 0.0:
        m_low = game.num_players
    else:
        m_low = _first_size(lambda k: not k * w_max < lose, lose / w_max, "quota / max weight") - 1
    if w_min == 0.0:
        m_high: int | float = math.inf
    else:
        m_high = _first_size(
            lambda k: k * w_min - w_max > q, (q + w_max) / w_min, "(quota + max weight) / min weight"
        )
    return m_low, m_high


@dataclass(frozen=True)
class GlobalBounds:
    """The two game-level index bounds, with the window they derive from."""

    m_low: int
    M_high: float
    bound1: float
    bound2: float
    bound1_violated: bool | None
    bound2_violated: bool | None


def global_bounds(game: VotingGame, exact: IndexReport | None = None) -> GlobalBounds:
    """Evaluate both game-level bounds over the size window.

    bound1 = (sum_{i=m_low+1}^{min(M_high, n)} C(n, i) - 2^(n-1)) / 2^n and
    bound2 = (sum i*C(n, i)) / (n 2^n) - 1/2, computed in exact rational
    arithmetic.  Negative values are reported as-is.  When an exact index
    report is supplied, each bound is flagged violated if the max absolute
    index exceeds it.
    """
    require_single_quota(game, "global_bounds")
    n = game.num_players
    m_low, m_high = size_window(game)
    top = n if math.isinf(m_high) else min(int(m_high), n)
    total = 1 << n
    csum = sum(math.comb(n, i) for i in range(m_low + 1, top + 1))
    isum = sum(i * math.comb(n, i) for i in range(m_low + 1, top + 1))
    bound1 = float(Fraction(csum - (1 << (n - 1)), total))
    bound2 = float(Fraction(isum, n * total) - Fraction(1, 2))
    b1v = b2v = None
    if exact is not None:
        require_same_players(game, exact)
        peak = max(exact.absolute)
        b1v = peak > bound1
        b2v = peak > bound2
    return GlobalBounds(
        m_low=m_low,
        M_high=m_high,
        bound1=bound1,
        bound2=bound2,
        bound1_violated=b1v,
        bound2_violated=b2v,
    )


@dataclass(frozen=True)
class BoundsReport(GlobalBounds):
    """Per-player and game-level bound diagnostics for one game."""

    player_ids: tuple[str, ...]
    ht_bounds: tuple[float, ...]
    t_values: tuple[int, ...]
    h_values: tuple[int | None, ...]
    ht_violations: tuple[bool, ...] | None
    size_window_reading: str = "m_low read as largest size that cannot win; M_high literal"


def bounds_report(game: VotingGame, exact: IndexReport | None = None) -> BoundsReport:
    """Assemble every bound for the game, flagged against ``exact`` when given."""
    require_single_quota(game, "bounds_report")
    m = game.num_players
    profiles = [ht_profile(game, i) for i in range(m)]
    hts = tuple(_profile_bound(m, t, h) for t, h in profiles)
    ht_violations = None
    if exact is not None:
        ht_violations = tuple(a > b for a, b in zip(exact.absolute, hts))
    return BoundsReport(
        **vars(global_bounds(game, exact)),
        player_ids=game.player_ids,
        ht_bounds=hts,
        t_values=tuple(p[0] for p in profiles),
        h_values=tuple(p[1] for p in profiles),
        ht_violations=ht_violations,
    )


def _all_critical(game: VotingGame, sums: np.ndarray, members: np.ndarray):
    """Whether the all-critical cap applies to each winner of a block (two or
    more members, all critical) and whether it is violated.  Every member is
    critical iff the lightest is, because ``s - w`` cannot grow as ``w`` does."""
    lightest = np.where(members, game.weight_matrix, np.inf).min(axis=0)
    size = members.sum(axis=0)
    applies = (size >= 2) & removal_breaks(sums, (lightest,), game.winning_thresholds)
    return applies, applies & ~(sums[0] < size * game.quotas[0] / np.maximum(size - 1, 1))


def all_critical_weight_check(game: VotingGame, coalition: int) -> str:
    """Check the weight cap on winning coalitions whose members are all
    critical: w(C) < |C| q / (|C| - 1).

    Returns "holds" or "violated" when the cap applies (all members
    critical, at least two of them), "not-applicable" otherwise.  Losing
    coalitions are rejected.
    """
    require_single_quota(game, "all_critical_weight_check")
    sums = coalition_weight(game, coalition)
    if not sums_win(sums, game.winning_thresholds):
        raise InvalidGameError("all_critical_weight_check needs a winning coalition")
    members = np.array([[(coalition >> i) & 1] for i in range(game.num_players)], dtype=bool)
    applies, violated = _all_critical(game, np.array(sums)[:, None], members)
    return "not-applicable" if not applies[0] else "violated" if violated[0] else "holds"


def scan_all_critical_coalitions(game: VotingGame) -> tuple[int, list[int]]:
    """Apply the all-critical weight cap to every winning coalition.

    Returns the number of coalitions where the cap applied and the list of
    coalitions (as bitmasks) that violated it.  It reads an enumerating
    table's `CoalitionTable.winner_blocks`, so it costs 2^m and takes the
    enumeration's cap and warning from `exact.engine_plan`.  Up to 16 players
    the table's high half is empty, so its sums are `coalition_weight`'s to
    the bit; above, they are high plus low sums, as in the multi-quota
    enumeration, which are exact for integer weights.
    """
    require_single_quota(game, "scan_all_critical_coalitions")
    checked, violations = 0, []
    for sums, members in CoalitionTable(game, "enumeration").winner_blocks(game.winning_thresholds):
        applies, violated = _all_critical(game, sums, members)
        checked += int(np.count_nonzero(applies))
        violations += ((1 << np.arange(game.num_players)) @ members[:, violated]).tolist()
    return checked, violations


@dataclass(frozen=True)
class ConjectureReport:
    """Evidence from random games for the max-weight index cap.

    For each game the normalized index of every player is checked against
    2 w_max / w_total.  This reports evidence only; it asserts nothing.
    """

    games_scanned: int
    counterexamples: tuple[tuple[str, str, float, float], ...]
    min_slack: float
    seed: int


def _cap_check(weights: list[np.ndarray], totals: list, quotas: list, ids, normalized: np.ndarray):
    """`conjecture_check` on a batch of games at once: game g weighs ``weights[g]``, ``totals[g]``
    in all, against ``quotas[g]``; its players are ``ids``, and ``normalized`` holds all indices."""
    sizes = [len(w) for w in weights]
    firsts, rows = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)
    flat = np.concatenate(weights).astype(float)
    caps = 2.0 * np.maximum.reduceat(flat, firsts) / np.array(totals, dtype=float)
    over = np.flatnonzero(normalized > caps[rows])
    found = [(f"weights={flat[firsts[g] : firsts[g] + sizes[g]].tolist()} q={quotas[g]}", ids[e - firsts[g]],
              float(normalized[e]), float(caps[g])) for e, g in zip(over.tolist(), rows[over].tolist())]
    return found, float((caps[rows] - normalized).min())


def conjecture_check(
    game: VotingGame, report: IndexReport | None = None
) -> tuple[list[tuple[str, str, float, float]], float]:
    """Test every player's normalized index against the 2 w_max / w_total
    cap on one game, by the scan's rule.

    Returns the counterexamples, each as (game description, player id,
    normalized index, cap), and the min slack cap - index over players.
    """
    require_single_quota(game, "conjecture_check")
    total = game.dimension_totals[0]
    if total == 0:
        raise InvalidGameError(
            "conjecture_check: total weight is 0, so the 2 w_max / w_total cap is undefined"
        )
    if report is None:
        report = exact_indices(game)
    require_same_players(game, report)
    return _cap_check([game.weight_matrix[:, 0]], [total], game.quotas, game.player_ids, np.array(report.normalized))


# Trials are drawn and counted this many games at a time, so a scan's memory
# does not grow with its trial count.
_SCAN_WINDOW = 128


def _window_counts(seed: int, trials: range, spec: RandomGameSpec):
    """The trials' weights (`random_weight_rows`), totals and quotas, as `random_game` draws them (a
    float fraction times every total at once), and their swing counts (`exact.integer_game_counts`)."""
    rows = random_weight_rows(seed, trials, spec)
    sizes = np.array([w.size for w in rows])
    totals, q = np.add.reduceat(np.concatenate(rows), np.cumsum(sizes) - sizes), spec.quota_fraction
    with np.errstate(over="ignore"):
        quotas = (q * totals.astype(float) if isinstance(q, float)
                  else np.array([games.as_finite(q * t, "quotas[0]") for t in totals.tolist()]))
    if not np.isfinite(quotas).all():
        raise InvalidGameError("quotas[0]: not finite")  # `VotingGame`'s check
    return rows, totals, quotas, exact.integer_game_counts(rows, totals, quotas)


def conjecture_scan(
    trials: int,
    seed: int,
    spec: RandomGameSpec = RandomGameSpec(),
) -> ConjectureReport:
    """Exactly evaluate ``trials`` random games and test every player's
    normalized index against the 2 w_max / w_total cap.

    Each trial derives its own stream from (seed, trial index), so the
    report is identical for identical arguments regardless of evaluation
    order.  A window's trials are counted together, with a game object only
    for a trial that cannot be stacked (`exact.integer_game_counts`), to the
    reports of `conjecture_check` on each `random_game`.  Never asserts the cap.
    """
    if not isinstance(trials, numbers.Integral) or isinstance(trials, bool):
        raise InvalidGameError(f"trials must be an integer, got {trials!r}")
    if trials <= 0:
        raise InvalidGameError(f"trials must be positive, got {trials}")
    m, w = int(spec.max_players), int(spec.max_weight)
    try:  # every game fits an engine if the heaviest the spec can draw does
        exact.engine_plan(m, 1, True, m * w)
    except InvalidGameError:
        raise InvalidGameError(f"max_players above {SINGLE_QUOTA_PLAYER_CAP} needs every sum grid to fit its "
                               f"budget, but {m} players of weight {w} make {m * (m * w + 1)} cells") from None
    counterexamples: list[tuple[str, str, float, float]] = []
    min_slack = math.inf
    for start in range(0, trials, _SCAN_WINDOW):
        rows, totals, quotas, counts = _window_counts(seed, range(start, min(trials, start + _SCAN_WINDOW)), spec)
        sizes = [w.size for w in rows]
        # as `exact_indices` divides, in Python ints; a game with no swing has indices 0
        swings = np.repeat(np.maximum(np.add.reduceat(counts, np.cumsum(sizes) - sizes), 1), sizes)
        found, slack = _cap_check(rows, totals, quotas, [f"p{i + 1}" for i in range(m)], (counts / swings).astype(float))
        counterexamples.extend(found)
        min_slack = min(min_slack, slack)
    return ConjectureReport(
        games_scanned=trials,
        counterexamples=tuple(counterexamples),
        min_slack=min_slack,
        seed=seed,
    )
