"""Independent reference implementations the engine tests compare against.

Everything here is deliberately naive: per-pair predicate loops and
arbitrary-precision arithmetic, no shared code with the vectorized engines
beyond the game-core predicates themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from banzhaf.games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    coalition_members,
    coalition_size,
    coalition_weight,
    is_critical_assoc,
    is_critical_classical,
    is_winning,
    removal_breaks,
    removal_edges,
    seeded_rng,
    single_quota_game,
    sums_win,
)
from banzhaf.data import RandomGameSpec, random_game
from banzhaf.bounds import ConjectureReport, conjecture_check
from banzhaf.exact import engine_plan


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


def loop_load(game: VotingGame, phi: AssociationMatrix, i: int, coalition: int) -> list[float]:
    """Player ``i``'s persuasion load over the members of ``coalition`` only,
    one product at a time in player order from 0.0: `is_critical_assoc`'s
    ``members_only`` load as it was written out before the shared load sum.
    Over the full coalition it is the whole-game load."""
    k = game.num_dimensions
    arow = phi.entries[i]
    load = [0.0] * k
    for j in coalition_members(coalition):
        for d in range(k):
            load[d] += arow[j] * game.weights[j][d]
    return load


def coalition_sums(game: VotingGame, c: int, split: int | None = None) -> tuple[float, ...]:
    """The sums of coalition ``c``, added in player order; with ``split``, its
    members below ``split`` and the others are summed apart and then added,
    the order in which an engine's low and high halves add them."""
    if split is None:
        return coalition_weight(game, c)
    low = coalition_weight(game, c & ((1 << split) - 1))
    return tuple(h + l for h, l in zip(coalition_weight(game, c >> split << split), low))


def winning_coalitions(
    game: VotingGame, strict: bool = False, split: int | None = None
) -> list[tuple[int, tuple[float, ...]]]:
    """``(coalition, sums)`` of every coalition that wins under the given
    convention, summed one coalition at a time (`coalition_sums`)."""
    thresholds = game.thresholds(strict)
    out = []
    for c in range(1 << game.num_players):
        sums = coalition_sums(game, c, split)
        if sums_win(sums, thresholds):
            out.append((c, sums))
    return out


def naive_stack_swings(winners, load_matrices, thresholds) -> list[list[int]]:
    """Per load matrix, per player, the ``winners`` (from
    `winning_coalitions` under ``thresholds``) that removing its row of the
    matrix breaks."""
    rows = [np.asarray(loads).tolist() for loads in load_matrices]
    counts = [[0] * len(loads) for loads in rows]
    for c, sums in winners:
        for i in coalition_members(c):
            for loads, row_counts in zip(rows, counts):
                row_counts[i] += bool(removal_breaks(sums, loads[i], thresholds))
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


def dp_load_swings(game: VotingGame, load_matrices, strict: bool = False) -> list[list[int]]:
    """Per load matrix, per player of a single-quota game with integer
    weights, the winning coalitions that removing its load breaks.

    Each player's other players are counted by sum afresh, by a dynamic
    program over Python ints that adds one player at a time, and every sum
    ``s`` of a coalition holding the player is tested with the kernel.  It
    costs about m^2 W additions and shares nothing with the engine's prefix
    counts; its counts are exact however large."""
    weights = [int(w) for (w,) in game.weights]
    thresholds = game.thresholds(strict)
    load_rows = [np.asarray(loads).tolist() for loads in load_matrices]
    out = [[] for _ in load_rows]
    for i, own in enumerate(weights):
        counts = [1]  # counts[s]: subsets of the others summing to s
        for j, w in enumerate(weights):
            if j != i:
                counts = [a + b for a, b in zip(counts + [0] * w, [0] * w + counts)]
        sums = [((float(s),), n) for s, n in enumerate(counts, own) if n]
        winners = [(s, n) for s, n in sums if sums_win(s, thresholds)]
        for rows, row_counts in zip(load_rows, out):
            row_counts.append(sum(n for s, n in winners if removal_breaks(s, rows[i], thresholds)))
    return out


def pushing_association(m: int) -> AssociationMatrix:
    """Association where every player pushes every other back: most
    persuasion loads are negative."""
    a = -np.ones((m, m))
    np.fill_diagonal(a, 1.0)
    return AssociationMatrix(tuple(map(tuple, a.tolist())))


def loads_at(edges, thresholds) -> list[float]:
    """Per dimension, a load whose break edge under the threshold is exactly
    ``edges[d]`` (found from ``v - t`` by one-ulp steps)."""
    loads = []
    for v, t in zip(edges, thresholds):
        load = v - t
        for _ in range(8):
            edge = removal_edges(np.array([load]), [t])[0]
            if edge == v:
                break
            load = np.nextafter(load, np.inf if edge < v else -np.inf)
        assert edge == v
        loads.append(load)
    return loads


def boundary_loads(game: VotingGame, strict: bool, top) -> np.ndarray:
    """An (m, k) load matrix on the enumerator's shortcuts under one
    convention's thresholds t, a row per player in turn: break edges at t
    (a dead quota) or one ulp above it, at the full coalition's sums ``top``
    (t where no coalition reaches it) or one ulp above them (an entry that
    breaks every winner), three mixes across dimensions, then loads all <= 0
    and loads of the largest float (edges of +inf)."""
    t, k = np.array(game.thresholds(strict)), game.num_dimensions
    top = np.maximum(top, t)
    first = np.arange(k) == 0
    up = np.nextafter(t, np.inf), np.nextafter(top, np.inf)
    edges = [t, up[0], top, up[1], np.where(first, up[0], t), np.where(first, t, up[1]), np.where(first, top, up[0])]
    rows = [loads_at(v, t) for v in edges] + [np.resize([-2.5, -0.0, 0.0], k), np.full(k, np.finfo(float).max)]
    return np.array([rows[(i + 3 * strict) % len(rows)] for i in range(game.num_players)])


# -- earlier step-by-step versions of edges now found by one search ----------


def loop_ht_profile(game: VotingGame, i: int) -> tuple[int, int | None]:
    """``bounds.ht_profile`` as hand-walked loops: t grows the player's sum by
    the smallest other weights while it stays below the winning threshold,
    and h adds the largest ones until they pass the quota."""
    w = [row[0] for row in game.weights]
    q, lose = game.quotas[0], game.winning_thresholds[0]
    others = sorted(w[:i] + w[i + 1 :])
    t = 0
    acc = w[i]
    if acc < lose:
        t = 1
        for v in others:
            if acc + v < lose:
                acc += v
                t += 1
            else:
                break
    h = None
    acc = 0.0
    for count, v in enumerate(reversed(others), start=1):
        acc += v
        if acc > q:
            h = count
            break
    return t, h


def loop_size_window(game: VotingGame) -> tuple[int, int | float]:
    """``bounds.size_window`` as a division's guess stepped up and then down
    until each size test flips."""
    w = [row[0] for row in game.weights]
    q, lose = game.quotas[0], game.winning_thresholds[0]
    w_max, w_min = max(w), min(w)
    if w_max == 0.0:
        m_low = game.num_players
    else:
        m_low = max(0, math.ceil(lose / w_max) - 1)
        while (m_low + 1) * w_max < lose:
            m_low += 1
        while m_low > 0 and not m_low * w_max < lose:
            m_low -= 1
    if w_min == 0.0:
        m_high = math.inf
    else:
        m_high = math.floor((q + w_max) / w_min) + 1
        while not (m_high * w_min - w_max > q):
            m_high += 1
        while m_high > 1 and (m_high - 1) * w_min - w_max > q:
            m_high -= 1
    return m_low, m_high


def loop_win_bounds(scanned: np.ndarray, padded: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
    """Per sum of one half of a single-quota table, ``scanned``, the first
    index among the other half's sorted sums (``padded`` between -inf and
    +inf) whose coalition wins, searched with ``sums_win`` itself rather than
    as the break edge at load 0: a `searchsorted` guess, corrected by whole
    runs of equal sums until the run before it loses and the run at it wins."""
    sorted_sums = padded[1:-1]
    p = sorted_sums.searchsorted(thresholds[0] - scanned)
    while True:
        before, here = padded[p], padded[p + 1]
        back, ok = sums_win((scanned + before,), thresholds), sums_win((scanned + here,), thresholds)
        if ok.all() and not back.any():
            return p
        p = np.where(back, sorted_sums.searchsorted(before, "left"), p)
        p = np.where(ok, p, sorted_sums.searchsorted(here, "right"))


# -- the all-critical scan before it read the coalition table's winners ------


def loop_all_critical_check(game: VotingGame, coalition: int) -> str:
    """``bounds.all_critical_weight_check`` as it was written before the shared
    kernel: the coalition summed on its own and every member removed in turn."""
    sums = coalition_weight(game, coalition)
    t = game.winning_thresholds
    if not sums_win(sums, t):
        raise InvalidGameError("all_critical_weight_check needs a winning coalition")
    size = coalition_size(coalition)
    if size < 2:
        return "not-applicable"
    if not all(removal_breaks(sums, game.weights[i], t) for i in coalition_members(coalition)):
        return "not-applicable"
    return "holds" if sums[0] < size * game.quotas[0] / (size - 1) else "violated"


def loop_all_critical_scan(game: VotingGame) -> tuple[int, list[int]]:
    """``bounds.scan_all_critical_coalitions`` as a loop over every coalition
    mask, each tested with `is_winning` and `loop_all_critical_check`."""
    checked = 0
    violations = []
    for c in range(1, 1 << game.num_players):
        if not is_winning(game, c):
            continue
        verdict = loop_all_critical_check(game, c)
        if verdict == "not-applicable":
            continue
        checked += 1
        if verdict == "violated":
            violations.append(c)
    return checked, violations


# -- the sampler's earlier summation, kept as its parity reference ------------


def matmul_swing_count(game: VotingGame, i: int, load_row, n: int, seed: int) -> int:
    """Player ``i``'s sampled swing count, each coalition summed as the sampler
    did before its byte tables: the random words unpacked into a float64 0/1
    membership block of at most 4 MiB per chunk, then ``block @ W``."""
    m = game.num_players
    W = game.weight_matrix
    thresholds = game.winning_thresholds
    rng = seeded_rng(seed, i)
    words = (m + 63) // 64
    members = np.empty((max(1, min(n, (4 << 20) // (8 * m))), m), dtype=np.float64)
    swings = 0
    done = 0
    while done < n:
        chunk = min(len(members), n - done)
        raw = rng.integers(0, 2**64, size=(chunk, words), dtype=np.uint64)
        block = members[:chunk]
        # little-endian bytes, low bit first: column j is bit j % 64 of word j // 64
        np.copyto(
            block,
            np.unpackbits(
                raw.astype("<u8", copy=False).view(np.uint8), axis=1, count=m, bitorder="little"
            ),
        )
        block[:, i] = 1.0
        sums = (block @ W).T
        swings += int(
            np.count_nonzero(sums_win(sums, thresholds) & removal_breaks(sums, load_row, thresholds))
        )
        done += chunk
    return swings


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


def parity_games(count: int, seed: int, max_players: int) -> list[VotingGame]:
    """Seeded single-quota games for comparing a search with the loop it
    replaced: integer, non-integer and zero-heavy weights, quotas from 1% to
    300% of the total (half of them whole numbers, where integer sums tie
    with the quota), and the quota ``0.30000000000000004 * 10``, which a sum
    of 3 meets only through the boundary tolerance."""
    rng = np.random.Generator(np.random.Philox(seed))
    tolerance_quota = 0.30000000000000004 * 10
    games = [
        single_quota_game([1, 1, 1], tolerance_quota),
        single_quota_game([1, 1, 1, 7], tolerance_quota),
        single_quota_game([0.5, 1, 1.5, 0, 2], tolerance_quota),
    ]
    for trial in range(count):
        m = int(rng.integers(1, max_players + 1))
        kind = trial % 3
        if kind == 0:
            weights = rng.integers(1, 30, size=m).astype(float)
        elif kind == 1:
            weights = rng.uniform(0.0, 10.0, size=m)
        else:  # about a quarter zeros, on an integer or a 0.3 grid
            weights = rng.integers(0, 4, size=m) * rng.choice([1.0, 0.3])
        total = float(weights.sum())
        fraction = math.exp(rng.uniform(math.log(0.01), math.log(3.0)))  # log-uniform
        quota = total * fraction if total else float(rng.uniform(0.1, 5.0))
        if rng.random() < 0.5:
            quota = max(1.0, float(round(quota)))
        games.append(single_quota_game(weights.tolist(), quota))
    return games


def loop_conjecture_scan(trials: int, seed: int, spec: RandomGameSpec) -> ConjectureReport:
    """`conjecture_scan` as one `conjecture_check` call per trial, each
    counting its game with `exact_indices`."""
    counterexamples, min_slack = [], math.inf
    for trial in range(trials):
        found, slack = conjecture_check(random_game(seeded_rng(seed, trial), spec))
        counterexamples.extend(found)
        min_slack = min(min_slack, slack)
    return ConjectureReport(trials, tuple(counterexamples), min_slack, seed)


def planned(game: VotingGame, stacked: bool = False) -> str:
    """The engine `exact.engine_plan` gives ``game``, for a table of its own or in a stack."""
    return engine_plan(game.num_players, game.num_dimensions, all(game.integral_dimensions),
                       max(game.dimension_totals), stacked=stacked)
