"""Every engine of `exact._ENGINES` against the brute-force oracle.

A drawn game is counted by a table of every engine, named: an engine that
refuses the game raises `InvalidGameError`, and one that accepts it must
give the oracle's counts for one load matrix and for an (r, m, k) stack,
under both conventions, and the oracle's gain and loss; an engine that
stacks games must also give them through `exact.integer_game_counts`.  So a
new engine is one `_ENGINES` entry, which this test checks with no edit.
"""

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from banzhaf import exact
from banzhaf.data import random_association
from banzhaf.exact import CoalitionTable
from banzhaf.games import InvalidGameError, VotingGame, full_coalition, persuasion_loads, single_quota_game

from oracles import boundary_loads, coalition_sums, loads_at, naive_gain_loss, naive_stack_swings
from oracles import pushing_association, winning_coalitions

# a dimension's weights: integers, decimals of one or two places, or other floats
WEIGHTS = [st.integers(0, 9).map(float), st.integers(0, 30).map(lambda n: n / 10),
           st.integers(0, 300).map(lambda n: n / 100), st.floats(0.0, 10.0, allow_subnormal=False)]


def _quota_on(game, d, target, strict):
    """The quotas of ``game`` with quota ``d`` moved so that its threshold
    under the convention is ``target``, or as near as a few steps get; None
    when such a game cannot be built."""
    quotas, q = list(game.quotas), target
    for _ in range(6):
        quotas[d] = q
        try:
            q += target - VotingGame(game.player_ids, game.weights, tuple(quotas)).thresholds(strict)[d]
        except InvalidGameError:
            return None
    return tuple(quotas)


@st.composite
def engine_games(draw):
    """A game of 1 to 8 players over 1 to 3 quotas, and an (r, m, k) stack of
    load matrices.  Each dimension's weights are integers, decimals of one or
    two places or other floats, and some games have rows of zeros (never the
    last).  Each quota is integral, half-integral or 0.01 past an integer, or
    puts a convention's threshold on a coalition's sum, added in player order
    or as the even split's halves, or one ulp either side.  The stack holds
    own weights, a random association's loads, the all-pushing association's
    (negative) loads, `boundary_loads` under either convention, and loads
    whose break edges sit on a coalition's sums."""
    k, m = draw(st.sampled_from([1, 1, 2, 3])), draw(st.integers(1, 8))
    zero = draw(st.lists(st.booleans(), min_size=m, max_size=m)) if draw(st.booleans()) else [False] * m
    columns = []
    for _ in range(k):
        entries = draw(st.sampled_from(WEIGHTS))
        columns.append([0.0 if z else draw(entries) for z in zero[:-1]] + [draw(entries.filter(bool))])
    ids, weights = tuple(f"p{i}" for i in range(m)), tuple(zip(*columns))
    quotas = [float(draw(st.integers(1, max(1, int(sum(c)))))) + draw(st.sampled_from([0.0, -0.5, 0.01])) for c in columns]
    game = VotingGame(ids, weights, tuple(quotas))
    for d in range(k):
        if quotas[d] > sum(columns[d]) or draw(st.booleans()):  # always when no integral quota is reached
            s = coalition_sums(game, draw(st.integers(1, full_coalition(m))), draw(st.sampled_from([None, (m + 1) // 2])))[d]
            target = float(np.nextafter(s, draw(st.sampled_from([-np.inf, s, np.inf]))))
            moved = _quota_on(game, d, target, draw(st.booleans())) if target > 0 else None
            game = VotingGame(ids, weights, moved) if moved else game
    t, top = game.winning_thresholds, coalition_sums(game, full_coalition(m))
    on_sums = loads_at(np.maximum(coalition_sums(game, draw(st.integers(1, full_coalition(m)))), t), t)
    phi = random_association(m, draw(st.integers(0, 2**16)))
    return game, np.array([game.weight_matrix, persuasion_loads(game, phi), persuasion_loads(game, pushing_association(m)),
                           boundary_loads(game, False, top), boundary_loads(game, True, top), np.tile(on_sums, (m, 1))])


def _oracle(game, stack, split):
    """The oracle's counts of ``stack`` under both conventions, and each
    player's gain and loss from own weights to the two associations' loads,
    with every coalition summed as `coalition_sums` adds it at ``split``."""
    winners = [winning_coalitions(game, strict, split) for strict in (False, True)]
    counts = [naive_stack_swings(w, stack, game.thresholds(strict)) for w, strict in zip(winners, (False, True))]
    return counts, [naive_gain_loss(winners[0], stack[0], alt, game.winning_thresholds) for alt in stack[1:3]]


def _observed(table, stack):
    """`_oracle`'s figures as the table counts them."""
    counts = [table.swing_counts(stack, strict=strict).tolist() for strict in (False, True)]
    assert table.swing_counts(stack[0]).tolist() == counts[0][0]
    players = range(table.game.num_players)
    return counts, [[table.criticality_gain_loss(i, stack[0][i], alt[i]) for i in players] for alt in stack[1:3]]


def _table(game, name):
    """``CoalitionTable(game, name)``, or None if the engine refuses the game."""
    try:
        return CoalitionTable(game, name)
    except InvalidGameError:
        return None


@given(engine_games())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_engine_counts_as_the_oracle(case):
    """The oracle first sums coalitions in player order; an engine that adds
    them as its two halves' sums may instead match the oracle summing at the
    even split, which tells apart sums an ulp away where a threshold or an
    edge sits on them.  The plan's own engine is one that accepts the game;
    a stacking engine counts the game and, in one stack, the game reversed
    with a player of weight 0 added, which doubles the others' counts."""
    game, stack = case
    oracle = functools.cache(lambda split: _oracle(game, stack, split))
    accepted = {name: table for name in exact._ENGINES if (table := _table(game, name))}
    for name, table in accepted.items():
        observed = _observed(table, stack)
        assert observed == oracle(None) or observed == oracle((game.num_players + 1) // 2), name
        if exact._ENGINES[name].stacks:
            w, counts = game.weight_matrix[:, 0].astype(np.int64), observed[0][0][0]
            stacked = exact.integer_game_counts([w, np.append(w[::-1], 0)], np.full(2, w.sum()), np.full(2, game.quotas[0]))
            assert stacked.tolist() == counts + [2 * c for c in counts[::-1]] + [0], name
    assert CoalitionTable(game).engine in accepted


def test_every_engine_is_checked():
    """Each engine accepts an integer or a non-integer single-quota game or a
    three-quota game, so the harness counts on every engine."""
    several = VotingGame(("a", "b", "c"), ((3.0, 1.0, 0.5), (2.0, 1.0, 0.25), (1.0, 1.0, 1.5)), (4.0, 2.0, 1.0))
    games = [single_quota_game([3, 2, 1], 4), single_quota_game([1.5, 2.25, 0.5], 2.5), several]
    for name in exact._ENGINES:
        assert any(_table(game, name) for game in games), name
