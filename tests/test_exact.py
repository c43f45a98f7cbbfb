import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf import bounds, exact, games
from banzhaf.bounds import conjecture_scan
from banzhaf.cli import main
from banzhaf.data import (
    MigrationTable,
    RandomGameSpec,
    build_migration_association,
    dump_game,
    eu_game,
    random_association,
    random_game,
    random_weight_rows,
    random_weights,
)
from banzhaf.exact import (
    HARD_PLAYER_CAP,
    SINGLE_QUOTA_PLAYER_CAP,
    CoalitionTable,
    _break_bounds,
    _sums_below,
    association_delta,
    association_study,
    exact_indices,
)
from banzhaf.games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    persuasion_load,
    persuasion_loads,
    removal_breaks,
    removal_edges,
    removal_loads,
    seeded_rng,
    single_quota_game,
    sums_win,
)

from oracles import (
    boundary_loads,
    corpus,
    dp_load_swings,
    loads_at,
    loop_conjecture_scan,
    loop_win_bounds,
    naive_gain_loss,
    naive_stack_swings,
    parity_games,
    planned,
    pushing_association,
    winning_coalitions,
)


def game_321():
    return single_quota_game([3, 2, 1], 4)


class TestClassical:
    def test_spec_example(self):
        r = exact_indices(game_321())
        assert r.swing_counts == (3, 1, 1)
        assert r.absolute == (0.75, 0.25, 0.25)
        assert r.normalized == (0.6, 0.2, 0.2)
        assert r.total_swings == 5
        assert r.coalitions_per_player == 4
        assert r.mode == "classical"

    def test_two_voter_tie(self):
        r = exact_indices(single_quota_game([1, 1], 1))
        assert r.absolute == (0.5, 0.5)

    def test_unwinnable_game_all_zero(self):
        r = exact_indices(single_quota_game([1, 2], 10))
        assert r.swing_counts == (0, 0)
        assert r.normalized == (0.0, 0.0)

    def test_single_player(self):
        r = exact_indices(single_quota_game([5], 3))
        assert r.absolute == (1.0,)
        assert r.normalized == (1.0,)

    def test_strict_convention_differs_on_tie(self):
        g = single_quota_game([3, 1], 3)
        assert exact_indices(g).swing_counts == (2, 0)
        assert exact_indices(g, strict=True).swing_counts == (1, 1)


class TestAssociation:
    def test_spec_example(self):
        g = single_quota_game([2, 1], 2)
        phi = AssociationMatrix(((1.0, 1.0), (0.5, 1.0)))
        r = exact_indices(g, phi)
        assert r.absolute == (1.0, 0.5)
        assert r.mode == "association"

    def test_identity_reduces_to_classical(self):
        for game, _ in corpus(25, seed=901, max_players=8):
            classical = exact_indices(game)
            ident = exact_indices(game, AssociationMatrix.identity(game.num_players))
            assert ident.swing_counts == classical.swing_counts
            assert ident.absolute == classical.absolute


def _python_int_swings(weights, quota):
    """Classical swing counts by brute force over Python ints, which never round."""
    counts = [0] * len(weights)
    for mask in range(1 << len(weights)):
        members = [i for i in range(len(weights)) if mask >> i & 1]
        total = sum(weights[i] for i in members)
        if total >= quota:
            for i in members:
                counts[i] += total - weights[i] < quota
    return tuple(counts)


class TestExactIntegerLimit:
    def test_total_at_2_53_rejected(self):
        with pytest.raises(InvalidGameError, match="dimension 0"):
            exact_indices(single_quota_game([2**53 + 1, 1, 1], 2**53 + 2))
        with pytest.raises(InvalidGameError, match="dimension 1"):
            VotingGame(player_ids=("a", "b"), weights=((1, 2**52), (1, 2**52)), quotas=(1, 1))

    def test_total_just_below_2_53_accepted(self):
        weights = [2**52, 2**52 - 5, 2, 1, 1]
        assert sum(weights) == 2**53 - 1
        for quota in (2**52 + 2, 2**52 + 3, 2**53 - 3):
            counts = exact_indices(single_quota_game(weights, quota)).swing_counts
            assert counts == _python_int_swings(weights, quota)


class TestTable:
    def test_block_width_invariance_on_integer_weights(self):
        game, phi = corpus(1, seed=904, max_players=10, with_phi=True)[0]
        m, loads = game.num_players, np.array(persuasion_loads(game, phi))
        expected = exact_indices(game, phi).swing_counts
        for bits in (2, 5, m):
            assert tuple(_table(game, bits, "enumeration").swing_counts(loads).tolist()) == expected

    def test_winner_blocks_on_a_sorted_half_table(self):
        """A sorted-half table holds only its sorted halves, and builds the
        enumerator's blocks only when `winner_blocks` asks for them."""
        # half-integer weights, so that the table counts on the sorted halves
        game = single_quota_game([w + 0.5 for w in range(1, 13)], 39)
        table = CoalitionTable(game)
        assert table.engine == "sorted-half"
        assert set(vars(table)) == {"engine", "game", "_winning_sets", "_sides"}
        winners = sum(s.shape[1] for s, _ in table.winner_blocks(game.winning_thresholds))
        assert winners == len(winning_coalitions(game))
        assert "_blocks" in vars(table)

    def test_winner_blocks_on_a_grid_table(self):
        """An integer single-quota table counts on its sum grid, and builds
        the enumerator's blocks only when `winner_blocks` asks for them."""
        game = single_quota_game(list(range(1, 13)), 39)
        table = CoalitionTable(game)
        assert table.engine == "subset-sum"
        assert "_blocks" not in vars(table) and "_sides" not in vars(table)
        winners = sum(s.shape[1] for s, _ in table.winner_blocks(game.winning_thresholds))
        assert winners == len(winning_coalitions(game))
        assert table._blocks[1].shape == (1, 1) and "_sides" not in vars(table)

    def test_loads_of_another_dimension_count_rejected(self):
        game = eu_game()
        with pytest.raises(InvalidGameError, match=r"^loads must be shaped \(18, 3\), got \(18, 1\)$"):
            CoalitionTable(game).swing_counts(game.weight_matrix[:, :1])

    def test_loads_of_more_players_rejected(self):
        table = CoalitionTable(single_quota_game([5, 4, 3, 2, 1], 8))
        with pytest.raises(InvalidGameError, match=r"^loads must be shaped \(5, 1\), got \(8, 1\)$"):
            table.swing_counts(np.ones((8, 1)))

    def test_loads_of_several_dimensions_on_one_quota_rejected(self):
        table = CoalitionTable(single_quota_game([5, 4, 3, 2, 1], 8))
        with pytest.raises(InvalidGameError, match=r"^loads must be shaped \(5, 1\), got \(5, 3\)$"):
            table.swing_counts(np.ones((5, 3)))

    def test_gain_loss_rows_must_hold_one_load_per_dimension(self):
        table = CoalitionTable(single_quota_game([5, 4, 3, 2, 1], 8))
        with pytest.raises(InvalidGameError, match=r"^alt_loads must be shaped \(1,\), got \(2,\)$"):
            table.criticality_gain_loss(0, np.ones(1), np.ones(2))
        with pytest.raises(InvalidGameError, match=r"^base_loads must be shaped \(3,\), got \(1,\)$"):
            CoalitionTable(eu_game()).criticality_gain_loss(0, np.ones(1), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loads_rejected_on_every_engine(self, bad):
        """The sorted halves' and the grid's edge searches would never end on
        such a load, and the enumerator would count it.  Finite loads in an
        object array are still counted."""
        games = [single_quota_game([3, 2, 1], 4), single_quota_game([3, 2, 1.5], 4), eu_game()]
        for game in games:
            table, w = CoalitionTable(game), game.weight_matrix
            assert np.array_equal(table.swing_counts(w.astype(object)), table.swing_counts(w))
            loads = w.copy()
            loads[-1, -1] = bad
            with pytest.raises(InvalidGameError, match="^loads: not finite$"):
                table.swing_counts(loads)
            with pytest.raises(InvalidGameError, match="^base_loads: not finite$"):
                table.criticality_gain_loss(0, loads[-1], w[0])
            with pytest.raises(InvalidGameError, match="^alt_loads: not finite$"):
                table.criticality_gain_loss(0, w[0], loads[-1])
        assert [CoalitionTable(g).engine for g in games] == ["subset-sum", "sorted-half", "enumeration"]

    def test_negative_player_on_several_quotas_rejected(self):
        game = eu_game()
        with pytest.raises(InvalidGameError, match="^player index -1 out of range$"):
            CoalitionTable(game).criticality_gain_loss(-1, game.weight_matrix[0], game.weight_matrix[0])

    def test_player_out_of_range_on_one_quota_rejected(self):
        game = single_quota_game([5, 4, 3, 2, 1], 8)
        table, w = CoalitionTable(game), game.weight_matrix[0]
        for player in (-1, 5, 2**40):
            with pytest.raises(InvalidGameError, match=f"^player index {player} out of range$"):
                table.criticality_gain_loss(player, w, w)
        assert table.criticality_gain_loss("p5", w, w) == (0, 0)

    def test_table_reuse_across_matrices(self):
        game = single_quota_game([4, 3, 2, 1], 6)
        table = CoalitionTable(game)
        phi = AssociationMatrix.identity(4)
        r1 = exact_indices(game, phi, table=table)
        r2 = exact_indices(game, table=table)
        assert r1.swing_counts == r2.swing_counts

    def test_table_game_mismatch_rejected(self):
        table = CoalitionTable(game_321())
        with pytest.raises(InvalidGameError, match="different game"):
            exact_indices(single_quota_game([1, 1], 1), table=table)

    def test_player_cap(self):
        g = _two_quota_game(HARD_PLAYER_CAP + 1)
        with pytest.raises(InvalidGameError, match="capped"):
            exact_indices(g)

    def test_soft_warning(self):
        g = _two_quota_game(26)
        with pytest.warns(RuntimeWarning, match="long run"):
            CoalitionTable(g)

    def test_single_quota_cap_states_its_memory(self):
        # non-integer weights, which only the sorted halves count
        g = single_quota_game([1.5] * (SINGLE_QUOTA_PLAYER_CAP + 1), 5)
        message = f"capped at {SINGLE_QUOTA_PLAYER_CAP} players, .* MiB; got {g.num_players}"
        with pytest.raises(InvalidGameError, match=message):
            exact_indices(g)
        budget = r"sum grid, players x \(total weight \+ 1\), holds at most 2\^26 cells"
        with pytest.raises(InvalidGameError, match=budget):
            exact_indices(g)

    def test_integer_games_past_the_cap_are_counted(self):
        g = single_quota_game([1] * (SINGLE_QUOTA_PLAYER_CAP + 1), 5)
        assert exact_indices(g).swing_counts == (math.comb(SINGLE_QUOTA_PLAYER_CAP, 4),) * g.num_players

    def test_single_quota_games_skip_the_enumerator_limits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = CoalitionTable(single_quota_game([1] * 36, 18))
        assert [own.size for _, _, _, own, _ in table._sides] == [1 << 18] * 2
        assert CoalitionTable(single_quota_game([1] * 32, 16))._sides[0][1] == 16

    def test_no_warning_below_threshold(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CoalitionTable(single_quota_game([1] * 12, 6))


def _two_quota_game(m):
    return VotingGame(
        player_ids=tuple(f"p{i}" for i in range(m)),
        weights=((1.0, 2.0),) * m,
        quotas=(m / 2, m),
    )


def _table(game, bits=None, engine=None):
    """``CoalitionTable(game, engine)`` with its enumerator's blocks built,
    and with ``bits`` players in their low half if given (else the default)."""
    with pytest.MonkeyPatch.context() as patch:
        if bits is not None:
            patch.setattr(exact, "_DEFAULT_BLOCK_BITS", bits)
        table = CoalitionTable(game, engine)
        table._blocks
    return table


def _budget(table):
    """One block's sum arrays."""
    return table._blocks[0].nbytes


def _room(table):
    """How many compacted winners fit the budget."""
    return _budget(table) // (8 * table.game.num_dimensions + table.game.num_players)


def _check_cache(table, strict, winners):
    """After a scan, a convention is cached exactly when its ``winners``
    fit the budget, and the cache holds them within it."""
    cached = table._winning_sets.get(table.game.thresholds(strict))
    assert (cached is not None) == (winners <= _room(table))
    if cached is not None:
        assert cached[0].shape[1] == winners
        assert sum(a.nbytes for a in cached) <= _budget(table)


def _eu_load_matrices():
    """Classical loads, a migration PPM, then 20 random PPMs."""
    game = eu_game()
    rng = np.random.default_rng(911)
    flows = rng.integers(0, 100_000, size=(18, 18))
    migration = build_migration_association(
        MigrationTable(labels=game.player_ids, flows=tuple(map(tuple, flows.tolist())))
    )
    phis = [migration] + [random_association(18, seed) for seed in range(20)]
    return [game.weight_matrix] + [np.array(persuasion_loads(game, phi)) for phi in phis]


def _random_three_quota_games(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(8, 13))
        weights = rng.integers(0, 30, size=(m, 3)).astype(float)
        weights[:, 2] += rng.uniform(0, 1, size=m)  # one non-integer dimension
        quotas = weights.sum(axis=0) * rng.uniform(0.3, 0.7, size=3)
        game = VotingGame(
            player_ids=tuple(f"p{i}" for i in range(m)),
            weights=tuple(map(tuple, weights.tolist())),
            quotas=tuple(quotas.tolist()),
        )
        yield game, rng.uniform(-1, 1, size=(m, 3)) * weights.max(axis=0)


def _random_two_quota_game(m, fractions, seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 40, size=(m, 2)).astype(float)
    return VotingGame(
        player_ids=tuple(f"p{i}" for i in range(m)),
        weights=tuple(map(tuple, weights.tolist())),
        quotas=tuple((weights.sum(axis=0) * np.array(fractions)).tolist()),
    )


class TestCompactedWinners:
    """Multi-quota scans count over each block's compacted winners, and a
    convention's winners are cached by its first scan exactly when they fit
    the budget; the counts are the literal oracle's either way."""

    def _check(self, game, loads_list, tables):
        """Every table's swing counts under both conventions, and its
        gain/loss from the first load matrix to the others, against the
        oracle; the caches are checked after every scan."""
        for strict in (False, True):
            winners = winning_coalitions(game, strict)
            for loads in loads_list:
                expected = naive_stack_swings(winners, [loads], game.thresholds(strict))[0]
                for table in tables:
                    assert table.swing_counts(loads, strict=strict).tolist() == expected
                    _check_cache(table, strict, len(winners))
        base, m = loads_list[0], game.num_players
        for alt in loads_list[1:]:
            expected = naive_gain_loss(winning_coalitions(game), base, alt, game.winning_thresholds)
            for table in tables:
                assert [table.criticality_gain_loss(i, base[i], alt[i]) for i in range(m)] == expected

    def test_eu_game(self):
        """The cached table against 12-bit blocks, whose 64 blocks overflow
        the budget, on every load matrix; the first two also against 4-bit
        blocks, whose budget holds only a few winners."""
        game = eu_game()
        table = CoalitionTable(game)
        over = [_table(game, bits) for bits in (12, 4)]
        for strict in (False, True):
            for n, loads in enumerate(_eu_load_matrices()):
                counts = table.swing_counts(loads, strict=strict)
                for other in over[: 1 + (n < 2)]:
                    assert np.array_equal(counts, other.swing_counts(loads, strict=strict))
        assert len(table._winning_sets) == 2
        assert all(other._winning_sets == {} for other in over)
        for cached in table._winning_sets.values():
            assert sum(a.nbytes for a in cached) <= _budget(table)

    def test_eu_gain_loss_against_oracle(self):
        """Classical loads against a migration PPM and two random PPMs."""
        game = eu_game()
        table, winners = CoalitionTable(game), winning_coalitions(game)
        base, *alts = _eu_load_matrices()[:4]
        for alt in alts:
            expected = naive_gain_loss(winners, base, alt, game.winning_thresholds)
            assert [table.criticality_gain_loss(i, base[i], alt[i]) for i in range(18)] == expected

    def test_random_three_quota_games(self):
        cached = over = 0
        for game, noise in _random_three_quota_games(12, seed=912):
            tables = [CoalitionTable(game), _table(game, 4)]
            self._check(game, [game.weight_matrix, game.weight_matrix + noise], tables)
            cached += len(tables[0]._winning_sets)
            over += 2 - len(tables[1]._winning_sets)
        assert cached >= 12 and over >= 12

    def test_over_budget_games(self):
        """A dense game (66% of coalitions win) in one block and in 64, and
        a sparse one (6.5%) whose winners overflow after several blocks."""
        dense = _random_two_quota_game(12, (0.4, 0.35), seed=931)
        sparse = _random_two_quota_game(12, (0.7, 0.68), seed=931)
        rng = np.random.default_rng(932)
        for game, bits in ((dense, None), (dense, 6), (sparse, 6)):
            table = _table(game, bits)
            assert len(winning_coalitions(game)) > _room(table)
            loads = game.weight_matrix * rng.uniform(0.5, 1.5, size=(12, 2))
            self._check(game, [game.weight_matrix, loads], [table])
            assert table._winning_sets == {}

    def test_budget_boundary(self):
        """Power-of-two weights give every coalition its own sum, so the
        quota sets the number of winners: exactly the budget's worth is
        cached, one more is not (the strict convention has one fewer)."""
        m, room = 10, (16 * 2 * 8) // (2 * 8 + 10)
        for extra in (0, 1):
            game = VotingGame(
                player_ids=tuple(f"p{i}" for i in range(m)),
                weights=tuple((float(1 << i), 1.0) for i in range(m)),
                quotas=(float((1 << m) - room - extra), 1.0),
            )
            table = _table(game, 4)
            assert (_room(table), len(winning_coalitions(game))) == (room, room + extra)
            self._check(game, [game.weight_matrix, game.weight_matrix * 0.5], [table])
            assert len(table._winning_sets) == 2 - extra

    def test_gain_loss_matches_streaming(self):
        """Single-quota games' gain/loss enumerated as several quotas are,
        from a cached and from a streamed winner set, against the oracle."""
        compacted = 0
        for game, phi in corpus(8, seed=913, max_players=12, with_phi=True):
            base = game.weight_matrix
            alt = np.array(persuasion_loads(game, phi))
            expected = naive_gain_loss(winning_coalitions(game), base, alt, game.winning_thresholds)
            compact, stream = _table(game, engine="enumeration"), _table(game, 2, "enumeration")
            for table in (compact, stream):
                got = [table.criticality_gain_loss(i, base[i], alt[i]) for i in range(game.num_players)]
                assert got == expected
            assert stream._winning_sets == {}
            compacted += len(compact._winning_sets)
        assert compacted > 0

    def test_gain_loss_where_either_load_breaks_a_different_quota(self):
        """Base loads break only the first quota and alt loads only the
        second, so their maximum is neither row and swings more than both:
        the single-quota rule, the difference of two counts, is wrong here.
        Against the oracle from a cached and from a streamed winner set."""
        game = _random_two_quota_game(10, (0.55, 0.5), seed=933)
        w, zero = game.weight_matrix, np.zeros(10)
        base, alt = np.column_stack((w[:, 0], zero)), np.column_stack((zero, w[:, 1]))
        expected = naive_gain_loss(winning_coalitions(game), base, alt, game.winning_thresholds)
        cached, streamed = CoalitionTable(game), _table(game, 4)
        for table in (cached, streamed):
            assert [table.criticality_gain_loss(i, base[i], alt[i]) for i in range(10)] == expected
        assert len(cached._winning_sets) == 1 and streamed._winning_sets == {}
        swings = [cached.swing_counts(rows) for rows in (base, alt, w)]
        assert (swings[2] > np.maximum(swings[0], swings[1])).any()
        single_quota_rule = [(max(a - b, 0), max(b - a, 0)) for b, a in zip(swings[0].tolist(), swings[1].tolist())]
        assert single_quota_rule != expected

    def test_large_winning_set_is_not_cached(self):
        game = single_quota_game([1] * 20, 10)
        table = CoalitionTable(game, "enumeration")
        counts = table.swing_counts(game.weight_matrix)
        assert table._winning_sets == {}
        assert counts.tolist() == [math.comb(19, 9)] * 20


@st.composite
def multi_quota_games(draw):
    """A game of 1 to 10 players over 2 or 3 quotas, with weights that are
    mostly not integers and some zeros, and a low-half width for its blocks."""
    k, m = draw(st.integers(2, 3)), draw(st.integers(1, 10))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
    rows = draw(st.lists(st.tuples(*[weight] * k), min_size=m, max_size=m))
    game = VotingGame(player_ids=tuple(f"p{i}" for i in range(m)), weights=tuple(rows), quotas=(1.0,) * k)
    return game, draw(st.integers(1, m))


class TestLoadStacks:
    """An (r, m, k) stack of load matrices counts as r single-matrix calls
    on every engine, and as the oracle."""

    def _stack(self, table, seed):
        """The loads of `pushing_association`, mostly negative, own weights,
        two `random_association` PPMs' loads, and under each convention the
        `boundary_loads` at the full coalition's sums as the blocks add them."""
        game = table.game
        m = game.num_players
        phis = (pushing_association(m), random_association(m, seed), random_association(m, seed + 1))
        low, high = table._blocks
        return np.array([persuasion_loads(game, phis[0]), game.weight_matrix, *(persuasion_loads(game, phi) for phi in phis[1:]),
                         *(boundary_loads(game, strict, low[:, -1] + high[:, -1]) for strict in (False, True))])

    def _check(self, table, stack):
        """Under both conventions: (r, m) counts, each row the single
        matrix's count and the oracle's.  The oracle sums coalitions in
        player order, except for the last two rows, the `boundary_loads`:
        those it adds in the table's blocks' order, since an edge on the full
        coalition's sums in a non-integer dimension tells apart sums that
        another order rounds an ulp away."""
        game = table.game
        split = table._blocks[0].shape[1].bit_length() - 1
        for strict in (False, True):
            counts = table.swing_counts(stack, strict=strict)
            assert counts.shape == stack.shape[:2]
            assert counts.tolist() == [table.swing_counts(loads, strict=strict).tolist() for loads in stack]
            t = game.thresholds(strict)
            expected = naive_stack_swings(winning_coalitions(game, strict), stack[:-2], t)
            expected += naive_stack_swings(winning_coalitions(game, strict, split), stack[-2:], t)
            assert counts.tolist() == expected

    def test_eu_game_with_cached_winners(self, monkeypatch):
        """Each country's six rows, grouped by their live quotas, against the
        oracle, then in chunks of three rows and of one."""
        game = eu_game()
        table = CoalitionTable(game)
        stack = self._stack(table, 5)
        self._check(table, stack)
        assert len(table._winning_sets) == 2
        counts = [table.swing_counts(stack, strict=strict) for strict in (False, True)]
        for rows in (3, 1):
            monkeypatch.setattr(exact, "_GROUP_BYTES", rows * 2 * 9948)
            assert [table.swing_counts(stack, strict=strict).tolist() for strict in (False, True)] == [
                c.tolist() for c in counts
            ]

    def test_streamed_two_and_three_quota_games(self):
        games = [_random_two_quota_game(12, fractions, seed=941) for fractions in ((0.4, 0.35), (0.7, 0.68))]
        games += [game for game, _ in _random_three_quota_games(3, seed=943)]
        for n, game in enumerate(games):
            table = _table(game, 4)
            assert len(winning_coalitions(game)) > _room(table)
            self._check(table, self._stack(table, 950 + n))
            assert table._winning_sets == {}

    def test_more_quotas_than_a_bitmask_holds(self):
        """63 and 70 quotas, with a matrix that loads only quotas 60 on, so
        that its entries break winners only in those."""
        rng = np.random.default_rng(971)
        for k in (63, 70):
            weights = rng.integers(0, 10, size=(5, k)) + rng.uniform(0, 1, size=(5, k)) * (np.arange(k) % 2)
            game = VotingGame(player_ids=tuple(f"p{i}" for i in range(5)), weights=tuple(map(tuple, weights.tolist())),
                              quotas=tuple((weights.sum(axis=0) * rng.uniform(0.3, 0.6, size=k)).tolist()))
            table = CoalitionTable(game)
            late = np.where(np.arange(k) >= 60, weights, 0.0)
            stack = np.concatenate((late[None], self._stack(table, 970)))
            self._check(table, stack)
            assert table.swing_counts(late).any()

    @given(multi_quota_games())
    @settings(max_examples=150, deadline=None)
    def test_full_coalition_has_the_largest_sums(self, case):
        """What the enumerator's all-breaking rule rests on: of every
        coalition's sums, as its blocks add them, the largest per dimension is
        the full coalition's, bit for bit."""
        game, bits = case
        low, high = _table(game, bits)._blocks
        every = high[:, :, None] + low[:, None, :]
        assert every.max(axis=(1, 2)).tobytes() == (low[:, -1] + high[:, -1]).tobytes()

    def test_no_scan_when_no_entry_can_break(self, monkeypatch):
        """Loads <= 0 leave every quota dead, so the count reads no block."""
        game = _random_two_quota_game(12, (0.4, 0.35), seed=941)
        table = _table(game, 4)

        def scan(*_):
            raise AssertionError("scanned the winners")

        monkeypatch.setattr(CoalitionTable, "winner_blocks", scan)
        loads = np.array([-game.weight_matrix, np.zeros_like(game.weight_matrix)])
        assert table.swing_counts(loads).tolist() == [[0] * 12] * 2

    def test_stacks_of_one_and_none(self):
        for game in (eu_game(), single_quota_game([3, 5, 2], 6), single_quota_game([0.5, 1.25, 2.0], 2.1)):
            table, w = CoalitionTable(game), game.weight_matrix
            m, k = w.shape
            assert table.swing_counts(w[None]).tolist() == [table.swing_counts(w).tolist()]
            assert table.swing_counts(np.empty((0, m, k))).shape == (0, m)
            with pytest.raises(InvalidGameError, match=rf"^loads must be shaped \(2, {m}, {k}\), got \(2, {m + 1}, {k}\)$"):
                table.swing_counts(np.ones((2, m + 1, k)))


class TestSortedHalf:
    """The sorted halves' searches, against the loops they replaced."""

    def test_win_edge_is_the_threshold(self):
        """Where the coalitions of each scanned sum start to win, among the
        other half's sorted sums, is the search for the threshold itself
        (``s >= t``).  It must equal the search with `sums_win` it replaced,
        and the count of losers per scanned sum, for both halves and either
        convention."""
        for game in parity_games(150, seed=924, max_players=10):
            for _, _, _, own, other in CoalitionTable(game)._sides:
                sums = own[:, None] + other[None, 1:-1]
                for strict in (False, True):
                    thresholds = game.thresholds(strict)
                    edge = _break_bounds(own, other, np.array(thresholds))[0]
                    assert np.array_equal(edge, loop_win_bounds(own, other, thresholds))
                    assert np.array_equal(edge, np.count_nonzero(~sums_win((sums,), thresholds), axis=1))

    def test_break_edges_are_the_kernels_verdicts(self):
        """Over non-zero break edges (own weights, a random association, and
        the all-pushing matrix's mostly negative loads), each index ends the
        prefix of the other half's sorted sums whose coalitions with the
        scanned sum the removal breaks, by `removal_breaks` over every (scanned
        sum, other sum) pair, for both halves and either convention."""
        for game in parity_games(60, seed=926, max_players=10):
            m = game.num_players
            phis = (None, random_association(m, 927), pushing_association(m))
            loads = np.concatenate([removal_loads(game, phi)[1][:, 0] for phi in phis])
            for _, _, _, own, other in CoalitionTable(game)._sides:
                sums = own[:, None] + other[None, 1:-1]
                for strict in (False, True):
                    thresholds = game.thresholds(strict)
                    bounds = _break_bounds(own, other, removal_edges(loads, thresholds))
                    breaks = np.array([removal_breaks((sums,), (l,), thresholds) for l in loads])
                    assert np.array_equal(breaks, np.arange(other.size - 2) < bounds[:, :, None])


class TestLargeSingleQuota:
    """Past the enumerator's 32 players, against closed forms."""

    def test_unit_weights_at_34_players(self):
        game = single_quota_game([1] * 34, 17)
        report = exact_indices(game)
        assert report.swing_counts == (math.comb(33, 16),) * 34

    def test_memory_within_the_stated_bytes_per_half_entry(self):
        """The per-entry figure behind the single-quota cap bounds a real
        count: at 34 players each half holds 2^17 sums."""
        # half-integer weights, so that the count takes the sorted halves
        weights = (np.random.default_rng(925).integers(1, 100, 34) + 0.5).tolist()
        game = single_quota_game(weights, sum(weights) // 2)
        assert CoalitionTable(game).engine == "sorted-half"
        tracemalloc.start()
        try:
            exact_indices(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= exact._BYTES_PER_HALF_ENTRY << 17
        assert SINGLE_QUOTA_PLAYER_CAP == 40

    def test_two_weight_classes_at_35_players(self):
        twos, ones, quota = 10, 25, 23
        game = single_quota_game([2] * twos + [1] * ones, quota)
        counts = exact_indices(game).swing_counts

        def others(n2, n1, sums):  # subsets of the others with their sum in ``sums``
            return sum(
                math.comb(n2, x) * math.comb(n1, y)
                for x in range(n2 + 1)
                for y in range(n1 + 1)
                if 2 * x + y in sums
            )

        assert counts[:twos] == (others(twos - 1, ones, {quota - 2, quota - 1}),) * twos
        assert counts[twos:] == (others(twos, ones - 1, {quota - 1}),) * ones


class TestSumGrid:
    """Integer single-quota games count on their sum grid, chosen by the
    engine plan; its counts agree however its gathers are cut and stay exact
    past int64 (tests/test_engines.py checks them against the oracle)."""

    def test_edge_index_counts_the_integer_sums_that_break(self):
        """The grid's index of a break edge is the count of the integer sums
        0..W that the removal breaks, by `removal_breaks` at every sum: with
        loads placed so that the edge lands on an integer sum or one ulp
        either side of it, below 0 and past W, under a whole threshold, one
        with the boundary tolerance and the strict convention's."""
        W = 20
        grid = np.arange(W + 1.0)
        for game in (single_quota_game([7, 13], 7), single_quota_game([7, 13], 7.5), single_quota_game([7.5, 12.5], 7)):
            for strict in (False, True):
                t = game.thresholds(strict)[0]
                # edges below t sit on t's coarser float spacing, so those
                # near and below 0 are reached by loads, not placed
                placed = [v for s in (7.0, 12.0, W, W + 1.0, W + 4.0) for v in (np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf))]
                loads = np.array([*loads_at(placed, [t] * len(placed)), -t - 3, -t - 0.5, -t, np.nextafter(-t, np.inf), 1 - t])
                edges = removal_edges(loads, [t])
                assert edges[: len(placed)].tolist() == placed and np.sign(edges[len(placed) : -1]).tolist() == [-1, -1, -1, 1]
                expected = [np.count_nonzero(removal_breaks((grid,), (l,), (t,))) for l in loads]
                assert _sums_below(edges, W).tolist() == expected
        assert _sums_below(np.array([-np.inf, np.inf, -0.0, 0.5]), W).tolist() == [0, W + 1, 0, 1]

    def test_engine_is_chosen_once_per_table(self):
        assert CoalitionTable(single_quota_game([3, 2, 1], 4)).engine == "subset-sum"
        assert CoalitionTable(single_quota_game([3, 2, 1], 3.5)).engine == "subset-sum"
        assert CoalitionTable(single_quota_game([3, 2, 1.5], 4)).engine == "sorted-half"
        assert CoalitionTable(eu_game()).engine == "enumeration"

    def test_engine_budget_edges(self):
        """Each edge of `exact.engine_plan`, with its engine and its message."""
        # at 3 players the grid may be 16 times the larger half, 4 entries,
        # and in a stack it may also take a table's set-up
        assert planned(single_quota_game([1, 2, 60], 30)) == "subset-sum"
        assert planned(single_quota_game([1, 2, 61], 30)) == "sorted-half"
        assert planned(single_quota_game([1, 2, 61], 30), stacked=True) == "subset-sum"
        assert exact.engine_plan(3, 1, True, 63 + exact._TABLE_SETUP, stacked=True) == "subset-sum"
        assert exact.engine_plan(3, 1, True, 64 + exact._TABLE_SETUP, stacked=True) == "sorted-half"
        # at 34 players the cell budget binds first: 2^26 // 34 sums
        sums = exact._GRID_CELLS // 34
        for extra, engine in ((0, "subset-sum"), (1, "sorted-half")):
            game = single_quota_game([1] * 33 + [sums - 34 + extra], sums // 2)
            assert planned(game) == engine
        # the sorted halves stop at 40 players; past them an integer game
        # over the grid's budget gets the sorted halves' message
        single = (
            "exact counting of single-quota games is capped at 40 players, unless the weights are integers "
            "whose sum grid, players x (total weight + 1), holds at most 2^26 cells; at the cap each half "
            "holds 2^20 sums and a count takes about 80 MiB; got 41"
        )
        assert exact.engine_plan(40, 1, False, 60.5) == "sorted-half"
        assert exact.engine_plan(41, 1, True, exact._GRID_CELLS // 41 - 1) == "subset-sum"
        for integral, total in ((False, 61.5), (True, exact._GRID_CELLS // 41)):
            with pytest.raises(InvalidGameError, match=f"^{re.escape(single)}$"):
                exact.engine_plan(41, 1, integral, total)
        with pytest.raises(InvalidGameError, match=f"^{re.escape(single)}$"):
            exact_indices(single_quota_game([1.5] * 41, 5))
        # the enumeration stops at 32 players, for several quotas or when forced
        several = VotingGame(player_ids=tuple(map(str, range(33))), weights=((1, 1),) * 33, quotas=(3, 3))
        with pytest.warns(RuntimeWarning):
            assert exact.engine_plan(32, 2) == "enumeration"
        for capped in (lambda: exact.engine_plan(33, 2), lambda: exact.engine_plan(33, 1, True, 33, "enumeration"),
                       lambda: exact_indices(several)):
            with pytest.raises(InvalidGameError, match="^exact enumeration is capped at 32 players, got 33$"):
                capped()
        # an enumeration warns from 26 players on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact.engine_plan(25, 3) == "enumeration"
            assert exact.engine_plan(40, 1, True, 10**6) == "subset-sum"
        with pytest.warns(RuntimeWarning, match=r"^enumerating 2\^26 coalitions; expect a long run$") as record:
            assert exact.engine_plan(26, 3) == "enumeration"
        assert len(record) == 1 and record[0].filename == __file__
        # a named engine must count the game (the grid would truncate these
        # weights, and no single-quota engine reads a second quota), and the
        # enumeration counts any game
        decimals = single_quota_game([0.5, 0.5, 0.5, 1.2], 1.4)
        three = VotingGame(("a", "b"), ((1, 2, 3), (3, 2, 1)), (2, 2, 2))
        for game, engine, kind in ((decimals, "subset-sum", "1 quota(s) and non-integer"),
                                   (three, "subset-sum", "3 quota(s) and integer"),
                                   (three, "sorted-half", "3 quota(s) and integer")):
            with pytest.raises(InvalidGameError, match=f"^the {engine} engine does not count games of {re.escape(kind)} weights$"):
                CoalitionTable(game, engine)
        with pytest.raises(InvalidGameError, match="^unknown engine 'bogus', not one of subset-sum, sorted-half, enumeration$"):
            CoalitionTable(decimals, "bogus")
        assert exact_indices(decimals, table=CoalitionTable(decimals, "enumeration")).swing_counts == (2, 2, 2, 6)

    @pytest.mark.parametrize("budget", [16 * 3, 16 * 40])
    def test_gathers_cut_to_any_budget_agree(self, monkeypatch, budget):
        """The first budget gathers one row and two terms at a time, the
        second a few rows at a time and the heavy rows' terms in pieces."""
        games = [g for g in parity_games(150, seed=1701, max_players=12) if planned(g) == "subset-sum"]
        games.append(single_quota_game([1, 1, 2, 0, 0, 3, 5, 400, 9], 201.5))
        def counts(game, loads):
            table, w = CoalitionTable(game), game.weight_matrix
            gain_loss = [table.criticality_gain_loss(i, w[i], loads[i]) for i in range(game.num_players)]
            return table.swing_counts(loads).tolist(), gain_loss

        cases = []
        for game in games:
            loads = np.array(persuasion_loads(game, random_association(game.num_players, 1702)))
            cases.append((game, loads, counts(game, loads)))
        monkeypatch.setattr(exact, "_GROUP_BYTES", budget)
        for game, loads, expected in cases:
            assert counts(game, loads) == expected

    @pytest.mark.parametrize("m", [70, 100])
    def test_counts_past_int64_against_the_dp_oracle(self, m, capsys, tmp_path):
        rng = np.random.default_rng(1700 + m)
        weights = rng.integers(1, 101, m).tolist()
        game = single_quota_game(weights, sum(weights) / 2)
        phi = random_association(m, 1700 + m)
        expected = dp_load_swings(game, [game.weight_matrix, np.array(persuasion_loads(game, phi))])
        classical, assoc = exact_indices(game), exact_indices(game, phi)
        assert [list(classical.swing_counts), list(assoc.swing_counts)] == expected
        stack = np.array([game.weight_matrix, persuasion_loads(game, phi)])
        assert CoalitionTable(game).swing_counts(stack).tolist() == expected  # one (2, m, 1) stack
        assert max(classical.swing_counts) >= 2**63
        assert {type(c) for c in classical.swing_counts + assoc.swing_counts} == {int}
        path = tmp_path / "game.json"
        path.write_text(dump_game(game), encoding="utf-8")
        assert main(["exact", "--game", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["swings"] for p in doc["players"]] == expected[0]

    def test_memory_within_16_bytes_per_sum(self):
        """An int64 grid holds 16 bytes per sum, its prefix counts and its
        float sums, and its build peaks there too; a count adds at most one
        gather.  Pinned at 40 players, where the cell budget allows 2^26 / 40
        sums (about 27 MB)."""
        m = 40
        sums = exact._GRID_CELLS // m
        weights = [sums // m] * (m - 1) + [sums - 1 - (m - 1) * (sums // m)]
        game = single_quota_game(weights, (sums - 1) / 2)
        assert planned(game) == "subset-sum"
        game.weight_matrix  # cached before measuring
        tracemalloc.start()
        try:
            exact_indices(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * sums + exact._GROUP_BYTES


def _grid_games(games):
    """The weights, totals and quotas of those of ``games`` that the engine
    plan counts on the sum grid, and their `exact_indices` counts."""
    games = [g for g in games if planned(g) == "subset-sum"]
    weights = [g.weight_matrix[:, 0].astype(np.int64) for g in games]
    quotas = np.array([g.quotas[0] for g in games])
    return weights, np.array([w.sum() for w in weights]), quotas, [c for g in games for c in exact_indices(g).swing_counts]


class TestClassicalReports:
    """`exact.integer_game_counts` counts integer games together, in stacks
    of sum grids, to the bits of `exact_indices`."""

    def test_equals_exact_indices(self):
        # integer, zero-heavy and boundary-tolerance games of 1 to 15 players
        weights, totals, quotas, expected = _grid_games(parity_games(400, seed=1601, max_players=15))
        assert {w.size for w in weights} == set(range(1, 16))
        assert len(weights) > 150
        assert exact.integer_game_counts(weights, totals, quotas).tolist() == expected

    def test_stacks_mix_with_tables_and_python_ints(self):
        # heavy 3- and 4-player games, some of which a table of their own
        # counts on the sorted halves, stacked among the others; and games of
        # 63 to 70 players whose counts pass int64
        heavy, wide = RandomGameSpec(max_players=4, max_weight=40), RandomGameSpec(63, 70, 0, 1)
        for spec in (heavy, wide):
            games = [random_game(seeded_rng(1604, t), spec) for t in range(150)]
            counts = bounds._window_counts(1604, range(150), spec)[3].tolist()
            assert counts == [c for g in games for c in exact_indices(g).swing_counts]
            assert conjecture_scan(150, 1604, spec) == loop_conjecture_scan(150, 1604, spec)
        assert {planned(random_game(seeded_rng(1604, t), heavy)) for t in range(150)} == {"subset-sum", "sorted-half"}
        assert max(counts) >= 2**63 and {type(c) for c in counts} == {int}  # the wide games'

    def test_only_games_a_stack_cannot_count_are_built(self, monkeypatch):
        """The default spec's first 1,024 seed-0 trials are all stacked, though
        a table of their own would count some on the sorted halves; 4-player
        games of total about 10^5 and 3 * 10^5, whose stacked work passes a
        lone table's, are built, and so is a game whose threshold is not
        positive, which raises its game's error."""
        spec = RandomGameSpec()
        games = [random_game(seeded_rng(0, t), spec) for t in range(1024)]
        expected = [c for g in games for c in exact_indices(g).swing_counts]
        assert {planned(g) for g in games} == {"subset-sum", "sorted-half"}
        built = []

        def build(weights, quota):
            built.append(weights)
            return single_quota_game(weights, quota)

        def fail(*args):
            raise AssertionError("built a game for a trial that a stack counts")

        monkeypatch.setattr(exact, "single_quota_game", fail)
        counts = [c for t in range(0, 1024, 128) for c in bounds._window_counts(0, range(t, t + 128), spec)[3]]
        assert counts == expected
        monkeypatch.setattr(exact, "single_quota_game", build)
        heavy, light, heavier = [25_000, 25_001, 24_999, 25_003], [3, 5, 2, 7, 1], [1, 100_000, 100_000, 100_000]
        weights = [np.array(w, dtype=np.int64) for w in (light, heavy, light, heavier)]
        totals, quotas = np.array([18, 100_003, 18, 300_001]), np.array([9.0, 50_001.5, 10.0, 150_000.5])
        for w, t, q in zip((heavy, heavier), totals[1::2], quotas[1::2]):
            assert planned(single_quota_game(w, q), stacked=True) == "sorted-half"
            assert exact.engine_plan(4, 1, True, t, stacked=True) == "sorted-half"
        assert exact.integer_game_counts(weights, totals, quotas).tolist() == [
            c for w, q in zip(weights, quotas) for c in exact_indices(single_quota_game(w.tolist(), q)).swing_counts]
        assert built == [heavy, heavier]
        built.clear()
        with pytest.raises(InvalidGameError, match="boundary tolerance .* reaches the quota"):
            exact.integer_game_counts(weights, totals, np.array([9.0, 50_001.5, 1e-14, 150_000.5]))
        assert built == [heavy, light]

    def test_stacks_in_order_of_total(self, monkeypatch):
        """A heavy game first in a window is stacked after the light ones, whose
        stack stays as narrow as they are; the counts come back in trial order."""
        heavy = np.array([256, 255, 257, 256])  # W = 1,024: 63 such widths fill a stack
        weights = [heavy, *random_weight_rows(0, range(127), RandomGameSpec())]
        totals = np.array([w.sum() for w in weights])
        count, shapes = exact._grid_swing_counts, []  # each stack's (games, width)
        monkeypatch.setattr(exact, "_grid_swing_counts", lambda prefix, *rest: shapes.append(prefix.shape) or count(prefix, *rest))
        counts = exact.integer_game_counts(weights, totals, totals / 2).tolist()
        assert counts == [c for w in weights for c in exact_indices(single_quota_game(w.tolist(), w.sum() / 2)).swing_counts]
        assert shapes[0][0] == 127 and shapes[0][1] < 300 and shapes[1][0] == 1

    def test_two_decimal_quotas(self):
        # integer weights against quotas rounded to 0, 1 or 2 decimals: those
        # that are not whole take the boundary tolerance
        rng = np.random.default_rng(1602)
        games = []
        for _ in range(300):
            weights = rng.integers(0, 30, int(rng.integers(1, 14)))
            quota = max(0.01, round(float(rng.uniform(0.05, 1.0) * weights.sum()), int(rng.integers(0, 3))))
            games.append(single_quota_game(weights.tolist(), quota))
        weights, totals, quotas, expected = _grid_games(games)
        assert len(weights) > 250
        assert exact.integer_game_counts(weights, totals, quotas).tolist() == expected

    @pytest.mark.parametrize("budget", [8, 5 * (8 << 5), 8 * (8 << 8)])
    def test_chunks_of_any_size_agree(self, monkeypatch, budget):
        # a stack holds the games whose rows, padded to its widest, fit the
        # budget at 16 bytes per count: the first budget fits no row, so each
        # stack holds one game; the second fits 80 counts, a few light games
        # or one heavier game, and the third 1,024 counts
        weights, totals, quotas, expected = _grid_games(parity_games(150, seed=1603, max_players=8))
        monkeypatch.setattr(exact, "_GROUP_BYTES", budget)
        assert exact.integer_game_counts(weights, totals, quotas).tolist() == expected

    def test_memory_within_one_stack(self):
        """A stack's prefix and its shifted copy fit `_GROUP_BYTES`, and its
        count adds at most one gather of that size, however many games there
        are: 400 games of 12 players weighing up to 100 (up to 1,202 counts a
        row) take five stacks, in order of total.  The counts, which outlive
        the count, are not counted."""
        spec = RandomGameSpec(min_players=12, max_weight=100)
        weights = [random_weights(seeded_rng(1605, t), spec) for t in range(400)]
        totals = np.array([w.sum() for w in weights])
        tracemalloc.start()
        try:
            counts = exact.integer_game_counts(weights, totals, totals / 2)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.size == 4800
        assert peak - kept <= 2 * exact._GROUP_BYTES + (1 << 19)


def _persuasion_loads_loop(game, phi):
    """The sequential per-entry loop that ``persuasion_loads`` must match bit for bit."""
    k = game.num_dimensions
    out = []
    for arow in phi.entries:
        load = [0.0] * k
        for a, wrow in zip(arow, game.weights):
            for d in range(k):
                load[d] += a * wrow[d]
        out.append(tuple(load))
    return tuple(out)


def _bytes(loads):
    """Loads as float64 bytes, so that -0.0 and 0.0 differ."""
    return np.array(loads, dtype=np.float64).tobytes()


def test_persuasion_loads_match_sequential_loop():
    eu = eu_game()
    cases = [(eu, random_association(eu.num_players, seed)) for seed in range(100)]
    cases += corpus(30, seed=914, max_players=10, with_phi=True)
    # every product in row 0 is -0.0: a running sum from 0.0 gives 0.0, and
    # a bare cumulative sum, which starts at the first product, -0.0
    rows = [[1, -1, -1, -0.0]] + [[float(i == j) for j in range(4)] for i in range(1, 4)]
    cases.append((single_quota_game([-0.0, 0, 0, 4], 4), AssociationMatrix(rows)))
    assert _bytes(_persuasion_loads_loop(*cases[-1])[0]) == _bytes([0.0])
    for game, phi in cases:
        expected = _persuasion_loads_loop(game, phi)
        assert _bytes(persuasion_loads(game, phi)) == _bytes(expected)
        assert removal_loads(game, phi)[0] == "association"
        assert _bytes(removal_loads(game, phi)[1]) == _bytes(expected)
        for i, row in enumerate(expected):
            assert _bytes(persuasion_load(game, phi, i).load) == _bytes(row)
    # the cases of one game as one stack: one load call on their (r * m, m)
    # rows, as `eu --random-association` makes
    stacks = {}
    for game, phi in cases:
        stacks.setdefault(id(game), (game, []))[1].append(phi)
    assert len(stacks[id(eu)][1]) == 100
    for game, phis in stacks.values():
        stacked = games.load_sums(np.concatenate([phi.matrix for phi in phis]), game.weight_matrix)
        assert _bytes(stacked) == _bytes([row for phi in phis for row in _persuasion_loads_loop(game, phi)])


class TestAssociationStudy:
    """`association_study` counts each run's random association matrix as
    `exact_indices` does, whichever engine the table chose and however the
    runs split into stacks."""

    @pytest.mark.parametrize(
        "game, engine",
        [
            (eu_game(), "enumeration"),
            (single_quota_game([5, 3, 3, 2, 1, 1, 7], 12), "subset-sum"),
            (single_quota_game([0.5, 1.25, 2.0, 0.75, 3.5, 0.3], 4.1), "sorted-half"),
        ],
        ids=["enumeration", "subset-sum", "sorted-half"],
    )
    def test_equals_the_per_matrix_loop(self, monkeypatch, game, engine):
        m, runs, seed = game.num_players, 5, 4
        table = CoalitionTable(game)
        assert table.engine == engine
        expected = [exact_indices(game, random_association(m, seed + r), table=table).swing_counts for r in range(runs)]
        one_stack = association_study(game, seed, runs, table)
        # two runs' draws a stack, so that five runs cross two stack boundaries
        monkeypatch.setattr(exact, "_STACK_BYTES", 2 * m * m * 8)
        stacked = association_study(game, seed, runs)
        assert one_stack.shape == stacked.shape == (runs, m)
        assert [tuple(row) for row in one_stack.tolist()] == [tuple(row) for row in stacked.tolist()] == expected

    def test_numpy_integers_accepted(self):
        game = single_quota_game([3, 2, 1], 4)
        assert association_study(game, np.uint8(2), np.int64(3)).tolist() == association_study(game, 2, 3).tolist()

    @pytest.mark.parametrize(
        "seed, runs, message",
        [
            (0, 0, "runs must be a positive integer, got 0"),
            (0, -2, "runs must be a positive integer, got -2"),
            (0, 2.0, "runs must be a positive integer, got 2.0"),
            (0, True, "runs must be a positive integer, got True"),
            (-1, 2, "seed must be non-negative, got -1"),
            (1.5, 2, "seed must be an integer, got 1.5"),
        ],
    )
    def test_bad_runs_or_seed_rejected_first(self, monkeypatch, seed, runs, message):
        def refused(*args):
            raise AssertionError("a table was built or a matrix drawn")

        monkeypatch.setattr(exact, "CoalitionTable", refused)
        monkeypatch.setattr(exact, "association_draws", refused)
        with pytest.raises(InvalidGameError, match=f"^{re.escape(message)}$"):
            association_study(eu_game(), seed, runs)

    def test_table_of_another_game_rejected(self):
        table = CoalitionTable(single_quota_game([3, 2, 1], 4))
        with pytest.raises(InvalidGameError, match="^table was built for a different game$"):
            association_study(single_quota_game([3, 2, 1], 4), 0, 2, table)


class TestDelta:
    def test_positive_surplus_example(self):
        g = single_quota_game([2, 1], 2)
        phi = AssociationMatrix(((1.0, 1.0), (0.5, 1.0)))
        d = association_delta(g, phi, "p2")
        assert d.delta == 0.5
        assert (d.gain_count, d.loss_count) == (1, 0)
        assert d.window == (3.0, 4.0)
        assert d.surplus == 1.0

    def test_negative_surplus_example(self):
        g = single_quota_game([2, 1], 2)
        phi = AssociationMatrix(((1.0, -1.0), (0.5, 1.0)))
        d = association_delta(g, phi, "p1")
        assert d.delta == -0.5
        assert (d.gain_count, d.loss_count) == (0, 1)
        assert d.window == (3.0, 4.0)
        assert d.surplus == -1.0

    def test_zero_surplus_empty_window(self):
        g = single_quota_game([2, 1], 2)
        d = association_delta(g, AssociationMatrix.identity(2), "p1")
        assert d.delta == 0.0
        assert (d.gain_count, d.loss_count) == (0, 0)
        assert d.window == (4.0, 4.0)

    def test_equals_index_difference(self):
        for game, phi in corpus(20, seed=905, max_players=8, with_phi=True):
            table = CoalitionTable(game)
            classical = exact_indices(game, table=table)
            assoc = exact_indices(game, phi, table=table)
            for i in range(game.num_players):
                d = association_delta(game, phi, i, table=table)
                assert d.delta == assoc.absolute[i] - classical.absolute[i]
                if d.surplus == 0.0:
                    assert d.delta == 0.0
                else:
                    assert d.delta * d.surplus >= 0.0

    def test_multi_quota_rejected(self):
        g = VotingGame(
            player_ids=("a", "b"),
            weights=((1.0, 1.0), (1.0, 1.0)),
            quotas=(1.0, 1.0),
        )
        with pytest.raises(InvalidGameError, match="single-quota"):
            association_delta(g, AssociationMatrix.identity(2), 0)
