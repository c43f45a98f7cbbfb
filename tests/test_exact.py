import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf import exact
from banzhaf.cli import main
from banzhaf.data import (
    MigrationTable,
    RandomGameSpec,
    build_migration_association,
    dump_game,
    eu_game,
    random_association,
    random_game,
)
from banzhaf.exact import (
    HARD_PLAYER_CAP,
    SINGLE_QUOTA_PLAYER_CAP,
    CoalitionTable,
    _break_bounds,
    association_delta,
    exact_indices,
)
from banzhaf.games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    persuasion_load,
    persuasion_loads,
    seeded_rng,
    single_quota_game,
    sums_win,
)

from oracles import (
    corpus,
    dp_load_swings,
    loop_win_bounds,
    naive_gain_loss,
    naive_load_swings,
    naive_swing_counts,
    parity_games,
    winning_coalitions,
)
from test_games import small_games


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

    def test_multi_quota(self):
        g = VotingGame(
            player_ids=("a", "b", "c"),
            weights=((2.0, 1.0), (1.0, 2.0), (1.0, 1.0)),
            quotas=(3.0, 3.0),
        )
        counts = naive_swing_counts(g)
        assert exact_indices(g).swing_counts == tuple(counts)


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

    def test_matches_naive_oracle(self):
        for game, phi in corpus(30, seed=902, max_players=8, with_phi=True):
            assert exact_indices(game, phi).swing_counts == tuple(naive_swing_counts(game, phi))
            assert exact_indices(game).swing_counts == tuple(naive_swing_counts(game))


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
            table = _table(game, bits)
            assert tuple(table._enumerated_swings(np.arange(m), loads, game.thresholds())) == expected

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
        assert table.swing_counts(game.weight_matrix).tolist() == naive_swing_counts(game)
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


def _table(game, bits=None):
    """``CoalitionTable(game)`` with its enumerator's blocks built, and with
    ``bits`` players in their low half if given (else the default)."""
    with pytest.MonkeyPatch.context() as patch:
        if bits is not None:
            patch.setattr(exact, "_DEFAULT_BLOCK_BITS", bits)
        table = CoalitionTable(game)
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
            winners = len(winning_coalitions(game, strict))
            for loads in loads_list:
                expected = naive_load_swings(game, loads, strict)
                for table in tables:
                    assert table.swing_counts(loads, strict=strict).tolist() == expected
                    _check_cache(table, strict, winners)
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
        """Single-quota games' gain/loss on the engine each table chose, and
        enumerated as several quotas are, from a cached and from a streamed
        winner set, against the oracle."""
        compacted = 0
        for game, phi in corpus(8, seed=913, max_players=12, with_phi=True):
            base = game.weight_matrix
            alt = np.array(persuasion_loads(game, phi))
            expected = naive_gain_loss(winning_coalitions(game), base, alt, game.winning_thresholds)
            compact, stream = _table(game), _table(game, 2)
            for table in (compact, stream):
                for engine in (table.engine, "enumeration"):
                    table.engine = engine
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
        table = CoalitionTable(game)
        counts = table._enumerated_swings(np.arange(20), game.weight_matrix, game.thresholds())
        assert table._winning_sets == {}
        assert list(counts) == [math.comb(19, 9)] * 20


def _against_enumerator(game, loads_list):
    """Every count of the sorted-half path on a table of ``game``, and of the
    engine the table chose, equals the enumerator's over the same sums (its
    blocks split evenly, as the sorted halves do): swings under both
    conventions for every load matrix.  Each player's gain/loss from the
    first matrix to the others is the oracle's on the chosen engine, the
    sorted halves and the enumerator."""
    m = game.num_players
    table, players = _table(game, (m + 1) // 2), np.arange(m)
    for loads in loads_list:
        for strict in (False, True):
            thresholds = game.thresholds(strict)
            expected = table._enumerated_swings(players, loads, thresholds)
            assert np.array_equal(table.swing_counts(loads, strict=strict), expected)
            assert np.array_equal(table._sorted_swings(players, loads, thresholds), expected)
    base, winners, engines = loads_list[0], winning_coalitions(game), (table.engine, "sorted-half", "enumeration")
    for alt in loads_list[1:]:
        expected = naive_gain_loss(winners, base, alt, game.winning_thresholds)
        for engine in engines:
            table.engine = engine
            assert [table.criticality_gain_loss(i, base[i], alt[i]) for i in range(m)] == expected


def _pulling_against(m):
    """Association where every player pushes every other back: most
    persuasion loads are negative."""
    a = -np.ones((m, m))
    np.fill_diagonal(a, 1.0)
    return AssociationMatrix(tuple(map(tuple, a.tolist())))


class TestSortedHalf:
    """Single-quota games with non-integer weights count on the sorted halves,
    and the tests call that path directly on integer games too.  Its counts
    must be the enumerator's to the bit over the same sums (either convention,
    any loads) and the brute-force oracle's."""

    def test_oracle_corpus_with_negative_loads(self):
        for game, phi in corpus(20, seed=921, max_players=8, with_phi=True):
            against = _pulling_against(game.num_players)
            loads = [np.array(persuasion_loads(game, p)) for p in (phi, against)]
            assert (loads[1] < 0).any()
            assert exact_indices(game, against).swing_counts == tuple(naive_swing_counts(game, against))
            _against_enumerator(game, [game.weight_matrix, *loads, -game.weight_matrix])

    def test_non_integer_corpus(self):
        rng = np.random.default_rng(922)
        for _ in range(30):
            m = int(rng.integers(2, 11))
            weights = rng.uniform(0.0, 3.0, size=m)
            game = single_quota_game(weights.tolist(), float(weights.sum() * rng.uniform(0.2, 0.8)))
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            np.fill_diagonal(a, 1.0)
            loads = np.array(persuasion_loads(game, AssociationMatrix(tuple(map(tuple, a.tolist())))))
            assert exact_indices(game).swing_counts == tuple(naive_swing_counts(game))
            _against_enumerator(game, [game.weight_matrix, loads])

    def test_thresholds_and_loads_on_coalition_sums(self):
        """Thresholds set to a coalition sum as the table forms it, and one
        ulp either side, so that the bounds' first guesses must be corrected
        across runs of equal sums; loads likewise put ``s - l`` on them."""
        rng = np.random.default_rng(923)
        for _ in range(12):
            m = int(rng.integers(3, 10))
            weights = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1, 2.5], size=m)
            game = single_quota_game(weights.tolist(), float(weights.sum() / 2))
            # the enumerator's blocks split evenly, as the sorted halves do
            table, players = _table(game, (m + 1) // 2), np.arange(m)
            low, high = table._blocks
            sums = (high[0][:, None] + low[0][None, :]).ravel()
            for s in rng.choice(sums, size=3):
                for t in (np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf)):
                    thresholds = (float(t),)
                    shift = float(rng.choice(sums)) - float(t)
                    for loads in (game.weight_matrix, game.weight_matrix * 0 + shift):
                        counts = table._sorted_swings(players, loads, thresholds)
                        expected = table._enumerated_swings(players, loads, thresholds)
                        assert np.array_equal(counts, expected)

    def test_win_edge_is_the_break_edge_at_load_zero(self):
        """Where the coalitions of each scanned sum start to win, among the
        other half's sorted sums, is the break edge at load 0.  It must equal
        the search with `sums_win` it replaced, and the count of losers per
        scanned sum, for both halves and either convention."""
        for game in parity_games(150, seed=924, max_players=10):
            for _, _, _, own, other in CoalitionTable(game)._sides:
                sums = own[:, None] + other[None, 1:-1]
                for strict in (False, True):
                    thresholds = game.thresholds(strict)
                    edge = _break_bounds(own, other, np.zeros(1), thresholds)[0]
                    assert np.array_equal(edge, loop_win_bounds(own, other, thresholds))
                    assert np.array_equal(edge, np.count_nonzero(~sums_win((sums,), thresholds), axis=1))

    @given(small_games())
    @settings(max_examples=150, deadline=None)
    def test_small_games(self, game):
        _against_enumerator(game, [game.weight_matrix, game.weight_matrix[::-1] - 1.0])


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


@st.composite
def grid_games(draw):
    """An integer single-quota game of 1 to 12 players, with many zero
    weights and an integral, half-integral or +0.01 quota, and a seed for a
    random association."""
    weights = draw(st.lists(st.integers(0, 7), min_size=1, max_size=12).filter(any))
    quota = draw(st.integers(1, sum(weights) + 1)) + draw(st.sampled_from([0.0, -0.5, 0.01]))
    return single_quota_game(weights, quota), draw(st.integers(0, 2**16))


class TestSumGrid:
    """Integer single-quota games count on their sum grid.  Its counts must
    be the sorted halves' and the brute-force oracle's under either
    convention and any loads, negative ones included, and stay exact past
    int64."""

    def test_engine_is_chosen_once_per_table(self):
        assert CoalitionTable(single_quota_game([3, 2, 1], 4)).engine == "subset-sum"
        assert CoalitionTable(single_quota_game([3, 2, 1], 3.5)).engine == "subset-sum"
        assert CoalitionTable(single_quota_game([3, 2, 1.5], 4)).engine == "sorted-half"
        assert CoalitionTable(eu_game()).engine == "enumeration"

    def test_engine_budget_edges(self):
        # at 3 players the grid may be 16 times the larger half, 4 entries
        assert exact._engine(single_quota_game([1, 2, 60], 30)) == "subset-sum"
        assert exact._engine(single_quota_game([1, 2, 61], 30)) == "sorted-half"
        # at 34 players the cell budget binds first: 2^26 // 34 sums
        sums = exact._GRID_CELLS // 34
        for extra, engine in ((0, "subset-sum"), (1, "sorted-half")):
            game = single_quota_game([1] * 33 + [sums - 34 + extra], sums // 2)
            assert exact._engine(game) == engine

    @given(grid_games())
    @settings(max_examples=200, deadline=None)
    def test_parity_with_the_sorted_halves_and_the_oracle(self, case):
        game, seed = case
        m = game.num_players
        table = CoalitionTable(game)
        assert table.engine == "subset-sum"
        against = np.array(persuasion_loads(game, _pulling_against(m)))
        loads = [game.weight_matrix, np.array(persuasion_loads(game, random_association(m, seed))), against]
        for strict in (False, True):
            thresholds = game.thresholds(strict)
            for rows in loads:
                counts = table.swing_counts(rows, strict=strict)
                assert np.array_equal(counts, table._sorted_swings(np.arange(m), rows, thresholds))
                if m <= 8:
                    assert counts.tolist() == naive_load_swings(game, rows, strict)
        base = loads[0]
        for alt in loads[1:]:
            got = [table.criticality_gain_loss(i, base[i], alt[i]) for i in range(m)]
            if m <= 8:
                assert got == naive_gain_loss(winning_coalitions(game), base, alt, game.winning_thresholds)
            table.engine = "sorted-half"
            assert [table.criticality_gain_loss(i, base[i], alt[i]) for i in range(m)] == got
            table.engine = "subset-sum"

    @pytest.mark.parametrize("budget", [16 * 3, 16 * 40])
    def test_gathers_cut_to_any_budget_agree(self, monkeypatch, budget):
        """The first budget gathers one row and two terms at a time, the
        second a few rows at a time and the heavy rows' terms in pieces."""
        games = [g for g in parity_games(150, seed=1701, max_players=12) if exact._engine(g) == "subset-sum"]
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
        assert exact._engine(game) == "subset-sum"
        game.weight_matrix  # cached before measuring
        tracemalloc.start()
        try:
            exact_indices(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * sums + exact._GROUP_BYTES


class TestClassicalReports:
    """`exact._classical_reports` counts the games of the sum grid together,
    in stacks, to the bits of `exact_indices`."""

    def test_equals_exact_indices(self):
        # integer, non-integer, zero-heavy and boundary-tolerance games of 1 to
        # 15 players: the integer ones are stacked, the others counted alone
        games = parity_games(400, seed=1601, max_players=15)
        assert {g.num_players for g in games} == set(range(1, 16))
        assert exact._classical_reports(games) == [exact_indices(g) for g in games]

    def test_stacks_mix_with_tables_and_python_ints(self):
        # heavy 3- and 4-player games, some of them sorted-half, between
        # stacked games of 63 to 70 players whose counts pass int64
        heavy, wide = RandomGameSpec(max_players=4, max_weight=40), RandomGameSpec(63, 70, 0, 1)
        games = [random_game(seeded_rng(1604, t), (heavy, wide)[t % 3 == 2]) for t in range(150)]
        assert {exact._engine(g) for g in games} == {"subset-sum", "sorted-half"}
        reports = exact._classical_reports(games)
        assert reports == [exact_indices(g) for g in games]
        assert max(max(r.swing_counts) for r in reports) >= 2**63
        assert {type(c) for r in reports for c in r.swing_counts} == {int}

    def test_two_decimal_weights(self):
        rng = np.random.default_rng(1602)
        games = []
        for _ in range(300):
            weights = np.round(rng.uniform(0.0, 9.99, int(rng.integers(1, 14))), 2)
            quota = max(0.01, round(float(rng.uniform(0.05, 1.0) * weights.sum()), 2))
            games.append(single_quota_game(weights.tolist(), quota))
        assert exact._classical_reports(games) == [exact_indices(g) for g in games]

    @pytest.mark.parametrize("budget", [8, 5 * (8 << 5), 8 * (8 << 8)])
    def test_chunks_of_any_size_agree(self, monkeypatch, budget):
        # a stack holds the games whose rows, padded to its widest, fit the
        # budget at 8 bytes per count: the first budget fits no row, so each
        # stack holds one game; the second fits 160 counts, a few light games
        # or one heavier game, and the third 2,048 counts
        games = parity_games(150, seed=1603, max_players=8)
        expected = [exact_indices(g) for g in games]
        monkeypatch.setattr(exact, "_GROUP_BYTES", budget)
        assert exact._classical_reports(games) == expected

    def test_memory_within_one_stack(self):
        """A stack's prefix fits `_GROUP_BYTES`, and its count adds at most
        one gather of that size, however many games there are: 400 games of
        12 players weighing up to 100 (up to 1,202 counts a row) take three
        stacks.  The reports, which outlive the count, are not counted."""
        spec = RandomGameSpec(min_players=12, max_weight=100)
        games = [random_game(seeded_rng(1605, t), spec) for t in range(400)]
        for game in games:  # cached before measuring
            game.weight_matrix, game.winning_thresholds
        tracemalloc.start()
        try:
            reports = exact._classical_reports(games)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 400
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
        for i, row in enumerate(expected):
            assert _bytes(persuasion_load(game, phi, i).load) == _bytes(row)


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
