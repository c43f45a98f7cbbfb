import dataclasses
import gc
import math
import pathlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf import bounds, exact
from banzhaf.bounds import (
    _all_critical,
    all_critical_weight_check,
    bounds_report,
    conjecture_check,
    conjecture_scan,
    global_bounds,
    ht_bound,
    ht_profile,
    scan_all_critical_coalitions,
    size_window,
)
from banzhaf.cli import main
from banzhaf.data import RandomGameSpec, load_game_file, random_game, random_weights
from banzhaf.exact import SINGLE_QUOTA_PLAYER_CAP, exact_indices
from banzhaf.games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    coalition_of,
    seeded_rng,
    single_quota_game,
)

from oracles import (
    corpus,
    fraction_global_bounds,
    loop_all_critical_check,
    loop_all_critical_scan,
    loop_conjecture_scan,
    loop_ht_profile,
    loop_size_window,
    parity_games,
    planned,
    winning_coalitions,
)


def game_321():
    return single_quota_game([3, 2, 1], 4)


# The scan's specs: stacked grids of up to 16 players, zero weights, quotas
# that take the boundary tolerance, games past the sorted halves' cap, heavy
# games of which some take the sorted halves, wide games whose counts pass
# int64, and games of one or two players weighing 0 or 1.
SCAN_SPECS = [
    RandomGameSpec(),
    RandomGameSpec(max_players=16),
    RandomGameSpec(min_weight=0),
    RandomGameSpec(quota_fraction=0.37),
    RandomGameSpec(min_players=41, max_players=48),
    RandomGameSpec(max_players=4, max_weight=40),
    RandomGameSpec(63, 70, 0, 1),
    RandomGameSpec(1, 2, 0, 1),
]
SCAN_IDS = ["default", "max-players-16", "min-weight-0", "quota-0.37", "players-41-to-48", "heavy", "wide", "tiny"]


def other_reports():
    """Exact reports that are not `game_321`'s: five players, and its own
    three players renamed."""
    return (
        exact_indices(single_quota_game([1, 1, 1, 1, 9], 7)),
        exact_indices(single_quota_game([3, 2, 1], 4, player_ids=("a", "b", "c"))),
    )


@pytest.mark.parametrize("check", [bounds_report, global_bounds, conjecture_check])
def test_association_report_is_rejected(check):
    """The bounds and the conjecture's cap are about classical indices: a
    report of association-aware ones is refused, not flagged against them."""
    game = game_321()
    report = exact_indices(game, AssociationMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert report.mode == "association"
    with pytest.raises(InvalidGameError, match="needs a classical report, got mode 'association'"):
        check(game, report)


def multi_quota_game():
    return VotingGame(
        player_ids=("a", "b"),
        weights=((1.0, 1.0), (1.0, 1.0)),
        quotas=(1.0, 1.0),
    )


class TestHtBound:
    def test_spec_examples(self):
        g = game_321()
        assert ht_profile(g, 0) == (1, None)
        assert ht_bound(g, 0) == 0.75
        assert ht_profile(g, 2) == (2, 2)
        assert ht_bound(g, 2) == 0.25

    def test_sum_within_the_boundary_tolerance_counts_as_winning(self):
        # 1 + 1 + 1 lies within the tolerance below the quota 3.0000000000000004, so it wins
        game = single_quota_game([1, 1, 1, 7], 0.30000000000000004 * 10)
        assert exact_indices(game).absolute[0] == 0.125
        assert ht_profile(game, 0) == (2, 1)
        assert ht_bound(game, 0) == 0.25

    def test_unwinnable_game(self):
        g = single_quota_game([3, 2, 1], 7)
        for i in range(3):
            t, h = ht_profile(g, i)
            assert t == 3
            assert h is None
            assert ht_bound(g, i) == 0.0

    def test_dominant_player_keeps_sound_bound(self):
        # p1 alone meets the quota: no coalition can be excluded, t = 0 and
        # the bound stays at the attainable 1.0
        g = single_quota_game([20, 1, 1], 11)
        assert ht_profile(g, 0) == (0, None)
        assert ht_bound(g, 0) == 1.0
        assert exact_indices(g).absolute[0] == 1.0

    def test_sound_on_corpus(self):
        for game, _ in corpus(60, seed=801, max_players=10):
            exact = exact_indices(game)
            for i in range(game.num_players):
                assert exact.absolute[i] <= ht_bound(game, i)

    def test_multi_quota_rejected(self):
        with pytest.raises(InvalidGameError, match="single-quota"):
            ht_bound(multi_quota_game(), 0)

    @given(
        st.lists(st.integers(1, 15), min_size=2, max_size=9),
        st.floats(0.3, 0.9),
    )
    @settings(max_examples=80, deadline=None)
    def test_sound_property(self, weights, frac):
        game = single_quota_game(weights, max(1.0, frac * sum(weights)))
        exact = exact_indices(game)
        for i in range(game.num_players):
            assert exact.absolute[i] <= ht_bound(game, i)


class TestSearchParity:
    """`ht_profile` and `size_window` find each edge with one binary search;
    they must agree with the step-by-step loops they replaced."""

    def test_ht_profile_matches_loops(self):
        for game in parity_games(1500, seed=811, max_players=12):
            for i in range(game.num_players):
                assert ht_profile(game, i) == loop_ht_profile(game, i), (game, i)

    def test_size_window_matches_loops(self):
        games = parity_games(3000, seed=812, max_players=40)
        assert max(g.num_players for g in games) == 40
        for game in games:
            assert size_window(game) == loop_size_window(game), game

    @pytest.mark.parametrize(
        "weights, quota",
        [([1e-20, 1, 2], 2.0), ([1, 2.5], 1e17), ([1, 2.5], 1e19), ([7, 3], 1e18),
         ([3e-9, 0.7, 5.0], 12.5), ([1e-16, 1], 1.0)],
    )
    def test_size_window_far_past_the_players(self, weights, quota):
        """Where an edge lies beyond 2^53, consecutive sizes share a float
        product, and the flip sits thousands of sizes from the division's
        guess; the search window must still hold it."""
        game = single_quota_game(weights, quota)
        assert size_window(game) == loop_size_window(game)


class TestSizeWindow:
    def test_spec_examples(self):
        assert size_window(game_321()) == (1, 8)
        assert size_window(single_quota_game([1, 1], 3)) == (2, 5)
        assert size_window(single_quota_game([1], 0.5)) == (0, 2)

    def test_m_low_compares_against_the_winning_threshold(self):
        """A quota one rounding above 3 wins at sum 3 through the boundary
        tolerance, so the 3-player coalition can win and m_low is 2."""
        game = single_quota_game([1, 1, 1], 0.30000000000000004 * 10)
        assert game.quotas[0] > 3.0 >= game.winning_thresholds[0]
        assert exact_indices(game).absolute == (0.25, 0.25, 0.25)
        assert size_window(game) == (2, 5)
        bounds = global_bounds(game)
        assert (bounds.m_low, bounds.bound1, bounds.bound2) == (2, -0.375, -0.375)

    def test_zero_min_weight_unbounded_above(self):
        m_low, m_high = size_window(single_quota_game([2, 0], 1))
        assert m_high == math.inf
        assert m_low == 0

    def test_window_ordering(self):
        for game, _ in corpus(40, seed=802, max_players=12):
            m_low, m_high = size_window(game)
            assert m_low < m_high

    def test_sizes_outside_window_cannot_swing(self):
        for game, _ in corpus(25, seed=803, max_players=9):
            m_low, m_high = size_window(game)
            from banzhaf.games import coalition_members, is_critical_classical, is_winning

            for c in range(1, 1 << game.num_players):
                size = bin(c).count("1")
                if size <= m_low:
                    assert not is_winning(game, c)
                if not math.isinf(m_high) and size >= m_high:
                    for i in coalition_members(c):
                        assert not is_critical_classical(game, i, c)


class TestSizeEdgeLimit:
    """An edge at or beyond 2^109 sizes is a data error naming the ratio,
    not an `OverflowError` from the search."""

    @pytest.mark.parametrize(
        "weights, quota, ratio",
        [([1, 2], 1e34, "quota / max weight"),
         ([1, 2], 2.0**109 * 1.5, r"\(quota \+ max weight\) / min weight"),
         ([1e-300, 1], 1e10, r"\(quota \+ max weight\) / min weight")],
    )
    def test_extreme_quota_is_a_data_error(self, weights, quota, ratio):
        game = single_quota_game(weights, quota)
        with pytest.raises(InvalidGameError, match=f"quota-to-weight ratio {ratio} = "):
            size_window(game)
        with pytest.raises(InvalidGameError, match="2\\^109"):
            bounds_report(game)

    def test_edges_just_below_the_limit_are_searched(self):
        q = 2.0**108
        m_low, m_high = size_window(single_quota_game([1, 2], q))
        # each edge is where its float test flips, sizes rounding to a float
        assert m_low * 2.0 < q and not (m_low + 1) * 2.0 < q
        assert m_high * 1.0 - 2.0 > q and not (m_high - 1) * 1.0 - 2.0 > q


class TestGlobalBounds:
    def test_spec_example_and_flags(self):
        g = game_321()
        gb = global_bounds(g, exact_indices(g))
        assert gb.bound1 == 0.0
        assert gb.bound2 == -0.125
        assert gb.bound1_violated is True
        assert gb.bound2_violated is True

    def test_single_player_instance(self):
        g = single_quota_game([1], 0.5)
        gb = global_bounds(g, exact_indices(g))
        assert gb.bound1 == 0.0
        assert gb.bound1_violated is True

    def test_report_of_another_game_rejected(self):
        for report in other_reports():
            with pytest.raises(InvalidGameError, match="players do not match"):
                global_bounds(game_321(), report)

    def test_flags_absent_without_exact(self):
        gb = global_bounds(game_321())
        assert gb.bound1_violated is None
        assert gb.bound2_violated is None

    def test_matches_rational_oracle(self):
        for game, _ in corpus(40, seed=804, max_players=12):
            gb = global_bounds(game)
            n = game.num_players
            top = n if math.isinf(gb.M_high) else min(int(gb.M_high), n)
            b1, b2 = fraction_global_bounds(n, gb.m_low, top)
            assert gb.bound1 == float(b1)
            assert gb.bound2 == float(b2)


class TestAllCriticalWeight:
    def test_spec_examples(self):
        g = game_321()
        assert all_critical_weight_check(g, coalition_of([0, 2])) == "holds"
        assert all_critical_weight_check(g, coalition_of([0, 1, 2])) == "not-applicable"
        assert all_critical_weight_check(single_quota_game([5], 3), 0b1) == "not-applicable"

    def test_losing_coalition_rejected(self):
        with pytest.raises(InvalidGameError, match="winning"):
            all_critical_weight_check(game_321(), coalition_of([2]))

    def test_scan_counts_and_no_violations(self):
        checked, violations = scan_all_critical_coalitions(game_321())
        assert checked == 2  # {p1,p2} and {p1,p3}
        assert violations == []

    def test_corpus_property(self):
        for game, _ in corpus(40, seed=805, max_players=9):
            _, violations = scan_all_critical_coalitions(game)
            assert violations == []

    def test_check_matches_loop_on_every_winner(self):
        games = [g for g, _ in corpus(150, seed=806, max_players=9)]
        for game in games + parity_games(60, seed=810, max_players=9):
            for c, _ in winning_coalitions(game):
                assert all_critical_weight_check(game, c) == loop_all_critical_check(game, c)

    def test_scan_matches_loop_up_to_16_players(self):
        rng = np.random.default_rng(807)
        tenths = [single_quota_game((rng.integers(0, 30, m) / 10).tolist(), q)
                  for m, q in ((5, 1.1), (8, 2.3), (11, 0.7), (12, 5.0))]
        weights16 = [0, 0.1, 0.3, 1, 2.5, 0, 7, 0.2, 3, 3, 1.5, 0, 0.1, 4, 2, 9.7]
        mixed = single_quota_game(weights16, 15.3)
        for game in parity_games(45, seed=808, max_players=12) + tenths + [mixed]:
            assert scan_all_critical_coalitions(game) == loop_all_critical_scan(game)

    def test_scan_matches_loop_across_high_blocks(self, monkeypatch):
        # a 3-bit low half puts most players in the high half and streams
        # blocks past the cache budget, as games beyond 16 players do
        monkeypatch.setattr(exact, "_DEFAULT_BLOCK_BITS", 3)
        rng = np.random.default_rng(809)
        for m in range(4, 13):
            weights = rng.integers(1, 20, m)
            game = single_quota_game(weights.tolist(), float(rng.integers(1, weights.sum() + 1)))
            assert scan_all_critical_coalitions(game) == loop_all_critical_scan(game)

    def test_violations_listed_in_mask_order(self, monkeypatch):
        # flag every coalition the cap applies to, to see each bitmask rebuilt
        # from its membership column, in order, across streamed high blocks
        monkeypatch.setattr(exact, "_DEFAULT_BLOCK_BITS", 3)
        kernel = bounds._all_critical
        monkeypatch.setattr(bounds, "_all_critical", lambda *a: (kernel(*a)[0],) * 2)
        game = single_quota_game([5, 1, 4, 2, 2, 6, 3, 1, 2, 5], 16)
        applicable = [c for c, _ in winning_coalitions(game)
                      if loop_all_critical_check(game, c) != "not-applicable"]
        assert scan_all_critical_coalitions(game) == (len(applicable), applicable)

    def test_kernel_flags_a_violation(self):
        # no true coalition sum violates the cap, so the sums are crafted:
        # members {p1, p2} of weights 7 and 7 with quota 6 have cap 2 * 6 / 1 = 12
        game = single_quota_game([7, 7, 1], 6)
        members = np.array([[1, 1, 1, 1], [1, 1, 0, 1], [0, 0, 0, 1]], dtype=bool)
        sums = np.array([[12.0, 11.5, 12.0, 13.0]])
        applies, violated = _all_critical(game, sums, members)
        # the third is a singleton; the fourth is not all-critical (13 - 1 >= 6)
        assert applies.tolist() == [True, True, False, False]
        assert violated.tolist() == [True, False, False, False]

    def test_scan_capped_before_any_block(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built a table's arrays for a game past the cap")

        # neither the enumerator's blocks nor the table's engine arrays: an
        # integer game's sum grid, or a half-integer game's sorted halves
        monkeypatch.setattr(exact, "subset_sums", fail)
        monkeypatch.setattr(exact, "_grid_stack", fail)
        for weights in ([1] * 33, [w + 0.5 for w in range(40)]):
            with pytest.raises(InvalidGameError, match=f"capped at 32 players, got {len(weights)}"):
                scan_all_critical_coalitions(single_quota_game(weights, sum(weights) / 2))

    def test_scan_warns_like_the_enumerator(self, monkeypatch, capsys):
        """The enumeration's warning points at the caller of every public
        entry point: the scan, a table, the indices, the EU study and the CLI
        (`association_delta` takes single-quota games, which never enumerate)."""
        monkeypatch.setattr(exact, "SOFT_PLAYER_WARNING", 3)
        sample = pathlib.Path(__file__).parents[1] / "docs" / "sample-game.json"
        two_quotas, results = load_game_file(sample), []
        for call in (
            lambda: scan_all_critical_coalitions(game_321()),
            lambda: exact.CoalitionTable(two_quotas),
            lambda: exact_indices(two_quotas),
            lambda: exact.association_study(two_quotas, seed=0, runs=2),
            lambda: main(["exact", "--game", str(sample)]),
        ):
            with pytest.warns(RuntimeWarning, match=r"^enumerating 2\^3 coalitions; expect a long run$") as record:
                results.append(call())
            assert len(record) == 1 and record[0].filename == __file__
        assert (results[0], results[-1]) == ((2, []), 0)


class TestConjecture:
    def test_hand_instances(self):
        ce, slack = conjecture_check(game_321())
        assert ce == []
        assert slack == pytest.approx(0.4)
        ce1, slack1 = conjecture_check(single_quota_game([5], 3))
        assert ce1 == []
        assert slack1 == pytest.approx(1.0)

    def test_counterexample_reported(self):
        # no random game in the suite breaks the cap, so the report is doctored:
        # p1's normalized index 1.25 exceeds 2 * 3 / 6 = 1
        game = game_321()
        report = dataclasses.replace(exact_indices(game), normalized=(1.25, 0.0, 0.0))
        ce, slack = conjecture_check(game, report)
        assert ce == [("weights=[3.0, 2.0, 1.0] q=4.0", "p1", 1.25, 1.0)]
        assert slack == -0.25

    def test_report_of_another_game_rejected(self):
        five = single_quota_game([1, 1, 1, 1, 9], 7)
        for game, report in ((five, exact_indices(game_321())), (game_321(), other_reports()[1])):
            with pytest.raises(InvalidGameError, match="players do not match"):
                conjecture_check(game, report)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(InvalidGameError, match="total weight is 0"):
            conjecture_check(single_quota_game([0, 0], 1))

    def test_scan_deterministic(self):
        spec = RandomGameSpec(max_players=8)
        a = conjecture_scan(50, seed=77, spec=spec)
        b = conjecture_scan(50, seed=77, spec=spec)
        assert a == b
        assert a.games_scanned == 50
        assert math.isfinite(a.min_slack)

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidGameError, match="positive"):
            conjecture_scan(0, seed=1)

    @pytest.mark.parametrize(
        "trials, seed, message",
        [
            (True, 0, "trials must be an integer, got True"),
            (2.5, 0, "trials must be an integer, got 2.5"),
            ("3", 0, "trials must be an integer, got '3'"),
            (3, False, "seed must be an integer, got False"),
            (3, 1.0, "seed must be an integer, got 1.0"),
            (3, None, "seed must be an integer, got None"),
        ],
    )
    def test_non_integer_trials_or_seed_rejected(self, trials, seed, message):
        with pytest.raises(InvalidGameError, match=f"^{re.escape(message)}$"):
            conjecture_scan(trials, seed)

    def test_numpy_integers_accepted(self):
        assert conjecture_scan(np.int64(3), np.uint8(1)) == conjecture_scan(3, 1)

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=SCAN_IDS)
    @pytest.mark.parametrize("windows", [0.5, 2.25])
    def test_scan_is_a_loop_of_checks(self, spec, windows):
        """The window counter's swing counts are `exact_indices`' on each
        trial's `random_game`, and the scan's report is the loop's."""
        trials, seed = int(windows * bounds._SCAN_WINDOW), 1604
        counted = []
        for start in range(0, trials, bounds._SCAN_WINDOW):
            rows, _, _, counts = bounds._window_counts(seed, range(start, min(trials, start + bounds._SCAN_WINDOW)), spec)
            counted += np.split(counts, np.cumsum([w.size for w in rows])[:-1])
        expected = [exact_indices(random_game(seeded_rng(seed, t), spec)).swing_counts for t in range(trials)]
        assert [tuple(c.tolist()) for c in counted] == expected
        assert conjecture_scan(trials, seed, spec) == loop_conjecture_scan(trials, seed, spec)

    def test_wide_scan_is_its_loop(self, monkeypatch):
        """Games of 3 to 100 players of weight 1 all fit the sum grid, though
        their counts pass int64 from 63 players, so every game is stacked and
        the scan is its loop's.  The grid mask caps each player count in
        Python ints, since 16 m 2^(m/2) passes int64 from 105 players."""
        stacked, seen = exact._stacked_swings, []

        def recorded(weights, totals, thresholds):
            seen.extend(totals.tolist())
            return stacked(weights, totals, thresholds)

        monkeypatch.setattr(exact, "_stacked_swings", recorded)
        spec = RandomGameSpec(max_players=100, max_weight=1)
        assert conjecture_scan(150, 3, spec) == loop_conjecture_scan(150, 3, spec)
        sizes = [random_weights(seeded_rng(3, t), spec).size for t in range(150)]
        assert seen == sizes and max(sizes) > 62
        ones = [np.ones(m, dtype=np.int64) for m in (104, 105, 127, 128, 160)]
        totals = np.array([w.size for w in ones])
        games = [single_quota_game(w.tolist(), t / 2) for w, t in zip(ones, totals.tolist())]
        counts = exact.integer_game_counts(ones, totals, totals / 2)
        assert counts.tolist() == [c for g in games for c in exact_indices(g).swing_counts]
        assert seen[150:] == totals.tolist()

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=SCAN_IDS)
    def test_weights_are_random_games(self, spec):
        for t in range(500):
            game = random_game(seeded_rng(7, t), spec)
            assert random_weights(seeded_rng(7, t), spec).tolist() == [w for (w,) in game.weights]

    @pytest.mark.parametrize(
        "spec",
        [RandomGameSpec(), RandomGameSpec(quota_fraction=0.37),
         RandomGameSpec(quota_fraction=Fraction(1, 3)), RandomGameSpec(quota_fraction=3.0)],
        ids=["half-of-odd-totals", "quota-0.37", "quota-one-third", "quota-3"],
    )
    def test_thresholds_are_the_games(self, monkeypatch, spec):
        """Each trial's threshold is its game's, bit for bit: half an odd
        total, 0.37 and a third of a total are not whole, so they take the
        boundary tolerance, and three times a total is whole."""
        stacked, seen = exact._stacked_swings, []

        def recorded(weights, totals, thresholds):
            seen.extend(thresholds.tolist())
            return stacked(weights, totals, thresholds)

        monkeypatch.setattr(exact, "_stacked_swings", recorded)
        conjecture_scan(300, 5, spec)
        games = [random_game(seeded_rng(5, t), spec) for t in range(300)]
        # games that the plan keeps off a stack are built as games
        expected = [g.winning_thresholds[0] for g in games if planned(g, stacked=True) == "subset-sum"]
        assert len(expected) > 250
        assert [x.hex() for x in seen] == [x.hex() for x in expected]
        assert any(not x.is_integer() for x in expected) is (spec.quota_fraction != 3)

    @pytest.mark.parametrize(
        "fraction, message",
        [
            (1e-320, "quotas[0]: boundary tolerance 1.12e-10 reaches the quota 1.11999e-318, so the empty coalition would win"),
            (1e-14, "quotas[0]: boundary tolerance 1.12e-10 reaches the quota 1.12e-12, so the empty coalition would win"),
            (1e308, "quotas[0]: not finite"),
        ],
    )
    def test_edge_trials_raise_the_games_errors(self, fraction, message):
        spec = RandomGameSpec(quota_fraction=fraction)
        with pytest.raises(InvalidGameError, match=f"^{re.escape(message)}$"):
            random_game(seeded_rng(1, 0), spec)
        with pytest.raises(InvalidGameError, match=f"^{re.escape(message)}$"):
            conjecture_scan(5, 1, spec)

    def test_counterexample_of_the_window_is_the_checks(self, monkeypatch):
        """Doctored counts through the scan's normalization and cap rule give
        the counterexample and slack that `conjecture_check` gives: p1's
        normalized index 5 / 4 exceeds 2 * 3 / 6 = 1."""
        counts = np.array([5, -1, 0], dtype=object)
        monkeypatch.setattr(bounds, "_window_counts", lambda *a: ([np.array([3, 2, 1])], [6], [4.0], counts))
        report = conjecture_scan(1, 0)
        doctored = dataclasses.replace(exact_indices(game_321()), normalized=(1.25, 0.0, 0.0))
        found, slack = conjecture_check(game_321(), doctored)
        assert found == [("weights=[3.0, 2.0, 1.0] q=4.0", "p1", 1.25, 1.0)]
        assert (report.counterexamples, report.min_slack) == (tuple(found), slack)

    def test_memory_does_not_grow_with_trials(self):
        """A scan holds one window of games at a time.  The interpreter keeps
        freed tuples on free lists, which tracemalloc counts as live, so a
        first scan fills them, and the collector, which empties them, is off."""

        def peak(trials):
            tracemalloc.start()
            try:
                conjecture_scan(trials, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        gc.disable()
        try:
            conjecture_scan(3000, seed=2)
            small, large = peak(300), peak(3000)
        finally:
            gc.enable()
        assert large <= 1.2 * small

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"min_players": 0}, "min_players must be at least 1, got 0"),
            ({"max_players": 2}, "max_players must be at least min_players (3), got 2"),
            ({"min_weight": -1}, "min_weight must be at least 0, got -1"),
            ({"max_weight": 0}, "max_weight must be at least min_weight (1), got 0"),
            ({"max_players": 12.5}, "max_players must be an integer, got 12.5"),
            ({"min_players": np.float64(3)}, f"min_players must be an integer, got {np.float64(3)!r}"),
            ({"max_weight": True}, "max_weight must be an integer, got True"),
            ({"min_weight": "1"}, "min_weight must be an integer, got '1'"),
            ({"max_weight": 2**62}, f"max_weight, the largest total, must be below 2^53, got {12 * 2**62}"),
            ({"max_weight": 10**18}, f"max_weight, the largest total, must be below 2^53, got {12 * 10**18}"),
            ({"max_players": 2**50, "max_weight": 8}, f"the largest total, must be below 2^53, got {2**53}"),
            ({"quota_fraction": True}, "quota_fraction must be a positive finite number, got True"),
            ({"quota_fraction": -1.0}, "quota_fraction must be a positive finite number, got -1.0"),
            ({"quota_fraction": 0.0}, "quota_fraction must be a positive finite number, got 0.0"),
            ({"quota_fraction": math.nan}, "quota_fraction must be a positive finite number, got nan"),
            ({"quota_fraction": math.inf}, "quota_fraction must be a positive finite number, got inf"),
            ({"quota_fraction": "0.5"}, "quota_fraction must be a positive finite number, got '0.5'"),
        ],
    )
    def test_spec_fields_checked(self, fields, message):
        with pytest.raises(InvalidGameError, match=re.escape(message)):
            conjecture_scan(5, seed=1, spec=RandomGameSpec(**fields))

    def test_player_cap_checked_before_the_first_trial(self, monkeypatch):
        """Past the sorted halves' cap a spec's heaviest game must fit the sum
        grid: 48 players of weight 29,127 make 2^26 - 208 cells, of 29,128 more."""

        class Drawn(Exception):
            pass

        def drawn(seed, trials, spec):
            raise Drawn

        cap = SINGLE_QUOTA_PLAYER_CAP
        assert exact._GRID_CELLS == 2**26 and 48 * (48 * 29127 + 1) == 2**26 - 208
        monkeypatch.setattr(bounds, "random_weight_rows", drawn)
        spec = RandomGameSpec(min_players=cap + 1, max_players=48, max_weight=29128)
        message = (
            f"max_players above {cap} needs every sum grid to fit its budget, "
            f"but 48 players of weight 29128 make {48 * (48 * 29128 + 1)} cells"
        )
        with pytest.raises(InvalidGameError, match=f"^{re.escape(message)}$"):
            conjecture_scan(5, seed=1, spec=spec)
        with pytest.raises(Drawn):
            conjecture_scan(5, seed=1, spec=dataclasses.replace(spec, max_weight=29127))
        # up to the cap the sorted halves count any weights
        for players, raised in ((cap, Drawn), (cap + 1, InvalidGameError)):
            spec = RandomGameSpec(min_players=players, max_players=players, max_weight=10**9)
            with pytest.raises(raised):
                conjecture_scan(5, seed=1, spec=spec)

    def test_zero_weight_spec_finishes(self):
        spec = RandomGameSpec(min_players=1, max_players=2, min_weight=0, max_weight=1)
        assert conjecture_scan(50, seed=0, spec=spec).games_scanned == 50
        with pytest.raises(InvalidGameError, match="^max_weight must be at least 1, got 0$"):
            RandomGameSpec(min_weight=0, max_weight=0)

    def test_spec_at_its_edges_scans(self):
        RandomGameSpec(min_weight=0)
        spec = RandomGameSpec(min_players=1, max_players=1, min_weight=7, max_weight=7)
        report = conjecture_scan(10, seed=1, spec=spec)
        assert (report.games_scanned, report.counterexamples) == (10, ())
        assert report.min_slack == 1.0  # one player: index 1, cap 2


class TestBoundsReport:
    def test_assembles_all_pieces(self):
        g = game_321()
        rep = bounds_report(g, exact_indices(g))
        assert rep.ht_bounds == (0.75, 0.5, 0.25)
        assert rep.t_values == (1, 2, 2)
        assert rep.h_values == (None, None, 2)
        assert rep.m_low == 1 and rep.M_high == 8
        assert rep.ht_violations == (False, False, False)
        assert rep.bound1_violated is True

    def test_multi_quota_rejected(self):
        with pytest.raises(InvalidGameError, match="single-quota"):
            bounds_report(multi_quota_game())

    def test_report_of_another_game_rejected(self):
        for report in other_reports():
            with pytest.raises(InvalidGameError, match="players do not match"):
                bounds_report(game_321(), report)

    def test_report_of_another_game_with_the_same_players_rejected(self):
        """Every m-player `single_quota_game` names its players p1..pm, so a
        report matches its game by weight rows and quotas too: [1, 3]'s
        report, flagged against [3, 1], read (False, True)."""
        game = single_quota_game([3, 1], 3)
        for other in (single_quota_game([1, 3], 3), single_quota_game([3, 1], 4)):
            for check in (bounds_report, global_bounds, conjecture_check):
                with pytest.raises(InvalidGameError, match="^game weights or quotas do not match the report's$"):
                    check(game, exact_indices(other))
        assert bounds_report(game, exact_indices(single_quota_game([3, 1], 3))).ht_violations == (False, False)

    def test_bounds_are_ht_bound_of_each_profile(self):
        for game, _ in corpus(60, seed=831, max_players=12):
            rep = bounds_report(game)
            m = game.num_players
            assert rep.ht_bounds == tuple(ht_bound(game, i) for i in range(m))
            assert list(zip(rep.t_values, rep.h_values)) == [ht_profile(game, i) for i in range(m)]
