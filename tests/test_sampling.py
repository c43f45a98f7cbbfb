import functools
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from banzhaf import sampling
from banzhaf.data import eu_game, random_association
from banzhaf.exact import exact_indices
from banzhaf.games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    persuasion_loads,
    removal_breaks,
    removal_loads,
    seeded_rng,
    single_quota_game,
    subset_sums,
    sums_win,
)
from banzhaf.sampling import (
    CI_METHODS,
    ConfidenceInterval,
    _byte_tables,
    _lookup_sums,
    _swing_count_for_player,
    confidence_interval,
    estimate_indices,
    required_samples,
    student_t_quantile,
)

from oracles import matmul_swing_count


def game_321():
    return single_quota_game([3, 2, 1], 4)


class TestEstimates:
    def test_deterministic_for_seed(self):
        g = game_321()
        a = estimate_indices(g, samples=500, seed=42)
        b = estimate_indices(g, samples=500, seed=42)
        assert a == b
        c = estimate_indices(g, samples=500, seed=43)
        assert a.estimates != c.estimates

    def test_hits_exact_values_on_forced_games(self):
        # p1 swings every coalition it joins; p2/p3 never swing
        g = single_quota_game([5, 0, 0], 5)
        r = estimate_indices(g, samples=300, seed=1)
        assert r.estimates == (1.0, 0.0, 0.0)

    def test_close_to_exact(self):
        g = game_321()
        exact = exact_indices(g).absolute
        r = estimate_indices(g, samples=20_000, seed=11)
        for est, truth in zip(r.estimates, exact):
            assert abs(est - truth) < 0.02

    def test_association_mode(self):
        g = single_quota_game([2, 1], 2)
        phi = AssociationMatrix(((1.0, 1.0), (0.5, 1.0)))
        r = estimate_indices(g, phi, samples=4000, seed=5)
        assert r.mode == "association"
        # exact association indices are (1.0, 0.5); p1 swings every sample
        assert r.estimates[0] == 1.0
        assert abs(r.estimates[1] - 0.5) < 0.05

    def test_sample_variance_matches_unbiased_formula(self):
        g = game_321()
        r = estimate_indices(g, samples=400, seed=9)
        for count, s2 in zip(r.swing_counts, r.sample_variances):
            draws = np.array([1.0] * count + [0.0] * (r.samples - count))
            assert s2 == pytest.approx(np.var(draws, ddof=1), rel=1e-12)
            assert s2 <= 0.25 + 1e-12

    def test_normalized_property(self):
        g = game_321()
        r = estimate_indices(g, samples=1000, seed=3)
        assert sum(r.normalized) == pytest.approx(1.0)
        zero = estimate_indices(single_quota_game([1, 1], 5), samples=50, seed=3)
        assert zero.normalized == (0.0, 0.0)

    def test_normalized_adds_in_player_order(self):
        """The estimates' total adds them in player order: ten estimates of
        0.1 total 0.9999999999999999, where `math.fsum` (and `sum` from
        Python 3.12) gives 1.0."""
        m = 10
        report = sampling.EstimateReport(
            player_ids=tuple(f"p{i}" for i in range(m)), mode="classical", estimates=(0.1,) * m,
            swing_counts=(1,) * m, samples=10, sample_variances=(None,) * m, seed=0,
        )
        total = functools.reduce(operator.add, report.estimates)
        assert total != math.fsum(report.estimates)
        assert report.normalized == tuple(e / total for e in report.estimates)
        assert report.normalized != tuple(e / math.fsum(report.estimates) for e in report.estimates)

    def test_bad_sample_count(self):
        with pytest.raises(Exception, match="positive"):
            estimate_indices(game_321(), samples=0, seed=1)

    @pytest.mark.parametrize("samples", [True, False, 2.5, 3.0, "10", None])
    def test_sample_count_must_be_an_integer(self, samples):
        """A bool would run as one or zero samples and a float fail inside
        numpy; both are named as the sample count instead."""
        with pytest.raises(InvalidGameError, match=f"^samples must be an integer, got {re.escape(repr(samples))}$"):
            estimate_indices(game_321(), samples=samples, seed=1)

    def test_numpy_integer_sample_count(self):
        assert estimate_indices(game_321(), samples=np.int64(40), seed=1) == estimate_indices(
            game_321(), samples=40, seed=1
        )

    def test_unbiased_mean_loose(self):
        g = single_quota_game([4, 3, 2, 1], 6)
        exact = exact_indices(g).absolute
        means = np.zeros(4)
        trials = 60
        for t in range(trials):
            means += estimate_indices(g, samples=100, seed=7000 + t).estimates
        means /= trials
        for got, truth in zip(means, exact):
            assert abs(got - truth) < 0.05


def _swing_counts_loop(game, loads, n, seed):
    """Per-player swing counts from one chunk of ``n`` draws, unpacked column
    by column with shifts and masks: the sampler's reference bit order."""
    m = game.num_players
    W = game.weight_matrix
    t = game.winning_thresholds
    words = (m + 63) // 64
    counts = []
    for i in range(m):
        raw = seeded_rng(seed, i).integers(0, 2**64, size=(n, words), dtype=np.uint64)
        members = np.empty((n, m), dtype=np.float64)
        for j in range(m):
            members[:, j] = (raw[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)
        members[:, i] = 1.0
        sums = (members @ W).T
        counts.append(int(np.count_nonzero(sums_win(sums, t) & removal_breaks(sums, loads[i], t))))
    return tuple(counts)


def _integer_game(m, seed):
    w = np.random.default_rng(seed).integers(1, 30, size=m)
    return single_quota_game([int(v) for v in w], int(w.sum()) // 2 + 1)


def _two_quota_game(m, seed):
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.1, 3.7, size=(m, 2))
    quotas = (0.53 * W[:, 0].sum(), 0.41 * W[:, 1].sum())
    return VotingGame(tuple(f"p{i}" for i in range(m)), tuple(map(tuple, W)), quotas)


def _unpack_cases():
    for m in (1, 2, 63, 64, 65, 100, 130):
        yield f"int-m{m}", _integer_game(m, seed=m)
    yield "two-quota-m70", _two_quota_game(70, seed=5)
    yield "eu", eu_game()


UNPACK_CASES = dict(_unpack_cases())


class TestUnpack:
    """The vectorized unpack draws the same coalitions as the column loop."""

    @pytest.mark.parametrize("case", sorted(UNPACK_CASES))
    @pytest.mark.parametrize("mode", ["classical", "association"])
    def test_counts_match_column_loop(self, case, mode):
        game = UNPACK_CASES[case]
        m, n, seed = game.num_players, 300, 17
        phi = random_association(m, seed=m) if mode == "association" else None
        loads = game.weight_matrix if phi is None else np.array(persuasion_loads(game, phi))
        got = estimate_indices(game, phi, samples=n, seed=seed).swing_counts
        # every player is compared, the first and the last uint64 word included
        assert got == _swing_counts_loop(game, loads, n, seed)
        if m > 2:
            assert len(set(got)) > 1, "a constant count cannot tell bit orders apart"

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("case", ["int-m65", "two-quota-m70", "eu"])
    def test_chunk_size_does_not_change_counts(self, monkeypatch, case, rows):
        game = UNPACK_CASES[case]
        m, k = game.num_players, game.num_dimensions
        phi = random_association(m, seed=3)
        default = [estimate_indices(game, p, samples=120, seed=9) for p in (None, phi)]
        # ``rows`` samples of 8 * (words + k + 4) bytes each
        words = (m + 63) // 64
        budget = rows * 8 * (words + k + 4)
        monkeypatch.setattr(sampling, "_CHUNK_BYTES", budget)
        drawn = []

        class RecordingRng:  # a stream of the sampler, noting each chunk's sample count
            def __init__(self, rng):
                self.rng = rng

            def integers(self, *args, size, **kwargs):
                drawn.append(size[0])
                return self.rng.integers(*args, size=size, **kwargs)

        streams = sampling.seeded_streams
        monkeypatch.setattr(sampling, "seeded_streams", lambda *args: map(RecordingRng, streams(*args)))
        chunked = [estimate_indices(game, p, samples=120, seed=9) for p in (None, phi)]
        assert chunked == default
        assert max(drawn) == rows

    def test_chunked_draws_continue_the_stream(self):
        whole = seeded_rng(5, 3).integers(0, 2**64, size=(40, 3), dtype=np.uint64)
        rng = seeded_rng(5, 3)
        parts = [rng.integers(0, 2**64, size=(r, 3), dtype=np.uint64) for r in (1, 7, 13, 19)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_memory_is_one_chunk(self):
        # 20,000 samples x 300 players would be a 48 MB float64 block in one piece
        game = _integer_game(300, seed=1)
        tracemalloc.start()
        try:
            tables = _byte_tables(game.weight_matrix)
            _swing_count_for_player(game, 0, game.weight_matrix[0], 20_000, seeded_rng(0, 0), tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sampling._CHUNK_BYTES

    def test_chunks_beside_tables_past_the_budget(self, monkeypatch):
        """A budget below the byte tables' size still buys chunks of many
        samples, since the tables are not a chunk's buffers."""
        game = _integer_game(64, seed=7)
        tables = _byte_tables(game.weight_matrix)
        expected = _swing_count_for_player(game, 5, game.weight_matrix[5], 500, seeded_rng(3, 5), tables)
        monkeypatch.setattr(sampling, "_CHUNK_BYTES", tables.nbytes // 2)
        chunks = []

        def spy(tables, octets, *buffers):
            chunks.append(len(octets))
            sampling_lookup(tables, octets, *buffers)

        sampling_lookup = sampling._lookup_sums
        monkeypatch.setattr(sampling, "_lookup_sums", spy)
        assert _swing_count_for_player(game, 5, game.weight_matrix[5], 500, seeded_rng(3, 5), tables) == expected
        assert sum(chunks) == 500 and min(chunks[:-1]) > 1


class TestStudentQuantile:
    @pytest.mark.parametrize(
        "df", [1, 2, 3, 5, 10, 30, 199, 737, 999, 1000, 1001, 4611, 5000, 18628, 10**6]
    )
    @pytest.mark.parametrize("tail", [0.5 - 1e-6, 0.4, 0.25, 0.05, 0.025, 0.005, 1e-4, 1e-6])
    def test_matches_scipy(self, df, tail):
        expected = -special.stdtrit(df, tail)
        assert student_t_quantile(tail, df) == pytest.approx(expected, rel=1e-10, abs=0)

    @pytest.mark.parametrize(
        "df", [1, 2, 3, 5, 10, 30, 199, 737, 999, 1000, 1001, 4611, 5000, 18628, 10**6]
    )
    @pytest.mark.parametrize("gap", [1e-6, 1e-10, 1e-13])
    def test_near_the_centre(self, df, gap):
        """Within ``gap`` of tail 0.5 the quantile is ``u (1 + (df + 1) u^2 /
        (6 df))``, ``u = (0.5 - tail) / f(0)``, to far below 1e-10 (the next
        term is of order u^5), and far below approx's default absolute
        tolerance.  scipy's `stdtrit` is no reference here: at df = 3 it is
        5.8e-7 relative off this series at 0.5 - 1e-13."""
        tail = 0.5 - gap
        if df < 1000:
            ratio = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2))
        else:  # Gamma(x + 1/2) / Gamma(x) at x = df / 2, without lgamma's cancellation
            ratio = math.sqrt(df / 2) * (1 - 1 / (4 * df) + 1 / (32 * df * df))
        u = (0.5 - tail) / (ratio / math.sqrt(df * math.pi))
        expected = u * (1 + (df + 1) * u * u / (6 * df))
        assert student_t_quantile(tail, df) == pytest.approx(expected, rel=1e-10, abs=0)

    @pytest.mark.parametrize("tail", [0.4, 0.025, 1e-6, 1e-12, 1e-50])
    def test_matches_scipy_across_the_expansion_cutoff(self, tail):
        """Newton steps end, and the Cornish-Fisher expansion alone is used,
        from df = 50 (z^2 + 4) on, z the normal quantile of the tail."""
        z = special.ndtri(tail)
        cutoff = math.ceil(50 * (z * z + 4))
        for df in (2, 3, 10, 100, 1000, cutoff - 1, cutoff, cutoff + 1, 2 * cutoff):
            assert student_t_quantile(tail, df) == pytest.approx(-special.stdtrit(df, tail), rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 2**19 - 1), j=st.integers(1, 2**19 - 1), df=st.integers(1, 10**6))
    def test_odd_and_monotone(self, k, j, df):
        """Tails on a 2^-20 grid, so that 1 - p is exact and neighbours differ
        by far more than the quantile's rounding."""
        p, p2 = sorted((k / 2**20, j / 2**20))
        q = student_t_quantile(p, df)
        assert student_t_quantile(1.0 - p, df) == -q
        assert q > 0
        assert p == p2 or student_t_quantile(p2, df) < q
        assert student_t_quantile(p, df + 1) <= q

    @given(p=st.floats(1e-300, 0.499))
    @settings(max_examples=200, deadline=None)
    def test_two_degrees_of_freedom_closed_form(self, p):
        assert student_t_quantile(p, 2) == pytest.approx((1 - 2 * p) / math.sqrt(2 * p * (1 - p)), rel=1e-11)

    def test_symmetry_and_median(self):
        assert student_t_quantile(0.5, 10) == 0.0
        assert student_t_quantile(0.9, 10) == pytest.approx(-student_t_quantile(0.1, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            student_t_quantile(0.1, 0)
        for df in (True, 10.0, 2.5, "10"):
            with pytest.raises(ValueError, match="degrees of freedom must be an integer"):
                student_t_quantile(0.1, df)


class TestConfidenceIntervals:
    def make_report(self, n=1000, seed=2):
        return estimate_indices(game_321(), samples=n, seed=seed)

    def test_hoeffding_halfwidth(self):
        r = self.make_report()
        ci = confidence_interval(r, 0, 0.05, "hoeffding")
        assert ci.halfwidth == pytest.approx(math.sqrt(math.log(2 / 0.05) / (2 * 1000)))
        assert ci.method == "hoeffding"
        assert ci.B is None

    def test_student_halfwidth(self):
        r = self.make_report()
        s2 = r.sample_variances[1]
        t = student_t_quantile(0.025, 999)
        ci = confidence_interval(r, 1, 0.05, "student")
        assert ci.halfwidth == pytest.approx(t * math.sqrt(s2 / 1000))

    def test_student_zero_variance(self):
        g = single_quota_game([5, 0], 5)
        r = estimate_indices(g, samples=100, seed=1)
        ci = confidence_interval(r, 0, 0.05, "student")
        assert ci.halfwidth == 0.0
        assert ci.lower == ci.upper == 1.0

    def test_selfbounding_explicit_b(self):
        r = self.make_report()
        ci = confidence_interval(r, 0, 0.05, "selfbounding", B=2.05)
        assert ci.halfwidth == pytest.approx(math.sqrt(2.05 * math.log(40) / 1000), abs=1e-9)
        assert round(ci.halfwidth, 5) == 0.08696
        assert ci.B == 2.05

    def test_selfbounding_default_b_is_self_consistent(self):
        r = self.make_report()
        ci = confidence_interval(r, 0, 0.05, "selfbounding", game=game_321())
        assert ci.B is not None
        assert ci.halfwidth == pytest.approx(
            math.sqrt(ci.B * math.log(2 / 0.05) / r.samples), rel=1e-12
        )
        # B = 2u + halfwidth with u = min(1, per-player combinatorial bound)
        assert ci.B == pytest.approx(2 * 0.75 + ci.halfwidth)

    def test_selfbounding_default_without_game(self):
        r = self.make_report()
        ci = confidence_interval(r, 0, 0.05, "selfbounding")
        assert ci.B == pytest.approx(2.0 + ci.halfwidth)

    def test_clipping(self):
        g = single_quota_game([5, 0], 5)
        r = estimate_indices(g, samples=50, seed=1)
        ci = confidence_interval(r, 0, 0.05, "hoeffding")
        assert ci.upper == 1.0
        assert ci.lower == pytest.approx(1.0 - ci.halfwidth)
        ci0 = confidence_interval(r, 1, 0.05, "hoeffding")
        assert ci0.lower == 0.0

    def test_interval_brackets_estimate(self):
        r = self.make_report()
        for method in ("hoeffding", "student", "selfbounding"):
            for i in range(3):
                ci = confidence_interval(r, i, 0.1, method, game=game_321())
                assert ci.lower <= r.estimates[i] <= ci.upper

    def test_player_by_id(self):
        r = self.make_report()
        assert confidence_interval(r, "p2", 0.1, "hoeffding").player == "p2"

    def test_validation(self):
        r = self.make_report()
        with pytest.raises(ValueError, match="delta"):
            confidence_interval(r, 0, 1.5, "hoeffding")
        with pytest.raises(ValueError, match="method"):
            confidence_interval(r, 0, 0.1, "bogus")
        with pytest.raises(ValueError, match="positive"):
            confidence_interval(r, 0, 0.1, "selfbounding", B=-1.0)
        for B in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^B must be finite, got {B}$"):
                confidence_interval(r, 0, 0.05, "selfbounding", B=B)
        tiny = estimate_indices(game_321(), samples=1, seed=1)
        with pytest.raises(ValueError, match="2 samples"):
            confidence_interval(tiny, 0, 0.1, "student")

    @pytest.mark.parametrize(
        "player, message",
        [(-1, "player index -1 out of range"), (3, "player index 3 out of range"),
         ("p9", "unknown player id 'p9'"),
         (True, "player must be an id or an integer index, got True"),
         (False, "player must be an id or an integer index, got False"),
         (np.True_, f"player must be an id or an integer index, got {np.True_!r}"),
         (1.0, "player must be an id or an integer index, got 1.0"),
         (None, "player must be an id or an integer index, got None")],
    )
    def test_player_resolved_like_the_game(self, player, message):
        r = self.make_report()
        for resolve in (lambda: confidence_interval(r, player, 0.1, "hoeffding"),
                        lambda: game_321().player_index(player)):
            with pytest.raises(InvalidGameError, match=re.escape(message)):
                resolve()

    def test_numpy_integer_player(self):
        r = self.make_report()
        assert game_321().player_index(np.int64(2)) == 2
        for method in CI_METHODS:
            assert confidence_interval(r, np.int32(1), 0.1, method) == confidence_interval(
                r, 1, 0.1, method
            )

    @pytest.mark.parametrize("method", CI_METHODS)
    def test_game_with_other_players_rejected(self, method):
        r = self.make_report()
        renamed = single_quota_game([3, 2, 1], 4, player_ids=("a", "b", "c"))
        for other in (renamed, single_quota_game([3, 2], 4)):
            with pytest.raises(InvalidGameError, match="players do not match"):
                confidence_interval(r, 0, 0.1, method, game=other)


class TestRequiredSamples:
    def test_spec_values(self):
        assert required_samples(0.01, 0.01, "hoeffding") == 26_492
        assert required_samples(0.01, 0.01, "selfbounding", B=0.25) == 13_246
        assert required_samples(0.05, 0.05, "hoeffding") == 738
        assert required_samples(0.05, 0.05, "student", s2=0.25) == 385

    @pytest.mark.parametrize("s2", [0.0, 1e-9])
    def test_student_sizing_allows_an_interval(self, s2):
        n = required_samples(0.1, 0.1, "student", s2=s2)
        assert n == 2
        report = estimate_indices(game_321(), samples=n, seed=1)
        confidence_interval(report, 0, 0.1, "student")

    def test_negative_seed_named(self):
        with pytest.raises(InvalidGameError, match="^seed must be non-negative, got -1$"):
            estimate_indices(game_321(), samples=10, seed=-1)

    @pytest.mark.parametrize("seed", [True, 1.5, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InvalidGameError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            estimate_indices(game_321(), samples=10, seed=seed)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_samples(0.0, 0.1)
        with pytest.raises(ValueError):
            required_samples(0.1, 1.0)
        with pytest.raises(ValueError, match="s2"):
            required_samples(0.1, 0.1, "student")
        with pytest.raises(ValueError, match="B"):
            required_samples(0.1, 0.1, "selfbounding")
        with pytest.raises(ValueError, match="method"):
            required_samples(0.1, 0.1, "bogus")
        with pytest.raises(ValueError, match=r"^s2 must be non-negative, got -0\.1$"):
            required_samples(0.1, 0.1, "student", s2=-0.1)
        for B in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^B must be positive, got {B}$"):
                required_samples(0.1, 0.1, "selfbounding", B=B)
        for v in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^B must be finite, got {v}$"):
                required_samples(0.1, 0.1, "selfbounding", B=v)
            with pytest.raises(ValueError, match=f"^s2 must be finite, got {v}$"):
                required_samples(0.1, 0.1, "student", s2=v)


class TestCoverage:
    def test_hoeffding_interval_covers(self):
        g = single_quota_game([4, 3, 2, 1], 6)
        exact = exact_indices(g).absolute
        n = required_samples(0.1, 0.1, "hoeffding")
        hits = 0
        trials = 40
        for t in range(trials):
            r = estimate_indices(g, samples=n, seed=3000 + t)
            if all(abs(e - x) <= 0.1 for e, x in zip(r.estimates, exact)):
                hits += 1
        assert hits >= 36

    def test_one_sided_self_bounding_tails(self):
        # empirical check of the two one-sided tail bounds that justify the
        # selfbounding interval: P(est >= b + eps) <= exp(-n eps^2 / (2b + eps))
        # and P(est <= b - eps) <= exp(-n eps^2 / 2)
        g = single_quota_game([4, 3, 2, 1], 6)
        i = 0
        beta = exact_indices(g).absolute[i]
        n, eps, trials = 400, 0.1, 1000
        upper_bound = math.exp(-n * eps * eps / (2 * beta + eps))
        lower_bound = math.exp(-n * eps * eps / 2)
        up = down = 0
        for t in range(trials):
            est = estimate_indices(g, samples=n, seed=40_000 + t).estimates[i]
            if est - beta >= eps:
                up += 1
            if beta - est >= eps:
                down += 1
        slack = 3 * math.sqrt(0.25 / trials)
        assert up / trials <= upper_bound + slack
        assert down / trials <= lower_bound + slack


def _random_octets(m, n, seed):
    """``n`` samples' membership bytes as the sampler draws them, before the
    sampled player's bit is set: bit j % 8 of byte j // 8 is player j."""
    words = (m + 63) // 64
    raw = seeded_rng(seed, 0).integers(0, 2**64, size=(n, words), dtype=np.uint64)
    return raw.astype("<u8", copy=False).view(np.uint8)


class TestByteTables:
    """Each sample is summed from per-byte subset-sum tables."""

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 64, 65, 1000])
    def test_sums_equal_membership_matmul(self, m):
        # integer weights up to 2^40: every partial sum is an integer below
        # 2^53, so both summation orders are exact
        W = np.random.default_rng(m).integers(0, 2**40, size=(m, 2)).astype(np.float64)
        n = 400
        octets = _random_octets(m, n, seed=m)
        got = np.empty((2, n))
        _lookup_sums(_byte_tables(W), octets, got, np.empty(n), np.empty(n, dtype=np.intp))
        members = np.unpackbits(octets, axis=1, count=m, bitorder="little").astype(np.float64)
        assert np.array_equal(got, (members @ W).T)
        if m % 8:
            # the last byte's random bits past player m - 1 count for nothing
            assert (octets[:, m // 8] >> (m % 8)).any()

    def test_non_integer_sums_follow_byte_order(self):
        # non-integer sums depend on the order of their additions, which is
        # fixed: table entries of bytes 0, 1, 2, ... added to 0.0
        m, n = 65, 200
        W = np.random.default_rng(5).uniform(0.0, 1.0, size=(m, 2))
        tables = _byte_tables(W)
        octets = _random_octets(m, n, seed=5)
        got = np.empty((2, n))
        _lookup_sums(tables, octets, got, np.empty(n), np.empty(n, dtype=np.intp))
        for r in range(n):
            for d in range(2):
                total = 0.0
                for b in range(len(tables)):
                    total += tables[b, d, octets[r, b]]
                assert got[d, r] == total

    @pytest.mark.parametrize("m", [1, 8, 13, 20])
    def test_tables_are_subset_sums_of_padded_groups(self, m):
        W = np.random.default_rng(m).uniform(0.0, 5.0, size=(m, 3))
        tables = _byte_tables(W)
        padded = np.vstack([W, np.zeros((-m % 8, 3))])
        assert tables.shape == (len(padded) // 8, 3, 256)
        for b, table in enumerate(tables):
            assert np.array_equal(table, subset_sums(padded[8 * b : 8 * b + 8]))
            for v in (0, 1, 0b10110101, 255):
                members = [j for j in range(8 * b, min(m, 8 * b + 8)) if v >> (j - 8 * b) & 1]
                for d in range(3):
                    total = 0.0
                    for j in members:
                        total += W[j, d]
                    assert table[d, v] == total

    def test_memory_under_budget_at_m1000(self):
        # 30,000 samples at m = 1,000 span three chunks of the budget
        game = _integer_game(1000, seed=4)
        tracemalloc.start()
        try:
            tables = _byte_tables(game.weight_matrix)
            _swing_count_for_player(game, 999, game.weight_matrix[999], 30_000, seeded_rng(0, 999), tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the chunks' buffers, beside the tables
        assert peak - tables.nbytes < sampling._CHUNK_BYTES

    @pytest.mark.parametrize("budget", [40_000, 70_000])
    @pytest.mark.parametrize("case", ["int-m65", "two-quota-m70", "eu"])
    def test_ragged_chunks_match(self, monkeypatch, case, budget):
        # these budgets buy 625 to 1,250 samples per chunk, so 1,500 samples
        # end in a partial chunk
        game = UNPACK_CASES[case]
        phi = random_association(game.num_players, seed=6)
        default = [estimate_indices(game, p, samples=1500, seed=4) for p in (None, phi)]
        monkeypatch.setattr(sampling, "_CHUNK_BYTES", budget)
        assert [estimate_indices(game, p, samples=1500, seed=4) for p in (None, phi)] == default


MATMUL_CASES = {**UNPACK_CASES, "int-m9": _integer_game(9, seed=9), "int-m1000": _integer_game(1000, seed=2)}


class TestMatmulParity:
    """The byte-table sums count the same swings as the unpack-and-matmul
    sampler they replaced, on integer games (where both sums are exact) and
    on the non-integer two-quota and EU games."""

    @pytest.mark.parametrize("case", sorted(MATMUL_CASES))
    @pytest.mark.parametrize("mode", ["classical", "association"])
    def test_counts_match_matmul_reference(self, case, mode):
        game = MATMUL_CASES[case]
        m = game.num_players
        n = 64 if m >= 1000 else 700
        phi = random_association(m, seed=11) if mode == "association" else None
        _, loads = removal_loads(game, phi)
        got = estimate_indices(game, phi, samples=n, seed=23).swing_counts
        assert got == tuple(matmul_swing_count(game, i, loads[i], n, 23) for i in range(m))


def test_scipy_is_never_imported():
    """The Student interval and its sizing compute their quantiles without
    scipy, which is a test-only dependency."""
    game = Path(__file__).resolve().parents[1] / "docs" / "sample-game.json"
    script = textwrap.dedent(
        f"""
        import contextlib, io, math, statistics, sys
        import banzhaf.cli
        from banzhaf.sampling import confidence_interval, estimate_indices, required_samples
        argv = ["approx", "--game", {str(game)!r}, "--method", "student",
                "--epsilon", "0.05", "--delta", "0.05", "--seed", "7"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert banzhaf.cli.main(argv) == 0
        z = statistics.NormalDist().inv_cdf(1 - 0.05 / 2)
        assert required_samples(0.02, 0.05, "student", s2=0.2) == math.ceil(0.2 * z * z / 0.02**2)
        report = estimate_indices(banzhaf.single_quota_game([3, 2, 1], 4), samples=50, seed=1)
        assert confidence_interval(report, 0, 0.05, "student").halfwidth > 0
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        """
    )
    src = str(Path(sampling.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
