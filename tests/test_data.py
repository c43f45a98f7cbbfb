import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf import data
from banzhaf.data import (
    EU_COUNTRIES,
    association_draws,
    MigrationTable,
    RandomGameSpec,
    build_migration_association,
    dump_game,
    eu_game,
    game_to_dict,
    load_game,
    load_migration_csv,
    parse_game,
    random_association,
    random_game,
    random_weight_rows,
    random_weights,
)
from banzhaf.exact import exact_indices
from banzhaf.games import AssociationMatrix, InvalidGameError, seeded_rng


class TestEuGame:
    def test_shape(self):
        g = eu_game()
        assert g.num_players == 18
        assert g.num_dimensions == 3
        assert g.quotas == (215.0, 291.3566, 10.0)

    def test_germany_row(self):
        g = eu_game()
        i = g.player_index("DEU")
        assert g.weights[i] == (29.0, 82.30, 1.0)

    def test_totals(self):
        g = eu_game()
        assert sum(row[0] for row in g.weights) == 291.0
        assert sum(row[2] for row in g.weights) == 18.0
        # the published population figures; their printed total (469.93)
        # differs from the column sum by 0.04
        assert sum(row[1] for row in g.weights) == pytest.approx(469.89, abs=1e-9)

    def test_country_order_matches_metadata(self):
        g = eu_game()
        assert tuple(g.metadata["countries"]) == g.player_ids
        assert g.player_ids == tuple(c for c, _, _ in EU_COUNTRIES)

    def test_normalized_indices_sum_to_one(self):
        r = exact_indices(eu_game())
        assert sum(r.normalized) == pytest.approx(1.0, abs=1e-12)


def _migration_entries_loop(flows):
    """The pairwise loops that ``build_migration_association`` must match."""
    m = len(flows)
    biggest = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            biggest = max(biggest, abs(flows[i][j] - flows[j][i]))
    entries = [[1.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            val = (flows[j][i] - flows[i][j]) / biggest
            entries[i][j] = val
            entries[j][i] = -val
    return tuple(map(tuple, entries))


class TestMigration:
    def test_matches_pairwise_loops(self):
        rng = np.random.default_rng(4242)
        for trial in range(600):
            m = int(rng.integers(2, 13))
            flows = [
                rng.integers(0, 50, size=(m, m)).astype(float),  # integer, some pairs balanced
                rng.uniform(0.0, 1e4, size=(m, m)),
                rng.uniform(0.0, 1.0, size=(m, m)) * 1e-300,
            ][trial % 3]
            if trial % 2:
                flows[1, 0] = flows[0, 1]
            table = MigrationTable(
                labels=tuple(f"c{i}" for i in range(m)), flows=tuple(map(tuple, flows.tolist()))
            )
            if not np.any(flows != flows.T):
                continue
            phi = build_migration_association(table)
            assert phi.entries == _migration_entries_loop(table.flows)

    def example_table(self):
        return MigrationTable(
            labels=("A", "B", "C"),
            flows=((0, 10, 0), (4, 0, 5), (2, 5, 0)),
        )

    def test_hand_example(self):
        phi = build_migration_association(self.example_table())
        e = phi.entries
        assert e[1][0] == 1.0
        assert e[0][1] == -1.0
        assert e[2][0] == pytest.approx(-1 / 3)
        assert e[0][2] == pytest.approx(1 / 3)
        assert e[2][1] == 0.0

    def test_symmetric_flows_rejected(self):
        t = MigrationTable(labels=("A", "B"), flows=((0, 3), (3, 0)))
        with pytest.raises(InvalidGameError, match="symmetric"):
            build_migration_association(t)

    def test_antisymmetry_and_diagonal(self):
        phi = build_migration_association(self.example_table())
        m = phi.size
        for i in range(m):
            assert phi.entries[i][i] == 1.0
            for j in range(m):
                if i != j:
                    assert phi.entries[i][j] == -phi.entries[j][i]

    def test_scaling_invariance(self):
        t = self.example_table()
        scaled = MigrationTable(
            labels=t.labels,
            flows=tuple(tuple(7.5 * v for v in row) for row in t.flows),
        )
        assert build_migration_association(t) == build_migration_association(scaled)

    def test_permutation_equivariance(self):
        t = self.example_table()
        perm = [2, 0, 1]
        permuted = MigrationTable(
            labels=tuple(t.labels[p] for p in perm),
            flows=tuple(tuple(t.flows[p][q] for q in perm) for p in perm),
        )
        phi = build_migration_association(t)
        phi_p = build_migration_association(permuted)
        for a in range(3):
            for b in range(3):
                assert phi_p.entries[a][b] == pytest.approx(phi.entries[perm[a]][perm[b]])

    def test_validation(self):
        with pytest.raises(InvalidGameError, match="non-negative"):
            MigrationTable(labels=("A", "B"), flows=((0, -1), (1, 0)))
        with pytest.raises(InvalidGameError, match="expected 2"):
            MigrationTable(labels=("A", "B"), flows=((0, 1, 2), (1, 0, 2)))
        with pytest.raises(InvalidGameError, match="unique"):
            MigrationTable(labels=("A", "A"), flows=((0, 1), (1, 0)))
        with pytest.raises(InvalidGameError, match="^migration table is empty$"):
            MigrationTable(labels=(), flows=())

    @pytest.mark.parametrize(
        "flows, message",
        [
            (((0, 10**400), (1, 0)), r"migration flow \[A\]\[B\]: not finite"),
            (((0, math.nan), (1, 0)), r"migration flow \[A\]\[B\]: not finite"),
            (((0, "x"), (1, 0)), r"migration flow \[A\]\[B\]: not numeric"),
            (((0, 1), (1, 0), (-1, 0)), "2 labels but 3 flow rows"),
        ],
        ids=["huge-int", "nan", "string", "extra-row"],
    )
    def test_bad_flows_rejected(self, flows, message):
        with pytest.raises(InvalidGameError, match=f"^{message}$"):
            MigrationTable(labels=("A", "B"), flows=flows)

    @pytest.mark.parametrize("seed", range(5))
    def test_reordering_the_matrix_equals_reordering_the_flows(self, seed):
        rng = np.random.default_rng(seed)
        m = len(EU_COUNTRIES)
        labels = tuple(f"c{i}" for i in range(m))
        flows = rng.uniform(0.0, 1e4, size=(m, m))
        order = rng.permutation(m)
        built = build_migration_association(MigrationTable(labels, tuple(map(tuple, flows))))
        reordered = MigrationTable(
            tuple(labels[i] for i in order), tuple(map(tuple, flows[np.ix_(order, order)]))
        )
        assert np.array_equal(
            built.matrix[np.ix_(order, order)], build_migration_association(reordered).matrix
        )

    @given(
        st.lists(
            st.lists(st.integers(0, 50), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_random_tables_produce_valid_matrices(self, flows):
        table = MigrationTable(labels=("A", "B", "C"), flows=tuple(map(tuple, flows)))
        asymmetric = any(
            flows[i][j] != flows[j][i] for i in range(3) for j in range(i + 1, 3)
        )
        if not asymmetric:
            with pytest.raises(InvalidGameError):
                build_migration_association(table)
            return
        phi = build_migration_association(table)
        peak = max(
            abs(phi.entries[i][j]) for i in range(3) for j in range(3) if i != j
        )
        assert peak == 1.0


class TestRandomAssociation:
    def test_deterministic(self):
        assert random_association(6, seed=9) == random_association(6, seed=9)
        assert random_association(6, seed=9) != random_association(6, seed=10)

    def test_one_player(self):
        assert random_association(1, seed=0).entries == ((1.0,),)

    def test_entries_shape(self):
        phi = random_association(5, seed=3)
        for i in range(5):
            assert phi.entries[i][i] == 1.0
            for j in range(5):
                if i != j:
                    assert abs(phi.entries[i][j]) <= 1.0

    def test_offdiagonal_mean_near_zero(self):
        vals = []
        m = 18
        for s in range(40):
            phi = random_association(m, seed=s)
            vals.extend(
                phi.entries[i][j] for i in range(m) for j in range(m) if i != j
            )
        assert len(vals) >= 10_000
        assert abs(float(np.mean(vals))) < 0.05

    def test_m_validation(self):
        with pytest.raises(InvalidGameError):
            random_association(0, seed=1)

    @pytest.mark.parametrize("m", [0, -2, 3.0, "3", True, None])
    def test_m_must_be_a_positive_integer(self, m):
        message = f"^m, the player count, must be a positive integer, got {re.escape(repr(m))}$"
        with pytest.raises(InvalidGameError, match=message):
            random_association(m, 0)
        with pytest.raises(InvalidGameError, match=message):
            association_draws(m, 0, 3)

    @pytest.mark.parametrize("m, seed, runs", [(18, 0, 100), (1, 7, 5), (30, 11, 4)])
    def test_stacked_draws_are_the_matrices_byte_for_byte(self, m, seed, runs):
        """Each run of a stack keeps its own stream: run r of the stack from
        ``seed`` is ``random_association(m, seed + r)``."""
        draws = association_draws(m, seed, runs)
        assert draws.shape == (runs, m, m) and draws.dtype == np.float64
        for r, a in enumerate(draws):
            assert a.tobytes() == random_association(m, seed + r).matrix.tobytes()

    @pytest.mark.parametrize("seed", [True, 1.5, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InvalidGameError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            random_association(4, seed)

    def test_entries_are_the_uniform_draws(self):
        for m, seed in [(1, 0), (5, 3), (18, 0), (18, 77)]:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            np.fill_diagonal(a, 1.0)
            phi = random_association(m, seed)
            assert phi.entries == tuple(tuple(float(v) for v in row) for row in a)
            assert np.array_equal(phi.matrix, a)


class TestRandomGame:
    def test_respects_configured_ranges(self):
        spec = RandomGameSpec(min_players=3, max_players=7, min_weight=2, max_weight=9)
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = random_game(rng, spec)
            assert 3 <= g.num_players <= 7
            for row in g.weights:
                assert 2 <= row[0] <= 9
                assert row[0].is_integer()
            assert g.quotas[0] == 0.5 * sum(r[0] for r in g.weights)


def _words_taken(rng: np.random.Generator) -> int:
    """The 32-bit words a Philox generator has handed out since it was
    seeded: each counter step fills a buffer of four 64-bit words, and a
    64-bit word is two 32-bit words, one of them kept back while it waits."""
    state = rng.bit_generator.state
    return 2 * (4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]) - state["has_uint32"]


# (spec, whether the numpy draws of range(300) at seed 11 draw again: "none",
# "some" or, past the spans that one 32-bit word serves, "all")
ROW_SPECS = [
    (RandomGameSpec(), "none"),
    (RandomGameSpec(min_players=5, max_players=5), "none"),  # the count takes no word
    (RandomGameSpec(min_weight=7, max_weight=7), "none"),  # nor do the weights
    (RandomGameSpec(max_players=np.int64(9), max_weight=np.uint8(20)), "none"),
    (RandomGameSpec(1, 3, 0, 1), "some"),  # all-zero weights, which numpy draws again
    (RandomGameSpec(1, 3, 0, 20), "some"),
    (RandomGameSpec(max_weight=2**31 + 1), "some"),  # about half the words are rejected
    (RandomGameSpec(max_weight=2**31), "none"),  # its rejection threshold is 0
    (RandomGameSpec(max_weight=2**32 - 1), "all"),
    (RandomGameSpec(max_weight=2**32 + 5), "all"),
]
ROW_IDS = ["default", "one-count", "one-weight", "numpy-ints", "zero-one", "zero-to-20",
           "span-2^31+1", "span-2^31", "span-2^32-1", "span-past-2^32"]


class TestRandomWeightRows:
    @pytest.mark.parametrize("spec, redraws", ROW_SPECS, ids=ROW_IDS)
    @pytest.mark.parametrize("trials", [range(300), range(1000, 1128), range(2**32 - 3, 2**32 + 3)],
                             ids=["first", "later", "two-word-keys"])
    def test_rows_are_numpys(self, monkeypatch, spec, redraws, trials):
        """A window's rows are `random_weights`' row for row, and only the
        trials where numpy takes more words than one per draw (a rejected
        word or all-zero weights), or every trial of a span of 2^32 - 1 or
        more, are drawn by `random_weights` itself."""
        redrawn = []

        def recorded(seed, *key):
            redrawn.extend(key)
            return seeded_rng(seed, *key)

        monkeypatch.setattr(data, "seeded_rng", recorded)
        rows = random_weight_rows(11, trials, spec)
        expected, again = [], []
        for t in trials:
            rng = seeded_rng(11, t)
            expected.append(random_weights(rng, spec))
            words = (spec.min_players < spec.max_players) + expected[-1].size * (spec.min_weight < spec.max_weight)
            if _words_taken(rng) > words:
                again.append(t)
        assert [(w.dtype, w.tolist()) for w in rows] == [(w.dtype, w.tolist()) for w in expected]
        assert redrawn == (list(trials) if redraws == "all" else again)
        if trials == range(300):
            assert {"none": not again, "some": 0 < len(again) < 300, "all": True}[redraws]


class TestGameFiles:
    def doc(self):
        return {
            "players": [
                {"id": "p1", "weights": [3]},
                {"id": "p2", "weights": [2]},
                {"id": "p3", "weights": [1]},
            ],
            "quotas": [4],
        }

    def test_parse_simple(self):
        g = parse_game(self.doc())
        assert g.weights == ((3.0,), (2.0,), (1.0,))
        assert g.quotas == (4.0,)

    def test_fraction_quota_resolves_against_total(self):
        doc = {
            "players": [{"id": c, "weights": [w]} for c, w, _ in EU_COUNTRIES],
            "quotas": [{"fraction": 0.74}],
        }
        g = parse_game(doc)
        assert g.quotas[0] == pytest.approx(215.34)

    def test_fraction_quota_adds_in_player_order(self):
        """The total behind a fraction quota adds the weights in player
        order, as `VotingGame.dimension_totals` does: ten weights of 0.1 total
        0.9999999999999999, where `math.fsum` (and `sum` from Python 3.12)
        gives 1.0."""
        doc = {"players": [{"id": f"p{i}", "weights": [0.1]} for i in range(10)], "quotas": [{"fraction": 0.5}]}
        game = parse_game(doc)
        assert game.dimension_totals[0] != math.fsum([0.1] * 10)
        assert game.quotas[0] == 0.5 * game.dimension_totals[0]

    def test_association_diagonal_rejected(self):
        doc = self.doc()
        doc["association"] = [[0.9, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(InvalidGameError, match="diagonal"):
            parse_game(doc)

    def test_field_level_errors(self):
        doc = self.doc()
        doc["players"][1]["weights"] = [-2]
        with pytest.raises(InvalidGameError, match=r"players\[1\].weights\[0\]"):
            parse_game(doc)
        with pytest.raises(InvalidGameError, match="missing id"):
            parse_game({"players": [{"weights": [1]}], "quotas": [1]})
        with pytest.raises(InvalidGameError, match="quotas"):
            parse_game({"players": [{"id": "a", "weights": [1]}]})

    def test_nan_weight_reported_as_not_finite(self):
        text = (
            '{"players": [{"id": "a", "weights": [NaN]}, {"id": "b", "weights": [1]}],'
            ' "quotas": [1]}'
        )
        with pytest.raises(InvalidGameError, match=r"players\[0\].weights\[0\]: not finite"):
            load_game(text)

    @pytest.mark.parametrize(
        "players, quotas, association, field",
        [
            ('[{"id": "a", "weights": [BIG]}, {"id": "b", "weights": [1]}]', "[1]", None,
             r"players\[0\].weights\[0\]"),
            ('[{"id": "a", "weights": [1]}, {"id": "b", "weights": [-BIG]}]', "[1]", None,
             r"players\[1\].weights\[0\]"),
            ('[{"id": "a", "weights": [1]}, {"id": "b", "weights": [1]}]', "[BIG]", None,
             r"quotas\[0\]"),
            ('[{"id": "a", "weights": [1]}, {"id": "b", "weights": [1]}]', '[{"fraction": BIG}]',
             None, r"quotas\[0\].fraction"),
            ('[{"id": "a", "weights": [1]}, {"id": "b", "weights": [1]}]', "[1]",
             "[[1, 0], [BIG, 1]]", r"association row 1\[0\]"),
        ],
        ids=["weight", "negative-weight", "quota", "fraction", "association"],
    )
    def test_integer_beyond_float_range_reported_as_not_finite(
        self, players, quotas, association, field
    ):
        big = "1" + "0" * 400
        text = f'{{"players": {players}, "quotas": {quotas}'
        if association:
            text += f', "association": {association}'
        text = (text + "}").replace("BIG", big)
        with pytest.raises(InvalidGameError, match=field + ": not finite"):
            load_game(text)

    def test_invalid_json_rejected(self):
        with pytest.raises(InvalidGameError, match="invalid JSON"):
            load_game("{not json")

    def test_round_trip_eu(self):
        g = eu_game()
        assert load_game(dump_game(g)) == g

    def test_round_trip_with_association(self):
        g = parse_game(self.doc())
        phi = random_association(3, seed=4)
        from banzhaf.games import VotingGame

        g2 = VotingGame(
            player_ids=g.player_ids,
            weights=g.weights,
            quotas=g.quotas,
            association=phi,
            metadata={"label": "demo"},
        )
        assert load_game(dump_game(g2)) == g2

    def test_round_trip_preserves_dict_form(self):
        g = parse_game(self.doc())
        assert parse_game(json.loads(json.dumps(game_to_dict(g)))) == g


class TestMigrationCsv:
    def test_parse(self):
        text = "A,B,C\n0,10,0\n4,0,5\n2,5,0\n"
        t = load_migration_csv(text)
        assert t.labels == ("A", "B", "C")
        assert t.flows[0][1] == 10.0

    @pytest.mark.parametrize("text", ["", "\n , \n\n"])
    def test_empty_file(self, text):
        with pytest.raises(InvalidGameError, match="^migration csv: empty file$"):
            load_migration_csv(text)

    def test_row_count_mismatch(self):
        with pytest.raises(InvalidGameError, match="data rows"):
            load_migration_csv("A,B\n0,1\n")

    def test_bad_number(self):
        with pytest.raises(InvalidGameError, match="row 1"):
            load_migration_csv("A,B\n0,x\n1,0\n")

    def test_field_count_mismatch(self):
        with pytest.raises(InvalidGameError, match="fields"):
            load_migration_csv("A,B\n0,1,2\n1,0\n")
