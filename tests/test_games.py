import functools
import math
import operator
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf.bounds import all_critical_weight_check
from banzhaf.data import RandomGameSpec, random_weights
from banzhaf.games import (
    check_association,
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    coalition_members,
    coalition_of,
    coalition_size,
    coalition_weight,
    full_coalition,
    is_critical_assoc,
    is_critical_classical,
    is_winning,
    persuasion_load,
    persuasion_loads,
    removal_breaks,
    removal_edges,
    seeded_rng,
    seeded_streams,
    single_quota_game,
    sums_win,
    validate_coalition,
)

from oracles import corpus, loop_load


def game_321():
    return single_quota_game([3, 2, 1], 4)


class TestConstruction:
    def test_valid_game(self):
        g = game_321()
        assert g.num_players == 3
        assert g.num_dimensions == 1
        assert g.player_ids == ("p1", "p2", "p3")
        assert g.weights == ((3.0,), (2.0,), (1.0,))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidGameError, match="negative"):
            single_quota_game([3, -1], 2)

    def test_nonpositive_quota_rejected(self):
        with pytest.raises(InvalidGameError, match="positive"):
            single_quota_game([1, 2], 0)

    def test_tolerance_reaching_the_quota_rejected(self):
        # the tolerance 1e-12 * 1e13 = 10 would put the winning threshold
        # below 0, where the empty coalition wins and every index reads 0
        with pytest.raises(InvalidGameError, match=r"^quotas\[0\]: boundary tolerance .* reaches the quota 0.25"):
            single_quota_game([1e13, 0.5], 0.25)
        with pytest.raises(InvalidGameError, match=r"^quotas\[1\]: "):
            VotingGame(("a", "b"), ((1.0, 1e13), (1.0, 0.5)), (1.0, 0.25))
        assert single_quota_game([1e13, 0.5], 20.0).winning_thresholds[0] > 0

    @pytest.mark.parametrize(
        "weights, quotas, message",
        [
            (((1,), (2,)), np.array(1.0), "quotas: not numeric"),
            ((np.array(1.0), (2,)), (1,), "weights for player a: not numeric"),
            (iter(((1,), (2,))), (1,), "weights must be a list of rows"),
        ],
        ids=["0-d-quotas", "0-d-row", "iterator"],
    )
    def test_0d_rows_and_unsized_weights_named(self, weights, quotas, message):
        """A 0-d array where a row belongs, and weights with no length, are
        named like other malformed input, not left to the `TypeError` of
        iterating or sizing them."""
        with pytest.raises(InvalidGameError, match=f"^{message}$"):
            VotingGame(("a", "b"), weights, quotas)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: single_quota_game(np.array(1.0), 1), "weights must be a list of numbers"),
            (lambda: single_quota_game(iter([1, 2]), 2), "weights must be a list of numbers"),
            (lambda: VotingGame(5, ((1,),), (1,)), "player ids must be a list of ids"),
            (lambda: VotingGame(np.array("a"), ((1,),), (1,)), "player ids must be a list of ids"),
        ],
        ids=["0-d-flat-weights", "iterator-flat-weights", "int-ids", "0-d-ids"],
    )
    def test_unsized_flat_weights_and_ids_named(self, build, message):
        """Flat weights with no length, and player ids that do not iterate,
        are named like other malformed input, not left to the `TypeError` of
        sizing or iterating them."""
        with pytest.raises(InvalidGameError, match=f"^{message}$"):
            build()

    def test_plain_rows_read_as_entry_by_entry(self):
        """Rows of plain ints and floats are checked all at once; rows of
        another type (here a tuple subclass, ndarray rows or numpy scalars)
        are read entry by entry, and a whole integer or float ndarray is
        converted at once.  Every form gives the same game, weight array,
        totals and tolerances, and the same first error."""

        class Row(tuple):
            pass

        def numpy_scalar(v):
            if type(v) is float:
                return np.float64(v)
            return np.int64(v) if type(v) is int and abs(v) < 2**63 else v

        def forms(rows):
            yield [tuple(r) for r in rows]
            yield [Row(r) for r in rows]
            yield [np.array(r) for r in rows]
            yield [[numpy_scalar(v) for v in r] for r in rows]
            plain = all(type(v) in (int, float) for r in rows for v in r)
            if plain and len(set(map(len, rows))) == 1:
                yield np.array(rows)  # int64, float64 or, past int64, object

        def both(rows, quotas):
            ids = tuple(f"p{i}" for i in range(len(rows)))
            out = []
            for given in forms(rows):
                try:
                    game = VotingGame(ids, given, quotas)
                    out.append((game, game.dimension_totals, game.quota_tolerances))
                    matrix = game.weight_matrix
                    assert matrix.dtype == np.float64 and not matrix.flags.writeable
                    assert matrix.tobytes() == out[0][0].weight_matrix.tobytes()
                    assert not any(np.shares_memory(matrix, a) for a in [given, *given] if isinstance(a, np.ndarray))
                    assert all(type(v) is float for row in game.weights for v in row)
                    with pytest.raises(TypeError):  # the metadata dict is unhashable
                        hash(game)
                except InvalidGameError as e:
                    out.append(str(e))
            assert all(o == out[1] for o in out[2:])
            return out[:2]

        for rows, quotas in [
            ([(3,), (2,), (1,)], (4,)),
            ([(0.5, 2), (1, 0), (0, 3)], (1, 2.5)),
            ([[2**52], [2**52 - 5], [2], [1], [1]], (2**52 + 3,)),
            ([(1e13,), (0.5,), (0.1,), (0.2,)], (20.0,)),
            ([(0.1, 1)] * 10, (0.5, 3)),
            ([(1, 2), (2, 2.5), (3, 1)], (3, 3)),
        ]:
            plain, entries = both(rows, quotas)
            assert plain == entries
            game, totals, tolerances = plain
            columns = list(zip(*game.weights))
            # added in player order (Python 3.12's sum compensates, so it is no oracle there)
            assert [float.hex(t) for t in totals] == [float.hex(functools.reduce(operator.add, c)) for c in columns]
            assert [float.hex(t) for t in totals] == [float.hex(t) for t in entries[1]]
            exact = [q.is_integer() and all(w.is_integer() for w in c) for q, c in zip(game.quotas, columns)]
            assert [t == 0.0 for t in tolerances] == exact
        for rows, quotas, message in [
            ([(3,), (-1,)], (2,), "weights for player p1[0]: negative weight -1.0"),
            ([(1, 2), (1,)], (1, 1), "weights for player p1: expected 2 entries, got 1"),
            ([(1,), (2,)], (1, 1), "weights for player p0: expected 2 entries, got 1"),
            ([(2**52, 1), (2**52, 2)], (1, 1), "weight dimension 0: integer weights total 9007199254740992"),
            ([(1,), (float("nan"),)], (1,), "weights for player p1[0]: not finite"),
            ([(1,), (10**400,)], (1,), "weights for player p1[0]: not finite"),
            ([(1,), (True,)], (1,), "weights for player p1[0]: not numeric"),
            ([(1,), (2,)], (0,), "quotas[0]: must be positive, got 0.0"),
        ]:
            plain, entries = both(rows, quotas)
            assert plain == entries and plain.startswith(message)

    @pytest.mark.parametrize(
        "array, quotas, message",
        [
            (np.array([[1.0], [np.nan]]), (1,), r"weights for player b\[0\]: not finite"),
            (np.array([[1.0, np.inf], [0.0, 1.0]]), (1, 1), r"weights for player a\[1\]: not finite"),
            (np.array([[-1.0, 2.0], [-np.inf, 1.0]]), (1, 1), r"weights for player b\[0\]: not finite"),
            (np.array([[1, 2], [3, -1]]), (1, 1), r"weights for player b\[1\]: negative weight -1.0"),
            (np.array([[True], [False]]), (1,), r"weights for player a\[0\]: not numeric"),
            (np.array([[1 + 0j], [1]]), (1,), r"weights for player a\[0\]: not numeric"),
            (np.array([1.0, 2.0]), (1,), "weights for player a: not numeric"),
            (np.array([[1.0, 2.0], [3.0, 4.0]]), (1,), "weights for player a: expected 1 entries, got 2"),
            (np.array([[1], [2]], dtype=np.uint8), (1, 1), "weights for player a: expected 2 entries, got 1"),
            (np.array(1.0), (1,), "weights must be a list of rows"),
        ],
        ids=["nan", "inf", "-inf-after-negative", "negative", "bool", "complex", "1-d", "long-rows", "short-rows", "0-d"],
    )
    def test_array_errors_are_the_rows_errors(self, array, quotas, message):
        with pytest.raises(InvalidGameError) as from_rows:
            VotingGame(("a", "b"), array.tolist(), quotas)
        with pytest.raises(InvalidGameError) as from_array:
            VotingGame(("a", "b"), array, quotas)
        assert str(from_array.value) == str(from_rows.value)
        assert re.fullmatch(message, str(from_array.value))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidGameError, match="expected 2 entries"):
            VotingGame(player_ids=("a", "b"), weights=((1.0, 2.0), (1.0,)), quotas=(1.0, 1.0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidGameError, match="unique"):
            single_quota_game([1, 1], 1, player_ids=("a", "a"))

    def test_empty_game_rejected(self):
        with pytest.raises(InvalidGameError):
            VotingGame(player_ids=(), weights=(), quotas=(1.0,))

    def test_association_size_checked(self):
        with pytest.raises(InvalidGameError, match="players"):
            single_quota_game([1, 2, 3], 3, association=AssociationMatrix.identity(2))

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(InvalidGameError, match="finite"):
            single_quota_game([1, float("nan")], 1)

    def test_integer_beyond_float_range_rejected(self):
        big = 10**400
        with pytest.raises(InvalidGameError, match=r"player p2\[0\]: not finite"):
            single_quota_game([1, big], 1)
        with pytest.raises(InvalidGameError, match=r"quotas\[1\]: not finite"):
            VotingGame(("a",), ((1.0, 1.0),), (1.0, -big))
        with pytest.raises(InvalidGameError, match=r"association row 0\[1\]: not finite"):
            AssociationMatrix(((1.0, big), (0.0, 1.0)))

    def test_no_quota_rejected(self):
        with pytest.raises(InvalidGameError, match="^game needs at least one quota dimension$"):
            VotingGame(("a",), ((),), ())

    def test_complex_weight_rejected(self):
        with pytest.raises(InvalidGameError, match=r"^weights for player p1\[0\]: not numeric$"):
            single_quota_game([1 + 2j, 1], 1)

    def test_weight_rows_counted_before_their_entries(self):
        with pytest.raises(InvalidGameError, match="^1 players but 2 weight rows$"):
            VotingGame(("a",), ((1.0,), (2.0,)), (1.0,))
        with pytest.raises(InvalidGameError, match="^1 players but 2 weight rows$"):
            VotingGame(("a",), ((1.0,), ("x",)), (1.0,))

    def test_player_index_lookup(self):
        g = game_321()
        assert g.player_index("p2") == 1
        assert g.player_index(0) == 0
        with pytest.raises(InvalidGameError):
            g.player_index("nope")
        with pytest.raises(InvalidGameError):
            g.player_index(7)


class TestAssociationMatrix:
    def test_identity(self):
        phi = AssociationMatrix.identity(3)
        assert phi.entries == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_identity_is_its_rows(self, m):
        phi = AssociationMatrix.identity(m)
        assert phi == AssociationMatrix([[float(i == j) for j in range(m)] for i in range(m)])
        assert all(type(v) is float for row in phi.entries for v in row)

    def test_negative_zero_matches_zero(self):
        zero = AssociationMatrix(((1.0, 0.0), (0.0, 1.0)))
        for entries in [((1.0, -0.0), (0.0, 1.0)), np.array([[1.0, -0.0], [-0.0, 1.0]])]:
            phi = AssociationMatrix(entries)
            assert phi == zero and hash(phi) == hash(zero)

    def test_rows_as_lists_tuples_or_tolist(self):
        as_tuples = AssociationMatrix(((1.0, 0.5), (0.0, 1.0)))
        numpy_scalars = [[np.float64(1), np.float32(0.5)], [np.int64(0), np.int8(1)]]
        for rows in ([[1, 0.5], [0, 1]], np.array([[1.0, 0.5], [0.0, 1.0]]).tolist(), numpy_scalars):
            phi = AssociationMatrix(rows)
            assert phi == as_tuples
            assert all(type(v) is float for row in phi.entries for v in row)

    def test_array_is_its_rows(self):
        rows = [[1.0, 0.5, -0.25], [0.0, 1.0, 1.0], [-1.0, 0.3, 1.0]]
        a = np.array(rows)
        strided = np.zeros((6, 6))
        strided[::2, ::2] = a
        arrays = [a, np.asfortranarray(a), strided[::2, ::2], np.eye(3, dtype=np.int64),
                  np.eye(3, dtype=np.uint8), a.astype(np.float32)]
        for array in arrays:
            phi = AssociationMatrix(array)
            from_rows = AssociationMatrix(array.tolist())
            assert phi == from_rows and hash(phi) == hash(from_rows)
            assert all(type(v) is float for row in phi.entries for v in row)
            assert not phi.matrix.flags.writeable
            assert not np.shares_memory(phi.matrix, array)
        phi = AssociationMatrix(a)
        a[0, 1] = 0.75  # the matrix keeps the entries it was given
        assert phi.entries[0][1] == phi.matrix[0, 1] == 0.5

    @pytest.mark.parametrize(
        "array",
        [
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, np.nan], [0.0, 0.0, 1.0]]),
            np.array([[1.0, -np.inf], [0.0, 1.0]]),
            np.array([[1.0, 2.0], [np.inf, 1.0]]),  # not finite comes first, as in the rows
            np.array([[1.0, 0.0], [0.0, 0.5]]),
            np.array([[1.0, 0.0], [1.5, 1.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            np.zeros((0, 3)),
            np.zeros((2, 0)),
            np.eye(2, dtype=bool),
            np.eye(2, dtype=complex),
            np.ones(2),
            np.ones((1, 1, 1)),
        ],
        ids=["nan", "-inf", "inf-after-outside", "diagonal", "outside", "wide", "tall",
             "empty", "no-columns", "bool", "complex", "1-d", "3-d"],
    )
    def test_array_errors_are_the_rows_errors(self, array):
        with pytest.raises(InvalidGameError) as from_rows:
            AssociationMatrix(array.tolist())
        with pytest.raises(InvalidGameError) as from_array:
            AssociationMatrix(array)
        assert str(from_array.value) == str(from_rows.value)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((1.0, "x"), (0.0, 1.0)), r"association row 0\[1\]: not numeric"),
            (((1.0, 0.0), 5), "association row 1: not numeric"),
            (((1.0, 0.0), "01"), "association row 1: not numeric"),
            (((1.0, 0.0), {"0": 1}), "association row 1: not numeric"),
            (7, "association matrix must be a list of rows"),
            ("1", "association matrix must be a list of rows"),
            (((1.0, "0.5"), (0.0, 1.0)), r"association row 0\[1\]: not numeric"),
            (((True, 0.0), (0.0, 1.0)), r"association row 0\[0\]: not numeric"),
            (((1.0, 0.0), (0.0, np.True_)), r"association row 1\[1\]: not numeric"),
            (((1.0, np.complex128(0)), (0.0, 1.0)), r"association row 0\[1\]: not numeric"),
            (np.array(1.0), "association matrix must be a list of rows"),
            (((1.0, 0.0), np.array(1.0)), "association row 1: not numeric"),
        ],
    )
    def test_malformed_rows_named(self, entries, message):
        with pytest.raises(InvalidGameError, match=f"^{message}$"):
            AssociationMatrix(entries)

    def test_diagonal_must_be_one(self):
        with pytest.raises(InvalidGameError, match="diagonal"):
            AssociationMatrix(((0.9, 0.0), (0.0, 1.0)))

    def test_entries_bounded(self):
        with pytest.raises(InvalidGameError, match="outside"):
            AssociationMatrix(((1.0, 1.5), (0.0, 1.0)))

    def test_must_be_square(self):
        with pytest.raises(InvalidGameError):
            AssociationMatrix(((1.0, 0.0),))

    def test_first_offence_reported(self):
        def first_offence(rows):
            # the per-entry scan the vectorized checks must agree with
            m = len(rows)
            for i, row in enumerate(rows):
                if len(row) != m:
                    return f"association row {i}: expected {m} entries, got {len(row)}"
                if row[i] != 1.0:
                    return f"association diagonal a[{i}][{i}] must be 1, got {row[i]!r}"
                for j, a in enumerate(row):
                    if abs(a) > 1.0:
                        return f"association a[{i}][{j}]={a!r} outside [-1, 1]"
            return None

        rng = np.random.default_rng(21)
        for _ in range(300):
            m = int(rng.integers(1, 6))
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            np.fill_diagonal(a, 1.0)
            rows = [list(r) for r in a.tolist()]
            for _ in range(int(rng.integers(0, 3))):
                i, j = (int(x) for x in rng.integers(0, m, size=2))
                rows[i][j] = float(rng.choice([1.5, -1.25, 0.5, 2.0]))
            if rng.random() < 0.2:
                del rows[int(rng.integers(0, m))][-1]
            expected = first_offence(rows)
            given = [tuple(map(tuple, rows))]
            if all(len(r) == m for r in rows):  # a square matrix is read as an array too
                given.append(np.array(rows))
            for entries in given:
                if expected is None:
                    assert AssociationMatrix(entries).matrix.tolist() == rows
                else:
                    with pytest.raises(InvalidGameError) as exc:
                        AssociationMatrix(entries)
                    assert str(exc.value) == expected

    def test_stack_rule_is_the_matrix_rule(self):
        """The array rule on an (r, m, m) stack checks every entry's
        finiteness first, then each row in order: its error is the one
        `AssociationMatrix` gives for the first matrix holding a non-finite
        entry, else for the first matrix that offends at all."""
        rng = np.random.default_rng(24)
        for _ in range(300):
            r, m = (int(x) for x in rng.integers(1, 5, size=2))
            stack = rng.uniform(-1.0, 1.0, size=(r, m, m))
            stack.reshape(r, m * m)[:, :: m + 1] = 1.0
            for _ in range(int(rng.integers(0, 3))):
                s, i, j = (int(x) for x in rng.integers(0, (r, m, m)))
                stack[s, i, j] = rng.choice([1.5, -1.25, 0.5, 2.0, np.nan, -np.inf])
            nonfinite = [s for s in range(r) if not np.isfinite(stack[s]).all()]
            expected = None
            for s in nonfinite[:1] or range(r):
                try:
                    AssociationMatrix(stack[s])
                except InvalidGameError as exc:
                    expected = str(exc)
                    break
            if expected is None:
                check_association(stack)
            else:
                with pytest.raises(InvalidGameError) as exc:
                    check_association(stack)
                assert str(exc.value) == expected

    def test_extreme_entries_allowed(self):
        phi = AssociationMatrix(((1.0, -1.0), (1.0, 1.0)))
        assert phi.entries[0][1] == -1.0


class TestSeededRng:
    @pytest.mark.parametrize("seed", [True, 1.5, 2.0, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InvalidGameError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            seeded_rng(seed, 0)

    def test_numpy_integer_seed_accepted(self):
        assert seeded_rng(np.uint8(7), 2).integers(2**62) == seeded_rng(7, 2).integers(2**62)


def _numpy_key(seed, *key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64).tolist()


def _keys(streams):
    return [rng.bit_generator.state["state"]["key"].tolist() for rng in streams]


class TestSeededStreams:
    """A batch of streams is numpy's own: each key is `SeedSequence`'s, and
    each stream draws what a fresh `seeded_rng` at its seed and key draws."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("first_key", [0, 2**32 - 2, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, 4])
    def test_keyed_keys_are_numpys(self, seed, first_key, count):
        # from 2^32 - 2 and 2^64 - 1 a batch holds keys of two word counts
        expected = [_numpy_key(seed, k) for k in range(first_key, first_key + count)]
        assert _keys(seeded_streams(seed, count, first_key)) == expected

    @pytest.mark.parametrize("seed", SEEDS + [2**32 - 2, 2**128 - 2])
    @pytest.mark.parametrize("count", [1, 4])
    def test_consecutive_seed_keys_are_numpys(self, seed, count):
        # from 2^32 - 2 two seeds have one word and two have two; from 2^128 - 2,
        # four words and five, the fifth hashed after the pool's four
        assert _keys(seeded_streams(seed, count)) == [_numpy_key(seed + r) for r in range(count)]

    @pytest.mark.parametrize("count", [1, 6])
    @pytest.mark.parametrize("seed, first_key", [(7, 2**32 - 3), (2**32 - 3, None)])
    @pytest.mark.parametrize(
        "draw",
        [
            # full-range words in uneven chunks, as the sampler draws them
            lambda rng: np.concatenate([rng.integers(0, 2**64, size=(r, 2), dtype=np.uint64) for r in (1, 4, 3)]),
            # a scalar, then a sized bounded draw: each value takes 32 bits, so a
            # stream can end with the other half of a 64-bit word buffered
            lambda rng: random_weights(rng, RandomGameSpec(min_players=2, max_players=9)),
            lambda rng: rng.uniform(-1.0, 1.0, (3, 3)),
        ],
        ids=["uint64-chunks", "random-weights", "uniform"],
    )
    def test_draws_are_seeded_rngs(self, count, seed, first_key, draw):
        # each stream leaves a part-used buffer, which the next stream must not see
        for j, rng in enumerate(seeded_streams(seed, count, first_key)):
            fresh = seeded_rng(seed + j) if first_key is None else seeded_rng(seed, first_key + j)
            assert np.array_equal(draw(rng), draw(fresh))

    @pytest.mark.parametrize("first_key", [None, 3])
    def test_numpy_integer_seed(self, first_key):
        # 255 + 1 would wrap in uint8: the seed is an int before any shift
        expected = [_numpy_key(255 + j) if first_key is None else _numpy_key(255, first_key + j) for j in range(3)]
        assert _keys(seeded_streams(np.uint8(255), 3, first_key)) == expected

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be non-negative, got -1"), (True, "seed must be an integer, got True"),
         (1.5, "seed must be an integer, got 1.5")],
    )
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("first_key", [None, 0])
    def test_bad_seed_raises_before_a_stream(self, seed, message, count, first_key):
        with pytest.raises(InvalidGameError, match=f"^{re.escape(message)}$"):
            next(seeded_streams(seed, count, first_key))


class TestCoalitions:
    def test_round_trip(self):
        c = coalition_of([0, 2, 5])
        assert list(coalition_members(c)) == [0, 2, 5]
        assert coalition_size(c) == 3

    def test_full(self):
        assert full_coalition(3) == 0b111

    def test_negative_mask_has_no_members(self):
        # -1 >> 1 is -1, so a bit loop over a negative mask never ends
        with pytest.raises(InvalidGameError, match="^coalition -1 is negative"):
            coalition_members(-1)

    def test_negative_mask_has_no_size(self):
        with pytest.raises(InvalidGameError, match="^coalition -6 is negative"):
            coalition_size(-6)

    def test_out_of_range_bits_rejected(self):
        g = game_321()
        with pytest.raises(InvalidGameError, match="bits outside"):
            validate_coalition(g, 1 << 3)
        with pytest.raises(InvalidGameError):
            validate_coalition(g, -1)

    @pytest.mark.parametrize("mask", [3.0, np.float64(3), "3", None], ids=["float", "numpy-float", "str", "none"])
    def test_non_integer_mask_rejected(self, mask):
        g, message = game_321(), f"^coalition {re.escape(repr(mask))} is not an integer bitmask of players$"
        for call in (lambda: coalition_members(mask), lambda: coalition_size(mask), lambda: validate_coalition(g, mask),
                     lambda: is_winning(g, mask), lambda: is_critical_classical(g, 0, mask),
                     lambda: is_critical_assoc(g, AssociationMatrix.identity(3), 0, mask, members_only=True),
                     lambda: all_critical_weight_check(g, mask)):
            with pytest.raises(InvalidGameError, match=message):
                call()


class TestWinning:
    def test_boundary_is_winning(self):
        g = game_321()
        assert is_winning(g, coalition_of([0, 2]))  # weight 4 == quota
        assert not is_winning(g, coalition_of([1, 2]))  # weight 3

    def test_strict_convention(self):
        g = game_321()
        assert not is_winning(g, coalition_of([0, 2]), strict=True)
        assert is_winning(g, coalition_of([0, 1]), strict=True)  # weight 5

    def test_multi_quota_all_dimensions(self):
        g = VotingGame(
            player_ids=("a", "b"),
            weights=((2.0, 1.0), (1.0, 3.0)),
            quotas=(2.0, 3.0),
        )
        assert not is_winning(g, 0b01)  # fails second quota
        assert not is_winning(g, 0b10)  # fails first quota
        assert is_winning(g, 0b11)

    def test_empty_coalition_loses(self):
        assert not is_winning(game_321(), 0)


class TestClassicalCriticality:
    def test_spec_profile(self):
        g = game_321()
        # p1 swings {p1,p2}, {p1,p3}, {p1,p2,p3}
        assert is_critical_classical(g, 0, 0b011)
        assert is_critical_classical(g, 0, 0b101)
        assert is_critical_classical(g, 0, 0b111)
        # p2 and p3 swing only alongside p1
        assert is_critical_classical(g, 1, 0b011)
        assert not is_critical_classical(g, 1, 0b111)
        assert is_critical_classical(g, 2, 0b101)

    def test_losing_coalition_not_critical(self):
        assert not is_critical_classical(game_321(), 2, 0b100)

    def test_nonmember_rejected(self):
        with pytest.raises(InvalidGameError, match="not in the coalition"):
            is_critical_classical(game_321(), 0, 0b010)


class TestPersuasion:
    def test_load_and_surplus(self):
        g = single_quota_game([2, 1], 2)
        phi = AssociationMatrix(((1.0, 1.0), (0.5, 1.0)))
        p1 = persuasion_load(g, phi, "p1")
        assert p1.load == (3.0,)
        assert p1.surplus == (1.0,)
        p2 = persuasion_load(g, phi, "p2")
        assert p2.load == (2.0,)
        assert p2.surplus == (1.0,)

    def test_negative_surplus(self):
        g = single_quota_game([2, 1], 2)
        phi = AssociationMatrix(((1.0, -1.0), (0.5, 1.0)))
        p1 = persuasion_load(g, phi, "p1")
        assert p1.load == (1.0,)
        assert p1.surplus == (-1.0,)

    def test_loads_match_matrix_product(self):
        g = single_quota_game([3, 2, 1], 4)
        phi = AssociationMatrix(((1.0, 0.25, -0.5), (0.0, 1.0, 0.75), (-1.0, 0.5, 1.0)))
        loads = persuasion_loads(g, phi)
        expect = phi.matrix @ g.weight_matrix
        for i in range(3):
            assert loads[i][0] == pytest.approx(expect[i, 0], abs=1e-12)

    def test_size_mismatch_rejected(self):
        g = game_321()
        with pytest.raises(InvalidGameError):
            persuasion_loads(g, AssociationMatrix.identity(2))


class TestAssociationCriticality:
    def test_spec_example(self):
        g = single_quota_game([2, 1], 2)
        phi = AssociationMatrix(((1.0, 1.0), (0.5, 1.0)))
        # p2 pulls weight 2 out of {p1,p2}: 3 - 2 < 2
        assert is_critical_assoc(g, phi, 1, 0b11)
        assert not is_critical_classical(g, 1, 0b11)

    def test_identity_matches_classical(self):
        g = game_321()
        phi = AssociationMatrix.identity(3)
        for c in range(1, 8):
            for i in coalition_members(c):
                assert is_critical_assoc(g, phi, i, c) == is_critical_classical(g, i, c)

    def test_members_only_variant(self):
        g = single_quota_game([2, 1, 1], 2)
        phi = AssociationMatrix(((1.0, 0.0, -1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        c = 0b011  # {p1, p2}, weight 3
        # whole-game load of p1 is 2 - 1 = 1, removal leaves 2 >= q
        assert not is_critical_assoc(g, phi, 0, c)
        # restricted to members, p3's negative pull is gone: load 2, 3 - 2 < 2
        assert is_critical_assoc(g, phi, 0, c, members_only=True)

    def test_nonmember_rejected(self):
        g = single_quota_game([2, 1], 2)
        with pytest.raises(InvalidGameError, match="not in the coalition"):
            is_critical_assoc(g, AssociationMatrix.identity(2), 0, 0b10)

    @pytest.mark.parametrize("members_only", [False, True])
    @pytest.mark.parametrize("size", [2, 4])
    def test_wrong_size_matrix_rejected_for_every_coalition(self, members_only, size):
        g = game_321()
        phi = AssociationMatrix.identity(size)
        for c in (0b111, 0b001):  # winning, losing
            with pytest.raises(InvalidGameError, match=f"{size}x{size} but the game has 3"):
                is_critical_assoc(g, phi, 0, c, members_only=members_only)

    @pytest.mark.parametrize("seed", range(60))
    def test_verdicts_match_the_member_loops(self, seed):
        """Both association variants and the classical test agree, for every
        (player, coalition), with the literal verdict on loads summed one
        product at a time: multi-quota games with quotas on a coalition's
        sums, and single-quota corpus games, each with a random matrix."""
        if seed % 2:
            game, phi = corpus(1, seed=seed, max_players=8, with_phi=True)[0]
        else:
            game, phi = _kernel_game(np.random.default_rng(1000 + seed), integral=seed % 4 == 0)
        t = game.winning_thresholds
        full = full_coalition(game.num_players)
        for c in range(1, full + 1):
            sums = coalition_weight(game, c)
            win = sums_win(sums, t)
            for i in coalition_members(c):
                for load, verdict in (
                    (game.weights[i], is_critical_classical(game, i, c)),
                    (loop_load(game, phi, i, full), is_critical_assoc(game, phi, i, c)),
                    (loop_load(game, phi, i, c), is_critical_assoc(game, phi, i, c, True)),
                ):
                    assert verdict is (win and removal_breaks(sums, load, t))


@st.composite
def small_games(draw):
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6))
    total = sum(weights)
    quota = draw(st.integers(1, max(1, total + 1)))
    return single_quota_game(weights, quota)


class TestProperties:
    @given(small_games())
    @settings(max_examples=150, deadline=None)
    def test_dummy_never_critical(self, game):
        dummies = [i for i, row in enumerate(game.weights) if row[0] == 0.0]
        full = full_coalition(game.num_players)
        for i in dummies:
            for c in range(1, full + 1):
                if (c >> i) & 1:
                    assert not is_critical_classical(game, i, c)

    @given(small_games())
    @settings(max_examples=150, deadline=None)
    def test_criticality_implies_winning(self, game):
        for c in range(1, 1 << game.num_players):
            for i in coalition_members(c):
                if is_critical_classical(game, i, c):
                    assert is_winning(game, c)
                    assert not is_winning(game, c & ~(1 << i))

    @given(small_games())
    @settings(max_examples=100, deadline=None)
    def test_identity_reduction(self, game):
        phi = AssociationMatrix.identity(game.num_players)
        for c in range(1, 1 << game.num_players):
            for i in coalition_members(c):
                assert is_critical_assoc(game, phi, i, c) == is_critical_classical(game, i, c)


def _kernel_game(rng, integral):
    """Random k-quota game whose quotas sit exactly on one coalition's sums,
    with a random association matrix."""
    m, k = int(rng.integers(2, 8)), int(rng.integers(1, 4))
    if integral:
        weights = rng.integers(0, 10, size=(m, k)).astype(float)
    else:
        weights = rng.uniform(0.0, 3.0, size=(m, k))
    anchor = [i for i in range(m) if rng.random() < 0.6] or [0]
    quotas = [sum(weights[i][d] for i in anchor) or 1.0 for d in range(k)]
    a = rng.uniform(-1.0, 1.0, size=(m, m))
    np.fill_diagonal(a, 1.0)
    game = VotingGame(
        tuple(f"p{i}" for i in range(m)), tuple(map(tuple, weights.tolist())), tuple(quotas)
    )
    return game, AssociationMatrix(tuple(map(tuple, a.tolist())))


class TestKernel:
    """The shared comparison against the literal definitions: a coalition
    wins iff all(s >= q - tol), strictly iff all(s > q + tol), and a removal
    breaks iff any(s - l < q - tol)."""

    @pytest.mark.parametrize("integral", [True, False])
    @pytest.mark.parametrize("seed", range(15))
    def test_predicates_match_definitions(self, integral, seed):
        game, phi = _kernel_game(np.random.default_rng(seed), integral)
        q, tol = game.quotas, game.quota_tolerances
        loads = persuasion_loads(game, phi)
        coalitions = range(1, 1 << game.num_players)
        sums = [coalition_weight(game, c) for c in coalitions]
        wins = [all(sd >= qd - td for sd, qd, td in zip(s, q, tol)) for s in sums]
        strict = [all(sd > qd + td for sd, qd, td in zip(s, q, tol)) for s in sums]
        for c, s, win, win_strict in zip(coalitions, sums, wins, strict):
            assert is_winning(game, c) == win
            assert is_winning(game, c, strict=True) == win_strict
            for i in coalition_members(c):
                for load, critical in (
                    (game.weights[i], is_critical_classical(game, i, c)),
                    (loads[i], is_critical_assoc(game, phi, i, c)),
                ):
                    breaks = any(sd - ld < qd - td for sd, ld, qd, td in zip(s, load, q, tol))
                    assert critical == (win and breaks)
        # the same functions over dimension-first numpy rows
        rows = np.array(sums).T
        assert sums_win(rows, game.thresholds()).tolist() == wins
        assert sums_win(rows, game.thresholds(strict=True)).tolist() == strict
        l = loads[0]
        assert removal_breaks(rows, np.array(l), game.thresholds()).tolist() == [
            any(sd - ld < qd - td for sd, ld, qd, td in zip(s, l, q, tol)) for s in sums
        ]

    @pytest.mark.parametrize("strict", [False, True])
    def test_sums_on_the_boundary(self, strict):
        """Player a's weight sits exactly on the boundary and one ulp either
        side.  Adding and removing b's 0.25 is exact in [1, 2), so the
        coalition {a, b} minus b sums to exactly a's weight; c only fixes
        the tolerance's scale."""
        q, l, big = 1.5, 0.25, 1000.5
        edge = q
        for _ in range(3):  # the tolerance scales with the total, which holds a's weight
            tol = VotingGame(("a", "b", "c"), ((edge,), (l,), (big,)), (q,)).quota_tolerances[0]
            edge = q + tol if strict else q - tol
        seen_wins = []
        for x in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            g = VotingGame(("a", "b", "c"), ((x,), (l,), (big,)), (q,))
            assert g.quota_tolerances[0] == tol
            pair = coalition_weight(g, 0b011)
            assert pair[0] - l == x
            win = x > q + tol if strict else x >= q - tol
            breaks = not win
            seen_wins.append(win)
            assert is_winning(g, 0b001, strict=strict) == win
            assert removal_breaks(pair, (l,), g.thresholds(strict)) == breaks
            if not strict:
                assert is_critical_classical(g, 1, 0b011) == breaks
        assert seen_wins == [False, not strict, True]


def _edge_games():
    """An integer game, whose thresholds are its quotas, and a game of
    decimals, whose thresholds sit a tolerance off them."""
    return [
        VotingGame(("a", "b", "c"), ((3.0, 1.0), (2.0, 1.0), (1.0, 1.0)), (4.0, 2.0)),
        VotingGame(("a", "b", "c"), ((0.1, 7.25), (0.2, 1e-3), (0.3, 2.5)), (0.3, 3.1)),
    ]


def _edge_loads(t):
    """Loads against threshold ``t``: those that cancel it to 0 and to one
    ulp either way, +-1e300, negative, zero and positive loads, and the
    largest floats either way."""
    big = sys.float_info.max
    return [-t, -math.nextafter(t, 0.0), -math.nextafter(t, math.inf), 1e300, -1e300,
            -0.5 * t, -3.75, -1e-300, 0.0, -0.0, 0.25 * t, 2.0 * t + 1.0, 1.7e308, -1.7e308, big, -big]


class TestRemovalEdges:
    """``s < v`` for the edge ``v`` is the kernel's verdict ``s - l < t`` for
    every float sum, checked at the edge and one ulp on either side."""

    def _check(self, loads, thresholds):
        """Edges of (k, n) ``loads``, found without a warning, and checked
        against the kernel per dimension."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = removal_edges(loads, thresholds)
        assert edges.shape == loads.shape
        for l, t, v in zip(loads, thresholds, edges):
            for s in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)):
                assert np.array_equal(s < v, removal_breaks((s,), (l,), (t,)))
        return edges

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("game", _edge_games(), ids=["integer", "decimal"])
    def test_edges_under_both_conventions(self, game, strict):
        thresholds = game.thresholds(strict)
        loads = np.array([_edge_loads(t) for t in thresholds])
        edges = self._check(loads, thresholds)
        # a load that cancels the threshold to 0 puts its edge about half an
        # ulp of t below 0, far more ulps from t + l than one step either way
        for v, t in zip(edges[:, 0], thresholds):
            assert -math.ulp(t) <= v < 0.0 and abs(v) > 1e6 * math.ulp(0.0)

    @pytest.mark.parametrize("strict", [False, True])
    def test_subnormal_thresholds(self, strict):
        """A threshold and its strict neighbour, as `VotingGame.thresholds`
        gives them for an integer quota, in the subnormal range, where
        ``t + l`` cancels to a subnormal or to 0."""
        t = 3e-310
        if strict:
            t = math.nextafter(t, math.inf)
        tiny = math.ulp(0.0)
        loads = [-t + tiny, -t + 7 * tiny, -t, -t - tiny, *_edge_loads(t)]
        self._check(np.array([loads]), (t,))

    @pytest.mark.parametrize("strict", [False, True])
    def test_random_sums_and_loads(self, strict):
        """Every game dimension at once, against `removal_breaks` on random
        sums, for loads of every scale and sign."""
        rng = np.random.default_rng(71)
        for game in _edge_games():
            thresholds = game.thresholds(strict)
            k = len(thresholds)
            loads = rng.normal(size=(k, 400)) * 10.0 ** rng.integers(-8, 8, size=(k, 400))
            edges = self._check(loads, thresholds)
            for l in loads.T[:40]:
                sums = np.array(thresholds)[:, None] + l[:, None] + rng.normal(size=(k, 200)) * 1e-12
                v = removal_edges(l, thresholds)
                assert np.array_equal(~sums_win(sums, v), removal_breaks(sums, l, thresholds))
            assert np.array_equal(removal_edges(loads.T[:5].T, thresholds), edges[:, :5])
