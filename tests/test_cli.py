import contextlib
import gc
import io
import json
import re
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from banzhaf import cli, data, exact, games, sampling
from banzhaf.cli import main
from banzhaf.data import dump_game, eu_game, random_association
from banzhaf.exact import exact_indices
from banzhaf.games import single_quota_game


@pytest.fixture()
def g3(tmp_path):
    path = tmp_path / "g3.json"
    path.write_text(dump_game(single_quota_game([3, 2, 1], 4)), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_integer_beyond_float_range_is_data_error(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(
        '{"players": [{"id": "a", "weights": [1%s]}, {"id": "b", "weights": [1]}],'
        ' "quotas": [1]}' % ("0" * 400),
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["exact", "--game", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: players[0].weights[0]: not finite\n"


class TestExact:
    def test_table_output(self, capsys, g3):
        code, out, _ = run(capsys, ["exact", "--game", g3])
        assert code == 0
        assert "p1" in out
        assert "0.60000" in out and "0.20000" in out

    def test_json_output(self, capsys, g3):
        code, out, _ = run(capsys, ["exact", "--game", g3, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "classical"
        norms = [p["normalized"] for p in doc["players"]]
        assert norms == [0.6, 0.2, 0.2]

    def test_csv_output(self, capsys, g3):
        code, out, _ = run(capsys, ["exact", "--game", g3, "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "player,swings,absolute,normalized"
        assert lines[1] == "p1,3,0.75000,0.60000"

    def test_deterministic_bytes(self, capsys, g3):
        _, out1, _ = run(capsys, ["exact", "--game", g3, "--format", "json"])
        _, out2, _ = run(capsys, ["exact", "--game", g3, "--format", "json"])
        assert out1 == out2

    def test_json_and_table_agree_at_precision(self, capsys, g3):
        _, table, _ = run(capsys, ["exact", "--game", g3])
        _, js, _ = run(capsys, ["exact", "--game", g3, "--format", "json"])
        doc = json.loads(js)
        for p in doc["players"]:
            assert f"{p['normalized']:.5f}" in table

    def test_identity_flag_matches_classical(self, capsys, g3):
        _, classical, _ = run(capsys, ["exact", "--game", g3, "--format", "csv"])
        code, ident, _ = run(capsys, ["exact", "--game", g3, "--identity", "--format", "csv"])
        assert code == 0
        assert classical == ident

    def test_association_file(self, capsys, g3, tmp_path):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(
            json.dumps([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), encoding="utf-8"
        )
        code, out, _ = run(
            capsys,
            ["exact", "--game", g3, "--association", str(phi_path), "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["mode"] == "association"

    def test_association_and_identity_exclusive(self, capsys, g3, tmp_path):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), encoding="utf-8")
        argv = ["exact", "--game", g3, "--association", str(phi_path), "--identity"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert "--association and --identity are mutually exclusive" in err

    def test_association_file_not_json(self, capsys, g3, tmp_path):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text("[[1, 0", encoding="utf-8")
        code, out, err = run(capsys, ["exact", "--game", g3, "--association", str(phi_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: association file: invalid JSON")

    def test_association_size_mismatch(self, capsys, g3, tmp_path):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps([[1, 0], [0, 1]]), encoding="utf-8")
        code, _, err = run(capsys, ["exact", "--game", g3, "--association", str(phi_path)])
        assert code == 2
        assert "player" in err

    def test_out_file(self, capsys, g3, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, ["exact", "--game", g3, "--format", "csv", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert "p1,3" in target.read_text(encoding="utf-8")

    def test_builtin_eu_name(self, capsys):
        code, out, _ = run(capsys, ["exact", "--game", "eu", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["players"]) == 18


class TestApprox:
    def test_reports_ci(self, capsys, g3):
        code, out, _ = run(
            capsys,
            ["approx", "--game", g3, "--epsilon", "0.1", "--delta", "0.1",
             "--seed", "5", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 150  # required_samples(0.1, 0.1, hoeffding)
        for p in doc["players"]:
            assert p["ci_lower"] <= p["estimate"] <= p["ci_upper"]

    def test_explicit_samples_and_determinism(self, capsys, g3):
        args = ["approx", "--game", g3, "--epsilon", "0.1", "--delta", "0.1",
                "--samples", "400", "--seed", "9", "--format", "csv"]
        code, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert code == 0
        assert out1 == out2
        assert json.loads(run(capsys, args[:-1] + ["json"])[1])["samples"] == 400

    def test_student_method(self, capsys, g3):
        code, out, _ = run(
            capsys,
            ["approx", "--game", g3, "--epsilon", "0.1", "--delta", "0.1",
             "--method", "student", "--samples", "300", "--seed", "2", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["method"] == "student"

    def test_selfbounding_derives_samples(self, capsys, g3):
        code, out, _ = run(
            capsys,
            ["approx", "--game", g3, "--epsilon", "0.2", "--delta", "0.1",
             "--method", "selfbounding", "--seed", "2", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        # B = 2 * min(1, max ht bound) + epsilon = 2 * 0.75 + 0.2
        assert doc["samples"] == 128

    @pytest.mark.parametrize("command", ["exact", "approx"])
    def test_association_options_have_help(self, capsys, command):
        _, out, _ = run(capsys, [command, "--help"])
        assert re.search(r"--association FILE +Association matrix file \(JSON rows\)\.\n", out)
        assert re.search(r"--identity +Force the identity association matrix\.\n", out)

    def test_missing_epsilon_is_usage_error(self, capsys, g3):
        code, _, err = run(capsys, ["approx", "--game", g3, "--delta", "0.1", "--seed", "1"])
        assert code == 1

    def test_bad_delta_is_data_error(self, capsys, g3):
        code, _, err = run(
            capsys,
            ["approx", "--game", g3, "--epsilon", "0.1", "--delta", "2.0", "--seed", "1"],
        )
        assert code == 2
        assert "delta" in err


class TestBounds:
    def test_table(self, capsys, g3):
        code, out, _ = run(capsys, ["bounds", "--game", g3])
        assert code == 0
        assert "ht_bound" in out
        assert "m_low=1" in out and "M_high=8" in out

    def test_player_filter(self, capsys, g3):
        code, out, _ = run(capsys, ["bounds", "--game", g3, "--player", "p3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["players"]) == 1
        assert doc["players"][0]["id"] == "p3"
        assert doc["players"][0]["ht_bound"] == 0.25

    def test_multi_quota_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "mq.json"
        path.write_text(
            json.dumps(
                {
                    "players": [
                        {"id": "a", "weights": [1, 1]},
                        {"id": "b", "weights": [1, 1]},
                    ],
                    "quotas": [1, 1],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["bounds", "--game", str(path)])
        assert code == 2
        assert "single-quota" in err

    def test_extreme_quota_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(dump_game(single_quota_game([1, 2], 1e34)), encoding="utf-8")
        code, out, err = run(capsys, ["bounds", "--game", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: size window: the quota-to-weight ratio quota / max weight")
        assert "Traceback" not in err

    def test_rejected_before_enumeration(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("enumerated a game bounds cannot report on")

        monkeypatch.setattr("banzhaf.cli.exact_indices", fail)
        code, _, err = run(capsys, ["bounds", "--game", "eu"])
        assert code == 2
        assert "bounds_report requires a single-quota game" in err

    def test_extreme_quota_rejected_before_enumeration(self, capsys, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("enumerated a game whose size window cannot be searched")

        monkeypatch.setattr("banzhaf.cli.exact_indices", fail)
        path = tmp_path / "far.json"
        path.write_text(dump_game(single_quota_game([1] * 33 + [2], 1e34)), encoding="utf-8")
        code, out, err = run(capsys, ["bounds", "--game", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: size window: the quota-to-weight ratio quota / max weight")


class TestEu:
    def test_wta_table(self, capsys):
        code, out, _ = run(capsys, ["eu"])
        assert code == 0
        assert "FRA" in out
        fra = [l for l in out.splitlines() if l.startswith("FRA")][0]
        assert "0.09560" in fra
        pol = [l for l in out.splitlines() if l.startswith("POL")][0]
        assert "0.08853" in pol

    def test_migration_flag(self, capsys, tmp_path):
        g = eu_game()
        ids = list(reversed(g.player_ids))  # exercise label reordering
        m = len(ids)
        rows = []
        for i in range(m):
            rows.append(",".join(str((i * m + j) % 7) for j in range(m)))
        csv_text = ",".join(ids) + "\n" + "\n".join(rows) + "\n"
        path = tmp_path / "mig.csv"
        path.write_text(csv_text, encoding="utf-8")
        code, out, _ = run(capsys, ["eu", "--migration", str(path), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc["players"][0]) == {"id", "weight", "wta", "wa"}

    def test_migration_label_mismatch(self, capsys, tmp_path):
        path = tmp_path / "mig.csv"
        path.write_text("A,B\n0,1\n2,0\n", encoding="utf-8")
        code, _, err = run(capsys, ["eu", "--migration", str(path)])
        assert code == 2
        assert "country ids" in err

    def test_random_association_protocol(self, capsys):
        code, out, _ = run(
            capsys, ["eu", "--random-association", "--runs", "3", "--seed", "1",
                     "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["protocol"] == {"runs": 3, "seed": 1}
        assert len(doc["runs"]) == 3
        assert set(doc["mean"]) == set(eu_game().player_ids)
        # per-run and mean values present in the table form too
        code2, table, _ = run(
            capsys, ["eu", "--random-association", "--runs", "3", "--seed", "1"]
        )
        assert code2 == 0
        assert "mean" in table

    def test_random_association_runs_must_be_positive(self, capsys):
        code, out, err = run(capsys, ["eu", "--random-association", "--runs", "0"])
        assert (code, out) == (1, "")
        assert "--runs must be positive" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--runs", "0"], (1, "", "usage error: --runs must be positive\n")),
            (["--runs", "2", "--seed", "-1"], (2, "", "error: seed must be non-negative, got -1\n")),
        ],
        ids=["runs", "seed"],
    )
    def test_random_association_usage_checked_before_the_table(self, capsys, monkeypatch, argv, expected):
        def no_table(game):
            raise AssertionError("the table was built")

        monkeypatch.setattr(cli, "CoalitionTable", no_table)
        assert run(capsys, ["eu", "--random-association", *argv]) == expected

    def test_random_association_stacks_match_the_per_matrix_loop(self, capsys, monkeypatch):
        """Stacks of two runs' draws, so that five runs cross two stack
        boundaries: the same bytes as one stack, and each run's indices
        those of its own `exact_indices` call, as before stacking."""
        argv = ["eu", "--random-association", "--runs", "5", "--seed", "2", "--format", "json", "--precision", "17"]
        one_stack = run(capsys, argv)
        monkeypatch.setattr(exact, "_STACK_BYTES", 2 * 18 * 18 * 8)
        code, out, _ = run(capsys, argv)
        assert (code, out) == one_stack[:2] and code == 0
        game = eu_game()
        expected = [exact_indices(game, random_association(18, 2 + r)).normalized for r in range(5)]
        assert json.loads(out)["runs"] == [{p: round(v, 17) for p, v in zip(game.player_ids, row)} for row in expected]

    def test_random_association_builds_no_matrix_per_run(self, capsys, monkeypatch):
        """The runs are drawn, checked and loaded as one stack of arrays:
        no `AssociationMatrix`, and so no tuples of entries, per run."""

        def no_matrix(self):
            raise AssertionError("an AssociationMatrix was built")

        argv = ["eu", "--random-association", "--runs", "5", "--seed", "2"]
        expected = run(capsys, argv)
        monkeypatch.setattr(games.AssociationMatrix, "__post_init__", no_matrix)
        assert run(capsys, argv) == expected and expected[0] == 0

    def test_random_association_stack_is_checked(self, capsys, monkeypatch):
        """A stack's draws pass the association rule before their loads."""
        draw = exact.association_draws

        def doctored(m, seed, runs):
            draws = draw(m, seed, runs)
            draws[1, 0, 1] = 1.5
            return draws

        monkeypatch.setattr(exact, "association_draws", doctored)
        argv = ["eu", "--random-association", "--runs", "3"]
        assert run(capsys, argv) == (2, "", "error: association a[0][1]=1.5 outside [-1, 1]\n")

    def test_random_association_memory(self, capsys):
        """The traced peak of 100 runs stays below 3.5 MiB: 2.56 MiB when each
        run had its own loads, 2.71 MiB with one running load sum over the
        stack, 3.65 MiB if the stack's (r * m, m, k) products and their
        cumulative sum were materialised.  A first run fills the interpreter's
        caches and free lists, which tracemalloc counts as live."""
        argv = ["eu", "--random-association", "--runs", "100"]
        run(capsys, argv)
        gc.collect()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "mean" in capsys.readouterr().out
        assert peak < 3.5 * 2**20

    def test_migration_and_random_exclusive(self, capsys, tmp_path):
        path = tmp_path / "mig.csv"
        path.write_text("A,B\n0,1\n2,0\n", encoding="utf-8")
        code, _, _ = run(capsys, ["eu", "--migration", str(path), "--random-association"])
        assert code == 1


class TestConjecture:
    def test_runs(self, capsys):
        code, out, _ = run(
            capsys, ["conjecture", "--trials", "10", "--seed", "3", "--max-players", "6",
                     "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["games_scanned"] == 10
        assert doc["counterexamples"] == []
        assert doc["min_slack"] > 0

    def test_missing_trials_usage_error(self, capsys):
        code, _, _ = run(capsys, ["conjecture", "--seed", "3"])
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--max-players", "1", "max_players must be at least min_players (3), got 1"),
         ("--max-weight", "0", "max_weight must be at least min_weight (1), got 0")],
    )
    def test_spec_out_of_range_is_data_error(self, capsys, flag, value, message):
        code, out, err = run(capsys, ["conjecture", "--trials", "5", "--seed", "1", flag, value])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_negative_precision_is_usage_error(capsys, g3, fmt):
    code, out, err = run(capsys, ["exact", "--game", g3, "--format", fmt, "--precision", "-1"])
    assert (code, out) == (1, "")
    assert err.startswith("usage error: Invalid value for '--precision'")
    code, out, _ = run(capsys, ["exact", "--game", g3, "--format", fmt, "--precision", "0"])
    assert code == 0 and out


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1

    def test_unknown_flag(self, capsys, g3):
        code, _, _ = run(capsys, ["exact", "--game", g3, "--frob"])
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["exact", "--game", "/no/such/file.json"])
        assert code == 2

    def test_interrupt_exits_1(self, capsys, monkeypatch, g3):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        # click turns Ctrl-C into Abort, after a newline on stderr
        monkeypatch.setattr("banzhaf.cli.exact_indices", interrupt)
        assert run(capsys, ["exact", "--game", g3]) == (1, "", "\n")

    def test_malformed_game_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, ["exact", "--game", str(path)])
        assert code == 2
        assert "JSON" in err


_TWO_PLAYERS = {"players": [{"id": "a", "weights": [1]}, {"id": "b", "weights": [1]}],
                "quotas": [1]}
_BIG = "1" + "0" * 400


class TestMalformedInput:
    """Outside data that is not a valid game ends in one message, never a traceback."""

    @pytest.mark.parametrize(
        "source, content, message",
        [
            ("association", [[1, 0, 0], 5, [0, 0, 1]], "association row 1: not numeric"),
            ("association", {"association": [[1, 0], [0, 1]]},
             "association matrix is 2x2 but the game has 3 players"),
            ("association", [[1, 0, 0], "010", [0, 0, 1]], "association row 1: not numeric"),
            ("association", [[1, "0.5", 0], [0, 1, 0], [0, 0, 1]],
             "association row 0[1]: not numeric"),
            ("association", [[1, 0, 0], [0, True, 0], [0, 0, 1]],
             "association row 1[1]: not numeric"),
            ("game", {**_TWO_PLAYERS, "association": [[1, 0], 5]}, "association row 1: not numeric"),
            ("game", {**_TWO_PLAYERS, "association": [[1, "0.5"], [0, 1]]},
             "association row 0[1]: not numeric"),
            ("game", {**_TWO_PLAYERS, "association": [[True, 0], [0, 1]]},
             "association row 0[0]: not numeric"),
            ("game", {**_TWO_PLAYERS, "quotas": ["1"]},
             "quotas[0]: must be a number or a fraction object"),
            ("migration", f"A,B\n0,{_BIG}\n1,0\n", "migration flow [A][B]: not finite"),
            ("migration", "A,B\n0,nan\n1,0\n", "migration flow [A][B]: not finite"),
        ],
        ids=["association-row-not-list", "association-wrong-size", "association-row-string",
             "association-numeric-string", "association-bool", "game-association-row-not-list",
             "game-association-numeric-string", "game-association-bool", "game-string-quota",
             "migration-huge-flow", "migration-nan-flow"],
    )
    def test_rejected_with_one_error_line(self, capsys, g3, tmp_path, source, content, message):
        path = tmp_path / "input"
        path.write_text(content if isinstance(content, str) else json.dumps(content),
                        encoding="utf-8")
        argv = {
            "association": ["exact", "--game", g3, "--association", str(path)],
            "game": ["exact", "--game", str(path)],
            "migration": ["eu", "--migration", str(path)],
        }[source]
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--game", "eu", "--epsilon", "0.1", "--delta", "0.1", "--seed", "-1"],
            ["eu", "--random-association", "--runs", "2", "--seed", "-1"],
            ["conjecture", "--trials", "2", "--seed", "-1"],
        ],
        ids=["approx", "eu-random-association", "conjecture"],
    )
    def test_negative_seed_is_named(self, capsys, argv):
        assert run(capsys, argv) == (2, "", "error: seed must be non-negative, got -1\n")

    _json = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=16,
    )

    @given(doc=_json | st.builds(lambda rows: {"association": rows}, _json))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_json_association_document(self, capsys, g3, tmp_path, doc):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["exact", "--game", g3, "--association", str(path)])
        if code != 0:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1


def _fresh_streams(seed, count, first_key=None):
    """The streams of `games.seeded_streams`, each from its own `seeded_rng`."""
    for j in range(count):
        yield games.seeded_rng(seed + j) if first_key is None else games.seeded_rng(seed, first_key + j)


@pytest.mark.parametrize(
    "argv",
    [
        ["eu", "--random-association", "--seed", "4294967294", "--runs", "4"],
        ["conjecture", "--seed", "4294967295", "--trials", "5"],
        ["approx", "--game", str(Path(__file__).resolve().parents[1] / "docs" / "sample-game.json"),
         "--seed", "4294967296", "--epsilon", "0.05", "--delta", "0.05"],
    ],
    ids=["eu-random-association", "conjecture", "approx"],
)
def test_stream_batches_at_the_word_boundary(capsys, monkeypatch, argv):
    """Seeds at 2^32 take a second entropy word: the EU runs' four seeds hash in
    two lengths, in one batch.  Every batch gives the bytes of one `seeded_rng`
    per stream; the conjecture scan draws its windows through `data`."""
    batched = run(capsys, argv)
    for module in (data, sampling):
        monkeypatch.setattr(module, "seeded_streams", _fresh_streams)
    assert batched[0] == 0 and batched == run(capsys, argv)


def test_redirected_streams_are_released(g3):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["exact", "--game", g3]) == 0
        assert main(["exact", "--game", "no-such-game.json"]) == 2
        assert main(["exact", "--help"]) == 0
        assert main(["--help"]) == 0
    assert out.getvalue().count("Show this message and exit.") == 2
    assert err.getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [r() for r in refs] == [None, None]
