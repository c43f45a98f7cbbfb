"""Byte-level pins of the CLI's stdout.

Every subcommand runs in every format at fixed seeds, and the exit code and
the sha256 of stdout must match the recorded values.  Refactors of the
engines or the renderers must leave these bytes unchanged; a change that
alters a report on purpose re-records the affected entries and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from banzhaf.cli import main
from banzhaf.data import dump_game, eu_game
from banzhaf.games import single_quota_game

DOCS = Path(__file__).resolve().parent.parent / "docs"

# name -> argv; "{sample}", "{migration}", "{single}" and "{eu_csv}" are
# replaced by file paths (none of which appears in any report).
CASES = {
    "exact-sample": ["exact", "--game", "{sample}"],
    "exact-sample-identity": ["exact", "--game", "{sample}", "--identity"],
    "exact-eu": ["exact", "--game", "eu"],
    "exact-single": ["exact", "--game", "{single}"],
    "approx-sample-hoeffding": ["approx", "--game", "{sample}", "--epsilon", "0.05",
                                "--delta", "0.05", "--method", "hoeffding", "--seed", "7"],
    "approx-sample-student": ["approx", "--game", "{sample}", "--epsilon", "0.05",
                              "--delta", "0.05", "--method", "student", "--seed", "7"],
    "approx-sample-selfbounding": ["approx", "--game", "{sample}", "--epsilon", "0.05",
                                   "--delta", "0.05", "--method", "selfbounding", "--seed", "7"],
    "approx-single-selfbounding": ["approx", "--game", "{single}", "--epsilon", "0.05",
                                   "--delta", "0.1", "--method", "selfbounding", "--seed", "2"],
    "approx-eu-student": ["approx", "--game", "eu", "--epsilon", "0.1", "--delta", "0.1",
                          "--method", "student", "--samples", "3000", "--seed", "3"],
    "bounds-single": ["bounds", "--game", "{single}"],
    "bounds-single-player": ["bounds", "--game", "{single}", "--player", "p3"],
    "bounds-sample": ["bounds", "--game", "{sample}"],
    "eu": ["eu"],
    "eu-migration": ["eu", "--migration", "{eu_csv}"],
    "eu-migration-sample": ["eu", "--migration", "{migration}"],
    "eu-random": ["eu", "--random-association", "--runs", "5", "--seed", "3"],
    "conjecture": ["conjecture", "--trials", "40", "--seed", "1"],
}

# "name/format" -> "exit code:sha256 of stdout", recorded before the
# criticality kernel moved into games.py.
GOLDEN = {
    "approx-eu-student/table": "0:0f530e76c910e143fe958d04d3513cdf22384f2e43bfe8cdfe2974fff6138544",
    "approx-eu-student/json": "0:46d59482266da7e64808ca7057fb4170fe5f53314ddde058164025262f916ccb",
    "approx-eu-student/csv": "0:b736142b67e81bd075a7148c930c17684f4c71858da91a6f8f0274535b4f1b22",
    "approx-sample-hoeffding/table": "0:1f97271e8b3258e09d7ea4cd8333f750a225e31e6aba6dbd10176896fc40bdb8",
    "approx-sample-hoeffding/json": "0:41345e8590a80c8a8eec477c21e536192a7458cd8428da034c5bd155d8576f99",
    "approx-sample-hoeffding/csv": "0:5e3e51e048ddc282e114e83ee8221d000f310d2b37c95a8dba0b6c09da18c2dd",
    "approx-sample-selfbounding/table": "0:2d7b355e69a638f9191cbf2df8dc9f5b8a5a635b25cf2c2c0509c29d1bde50bc",
    "approx-sample-selfbounding/json": "0:7d54e67d1e0552607ec9100b9a851510ae9f463cc7f4a560184f5ebab9249522",
    "approx-sample-selfbounding/csv": "0:b7aafa57768d6479bce13ba40da75c7084c70d9f6f44b7f5860e956ea8e2df6f",
    "approx-sample-student/table": "0:91008dcd382f9d8551ab68932315bb2146f9e45c39ab14e9fa88ca998080bc73",
    "approx-sample-student/json": "0:be24bca458c09f24a9fd1469caab8fac41dc15b5b531de0dc5b8b2b8773640e6",
    "approx-sample-student/csv": "0:994591a1811626fd6279a87d07135579401b66624d22903604a0c7f67561f1c7",
    "approx-single-selfbounding/table": "0:60f1ef65467ea20eccf9c98371237fff6c17a069339a13d142e2d650829dbd86",
    "approx-single-selfbounding/json": "0:ea1b3630052727e6de725c2d820b1ef76bb4a6d402604d2ad0dbe30605c9c665",
    "approx-single-selfbounding/csv": "0:3572d70770a02bf0f9a07ddfe628f49dc97c9457e189387193516efe33dd7754",
    "bounds-sample/table": "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "bounds-sample/json": "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "bounds-sample/csv": "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "bounds-single/table": "0:552adeec3a69846aa5c17177645b86b4cd9d2a0e8a66adbc7b0a9c98af993c88",
    "bounds-single/json": "0:74c89254482278ba9a46b3d300b43edf2a941be55a027e9c02d4b5adadf5d31a",
    "bounds-single/csv": "0:61abf898bd414d4f970adff2ff7e1afc37ca22b779a617ef8ac58a8fb2869a2e",
    "bounds-single-player/table": "0:2e55d53521cca8fa12d535accd5b92ef1ed2a32d6a11743eea6092a97a085188",
    "bounds-single-player/json": "0:7ba627cff12c2a37ac2dee3407ed426498d2a653524b45b2b0e11be6bd5fcc80",
    "bounds-single-player/csv": "0:4d4f2ce6feb9d983295526ef1a899b6fa01bfa4b839b0948a6a6bd2dee672086",
    "conjecture/table": "0:001dadc439d5078a297f4f61b56f4f4ea14de0e7035b1a369237460bde05f697",
    "conjecture/json": "0:f9381207f67261e80f263c504e024a4b86152d3bed64197c6c8dd7aefd2955e2",
    "conjecture/csv": "0:40deb93e72c99935fe9b3404f3a3b929169a59dc9b13886f5aa4d6d0f2b0d293",
    "eu/table": "0:5dc887095d1e5fca0dc41be42e61843d604434664888d0241e8fbe49eb1b6dbe",
    "eu/json": "0:07cdcbed285ecb3fced8928e5d72c0d986db0770989491f9952800dc191a087e",
    "eu/csv": "0:7591d9b35d6a316f7d21fd0b1b87c342acaaa26bfc6ca6ef44b2c7555de295d9",
    "eu-migration/table": "0:fa721ccac59b49611d611aa9d40cb81d511347526f3a266e5367207541ca9e85",
    "eu-migration/json": "0:6392cf3cb9df927056e6c85157ad05c87d792fc408445c8242ea39b49a309bfc",
    "eu-migration/csv": "0:298d4308b50ef6afcc4abd8806091fe468a82847cb676863ea20df97536083f0",
    "eu-migration-sample/table": "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eu-migration-sample/json": "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eu-migration-sample/csv": "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eu-random/table": "0:385a2f47de531e559f9dcc9cd8139436ea4228a770c5de160827f89858ff0a66",
    "eu-random/json": "0:22c38309feb424a65d530f0b65c83752a7a0f350357b84cade000335fc417927",
    "eu-random/csv": "0:dbe5038721dc353bea10d8d588acbe7ca73ff667580af8059e62738cfcf7df41",
    "exact-eu/table": "0:ac781ec508630e415bc6cacca56cc621320ae9d290dc4f7de58d664d2694c1b4",
    "exact-eu/json": "0:c1d96e864bc4a35d73d5ff72a14340997ae37ed74a3feaf6c346d71f7e0f90c2",
    "exact-eu/csv": "0:98b1b7628b1cc10e2ad28b0b7ef2d91e50e45225dda932658d9c30588619c860",
    "exact-sample/table": "0:7b867970238083bd086ec608d0e450bc99e47b4470f9dc6a801b131c9299ffbf",
    "exact-sample/json": "0:4298f68a395654f4e431340199437cd60ff059af90f15dfb1f127d97e1df7abe",
    "exact-sample/csv": "0:1e7b67e9d36472bc027cd0a089bf02ae900e0666bbf748bab5e6e42fd83206ac",
    "exact-sample-identity/table": "0:7b867970238083bd086ec608d0e450bc99e47b4470f9dc6a801b131c9299ffbf",
    "exact-sample-identity/json": "0:4298f68a395654f4e431340199437cd60ff059af90f15dfb1f127d97e1df7abe",
    "exact-sample-identity/csv": "0:1e7b67e9d36472bc027cd0a089bf02ae900e0666bbf748bab5e6e42fd83206ac",
    "exact-single/table": "0:7b7259fb0aac606a7ccb94df3cd86d7d6aad6275bae2b37165ecb4d301789bd6",
    "exact-single/json": "0:b3089cbfd7f11abad7ba53c6f0645c4162864143d70b40763cc38fa0e525b988",
    "exact-single/csv": "0:375aacb0b97619910698ac54b83d521c3cf5148b0d95b46a18eb97cf8982fd6f",
}


def _eu_migration_csv() -> str:
    """An 18-country flow table in reversed country order, so the CLI's
    reordering to the dataset's order is exercised."""
    ids = list(reversed(eu_game().player_ids))
    rows = [",".join(ids)]
    for i in range(len(ids)):
        rows.append(",".join(str(0 if i == j else (7 * i + 3 * j) % 11 * 100) for j in range(len(ids))))
    return "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    single = d / "single.json"
    single.write_text(dump_game(single_quota_game([9, 7, 5, 4, 3, 2, 1], 16)), encoding="utf-8")
    eu_csv = d / "eu.csv"
    eu_csv.write_text(_eu_migration_csv(), encoding="utf-8")
    return {
        "sample": str(DOCS / "sample-game.json"),
        "migration": str(DOCS / "sample-migration.csv"),
        "single": str(single),
        "eu_csv": str(eu_csv),
    }


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}:{hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest()}"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes(name, fmt, paths):
    argv = [a.format(**paths) for a in CASES[name]] + ["--format", fmt]
    assert digest(argv) == GOLDEN[f"{name}/{fmt}"]
