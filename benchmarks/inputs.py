"""Seeded inputs and op lists for the benchmark workloads.

Each workload is a fixed list of ops.  An op is one CLI invocation (an argv
for ``banzhaf.cli.main``) or one public library call.  Every file an op reads
is generated here from the workload seed, so the program sees only these
files and argv, and the same seed always gives the same bytes.

Run as a script, this is the set-up step whose wall time ``setup_s`` reports:
a fresh interpreter imports ``banzhaf`` and ``banzhaf.cli`` (the import every
CLI user pays), then writes the workload's inputs and ``plan.json``::

    python3 benchmarks/inputs.py <workload> <seed> <workdir>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

# The workloads (BENCHMARK.json says why each exists) and the layers (package
# modules) that must record at least one span in a traced run of each; a
# missing one means a wrapper was not rebound.
EXPECTED_LAYERS = {
    "eu_council": ("cli", "data", "games", "exact"),
    "exact_large": ("cli", "data", "games", "exact", "bounds"),
    "approx_mc": ("cli", "data", "games", "sampling", "bounds"),
}

EU_RUNS = 100
CONJECTURE_TRIALS = 300
EPSILON = "0.02"
DELTA = "0.05"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_game(path: Path, rng: np.random.Generator, m: int, fraction: float) -> None:
    weights = rng.integers(1, 101, size=m)
    doc = {
        "players": [{"id": f"v{i + 1}", "weights": [int(w)]} for i, w in enumerate(weights)],
        "quotas": [{"fraction": fraction}],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _write_association(path: Path, rng: np.random.Generator, m: int, spread: float) -> None:
    a = rng.uniform(-spread, spread, size=(m, m))
    np.fill_diagonal(a, 1.0)
    path.write_text(json.dumps({"association": a.tolist()}), encoding="utf-8")


def _write_migration(path: Path, rng: np.random.Generator, countries: list[str]) -> None:
    """18x18 flow table with the countries in a shuffled order, so the CLI's
    reordering onto the dataset's order is exercised."""
    order = [countries[i] for i in rng.permutation(len(countries))]
    flows = rng.integers(0, 100_000, size=(len(order), len(order)))
    np.fill_diagonal(flows, 0)
    lines = [",".join(order)] + [",".join(str(int(v)) for v in row) for row in flows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _approx(game: str, method: str, seed: int, extra: tuple[str, ...] = ()) -> list[str]:
    return ["approx", "--game", game, *extra, "--epsilon", EPSILON, "--delta", DELTA,
            "--method", method, "--seed", str(seed), "--format", "json"]


def make_ops(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files into ``workdir`` and return its ops.
    The first op doubles as the untimed warm-up."""
    d = workdir
    if workload == "eu_council":
        from banzhaf import EU_COUNTRIES

        csv = d / "migration.csv"
        _write_migration(csv, _rng(seed, 1), [c for c, _, _ in EU_COUNTRIES])
        rand = ["eu", "--random-association", "--runs", str(EU_RUNS), "--seed", str(seed)]
        return [
            {"name": "eu", "argv": ["eu"]},
            {"name": "eu_json", "argv": ["eu", "--format", "json"]},
            {"name": "eu_migration", "argv": ["eu", "--migration", str(csv)]},
            {"name": "eu_migration_json", "argv": ["eu", "--migration", str(csv), "--format", "json"]},
            {"name": "eu_random", "argv": rand},
            {"name": "eu_random_json", "argv": [*rand, "--format", "json"]},
        ]
    if workload == "exact_large":
        g22, g24, a22, a24 = (d / n for n in ("g22.json", "g24.json", "a22.json", "a24.json"))
        _write_game(g22, _rng(seed, 1), 22, 0.5)
        _write_game(g24, _rng(seed, 2), 24, 2.0 / 3.0)
        _write_association(a22, _rng(seed, 3), 22, 0.2)
        _write_association(a24, _rng(seed, 4), 24, 0.2)
        player = int(_rng(seed, 5).integers(0, 24))
        return [
            {"name": "exact_m22", "argv": ["exact", "--game", str(g22)]},
            {"name": "exact_m24", "argv": ["exact", "--game", str(g24), "--format", "json"]},
            {"name": "exact_assoc_m22",
             "argv": ["exact", "--game", str(g22), "--association", str(a22), "--format", "csv"]},
            {"name": "bounds_m22", "argv": ["bounds", "--game", str(g22), "--format", "json"]},
            {"name": "delta_m24", "call": "association_delta",
             "game": str(g24), "association": str(a24), "player": player},
            # many tiny exact calls, where per-call set-up and Python overhead dominate
            {"name": "conjecture",
             "argv": ["conjecture", "--trials", str(CONJECTURE_TRIALS), "--seed", str(seed),
                      "--format", "json"]},
        ]
    if workload == "approx_mc":
        g100, aeu = d / "g100.json", d / "aeu.json"
        _write_game(g100, _rng(seed, 1), 100, 0.5)
        _write_association(aeu, _rng(seed, 2), 18, 0.2)
        return [
            {"name": "approx_hoeffding", "argv": _approx(str(g100), "hoeffding", seed)},
            {"name": "approx_student", "argv": _approx(str(g100), "student", seed)},
            {"name": "approx_selfbounding", "argv": _approx(str(g100), "selfbounding", seed)},
            {"name": "approx_eu",
             "argv": _approx("eu", "hoeffding", seed, ("--association", str(aeu)))},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    import banzhaf  # noqa: F401  the import cost is part of set-up
    import banzhaf.cli  # noqa: F401

    ops = make_ops(workload, seed, workdir)
    plan = {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "expected_layers": list(EXPECTED_LAYERS[workload]),
    }
    (workdir / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
