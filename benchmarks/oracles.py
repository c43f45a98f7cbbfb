"""Independent checks of every op's output, run after the timed job.

- Single-quota integer games: a subset-sum DP over the other players counts
  each player's swings, classical and association-aware, with the engine's
  comparison ``(s + w_i) - l_i < q`` against ``game.winning_thresholds``.
- EU games: a vectorised brute force over all 2^18 coalitions.
- Monte Carlo estimates: each must lie within a delta = 1e-6 Hoeffding
  halfwidth of the exact value (DP or brute force).
- Default seed: the sha256 of each op's stdout must match ``golden.json``.

Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

import banzhaf

MC_DELTA = 1e-6
ROUNDING = 0.5e-5  # reports print 5 decimals


def subset_sum_counts(weights: list[int]) -> np.ndarray:
    """``out[s]`` = number of subsets of ``weights`` summing to ``s``.  Float
    counts are exact up to 2^53, and close enough beyond for the MC check."""
    out = np.zeros(sum(weights) + 1)
    out[0] = 1.0
    for w in weights:
        if w:
            out[w:] = out[w:] + out[:-w]
        else:
            out *= 2.0
    return out


def dp_swings(weights: list[int], threshold: float, loads: list[float] | None = None) -> list[float]:
    """Per-player swing counts of a single-quota integer game; ``loads``
    defaults to the players' own weights (the classical index)."""
    if loads is None:
        loads = [float(w) for w in weights]
    out = []
    for i, w in enumerate(weights):
        counts = subset_sum_counts(weights[:i] + weights[i + 1 :])
        c = np.arange(counts.size, dtype=np.float64) + w
        critical = (c >= threshold) & ((c - loads[i]) < threshold)
        out.append(float(counts[critical].sum()))
    return out


def persuasion_loads(weights: list[tuple[float, ...]], rows: list[list[float]]) -> list[list[float]]:
    """``sum_k a_ik w_k`` accumulated in player order, one row per player."""
    k = len(weights[0])
    out = []
    for arow in rows:
        load = [0.0] * k
        for a, wrow in zip(arow, weights):
            for d in range(k):
                load[d] += a * wrow[d]
        out.append(load)
    return out


def eu_swings(loads: list[list[float]] | None = None) -> np.ndarray:
    """Brute-force swing counts of the EU game over all 2^18 coalitions."""
    game = banzhaf.eu_game()
    m = game.num_players
    W = game.weight_matrix
    thresholds = np.array(game.winning_thresholds)
    masks = np.arange(1 << m, dtype=np.int64)
    member = [((masks >> j) & 1).astype(bool) for j in range(m)]
    sums = np.zeros((1 << m, W.shape[1]))
    for j in range(m):
        sums[member[j]] += W[j]
    win = (sums >= thresholds).all(axis=1)
    loads = W if loads is None else np.array(loads)
    return np.array([
        np.count_nonzero(win & member[i] & ((sums - loads[i]) < thresholds).any(axis=1))
        for i in range(m)
    ])


def _normalized(counts) -> list[float]:
    total = int(sum(int(c) for c in counts))
    return [int(c) / total if total else 0.0 for c in counts]


def _compare(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _table_rows(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()[1:] if line.strip()]


def _hoeffding_halfwidth(n: int) -> float:
    return math.sqrt(math.log(2.0 / MC_DELTA) / (2.0 * n)) + ROUNDING


def _read_association(path: str) -> list[list[float]]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["association"]


def _random_association(m: int, seed: int) -> list[list[float]]:
    """The CLI's documented random matrix: unit diagonal, off-diagonal
    uniform on [-1, 1] from a Philox stream keyed by ``seed``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    a = rng.uniform(-1.0, 1.0, size=(m, m))
    np.fill_diagonal(a, 1.0)
    return a.tolist()


def _migration_association(path: str, ids: tuple[str, ...]) -> list[list[float]]:
    """Net flow toward the row country over the largest net flow, in the
    EU dataset's country order."""
    rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8"))))
    pos = {c: i for i, c in enumerate(rows[0])}
    flows = [[float(v) for v in row] for row in rows[1:]]
    f = [[flows[pos[a]][pos[b]] for b in ids] for a in ids]
    m = len(ids)
    biggest = max(abs(f[i][j] - f[j][i]) for i in range(m) for j in range(m))
    return [[1.0 if i == j else (f[j][i] - f[i][j]) / biggest for j in range(m)] for i in range(m)]


# ---------------------------------------------------------------------------
# Per-workload checks: op name -> problems


def check_eu_council(ops: dict, outputs: dict[str, str], seed: int) -> dict[str, list]:
    game = banzhaf.eu_game()
    ids = game.player_ids
    classical = _normalized(eu_swings())
    mig_path = ops["eu_migration"]["argv"][2]
    migration = _normalized(eu_swings(persuasion_loads(game.weights, _migration_association(mig_path, ids))))
    runs = int(ops["eu_random"]["argv"][ops["eu_random"]["argv"].index("--runs") + 1])
    r = seed % runs
    random_r = _normalized(eu_swings(persuasion_loads(game.weights, _random_association(18, seed + r))))
    problems = {name: [] for name in outputs}

    def table(name, columns):
        p = problems[name]
        rows = _table_rows(outputs[name])
        _compare(p, "rows", len(rows), len(ids))
        for row, pid, *cols in zip(rows, ids, *columns):
            _compare(p, f"{pid} row", row[0], pid)
            _compare(p, f"{pid} values", row[2:], [f"{v:.5f}" for v in cols])

    def players(name, keys, columns):
        p = problems[name]
        doc = json.loads(outputs[name])["players"]
        _compare(p, "ids", [d["id"] for d in doc], list(ids))
        for key, col in zip(keys, columns):
            _compare(p, key, [d[key] for d in doc], [round(v, 5) for v in col])

    table("eu", [classical])
    players("eu_json", ["wta"], [classical])
    table("eu_migration", [classical, migration])
    players("eu_migration_json", ["wta", "wa"], [classical, migration])

    rows = _table_rows(outputs["eu_random"])
    _compare(problems["eu_random"], "rows", len(rows), runs + 1)
    if len(rows) > r:
        _compare(problems["eu_random"], f"run {r}", rows[r], [str(r)] + [f"{v:.5f}" for v in random_r])
    doc = json.loads(outputs["eu_random_json"])
    p = problems["eu_random_json"]
    _compare(p, "classical", list(doc["classical_normalized"].values()), [round(v, 5) for v in classical])
    _compare(p, "runs", len(doc["runs"]), runs)
    if len(doc["runs"]) > r:
        _compare(p, f"run {r}", list(doc["runs"][r].values()), [round(v, 5) for v in random_r])
    return problems


def _single_quota(path: str):
    game = banzhaf.load_game_file(path)
    weights = [int(row[0]) for row in game.weights]
    return game, weights, game.winning_thresholds[0]


def check_exact_large(ops: dict, outputs: dict[str, str], seed: int) -> dict[str, list]:
    problems = {name: [] for name in outputs}
    g22, w22, t22 = _single_quota(ops["exact_m22"]["argv"][2])
    g24, w24, t24 = _single_quota(ops["exact_m24"]["argv"][2])
    classical22 = [int(c) for c in dp_swings(w22, t22)]
    classical24 = [int(c) for c in dp_swings(w24, t24)]
    assoc_path = ops["exact_assoc_m22"]["argv"][4]
    loads22 = [row[0] for row in persuasion_loads(g22.weights, _read_association(assoc_path))]
    assoc22 = [int(c) for c in dp_swings(w22, t22, loads22)]

    rows = _table_rows(outputs["exact_m22"])
    _compare(problems["exact_m22"], "swings", [int(r[1]) for r in rows], classical22)
    doc = json.loads(outputs["exact_m24"])
    p = problems["exact_m24"]
    _compare(p, "swings", [d["swings"] for d in doc["players"]], classical24)
    _compare(p, "total_swings", doc["total_swings"], sum(classical24))
    _compare(p, "coalitions_per_player", doc["coalitions_per_player"], 1 << 23)
    rows = list(csv.reader(io.StringIO(outputs["exact_assoc_m22"])))[1:]
    _compare(problems["exact_assoc_m22"], "swings", [int(r[1]) for r in rows], assoc22)

    doc = json.loads(outputs["bounds_m22"])["players"]
    p = problems["bounds_m22"]
    truth = [c / (1 << 21) for c in classical22]
    _compare(p, "exact_absolute", [d["exact_absolute"] for d in doc], [round(v, 5) for v in truth])
    for d, v in zip(doc, truth):
        if v > d["ht_bound"] + ROUNDING or d["violated"]:
            p.append(f"{d['id']}: ht_bound {d['ht_bound']} below exact {v} or flagged violated")

    op = ops["delta_m24"]
    i = op["player"]
    loads = [row[0] for row in persuasion_loads(g24.weights, _read_association(op["association"]))]
    others = subset_sum_counts(w24[:i] + w24[i + 1 :])
    c = np.arange(others.size, dtype=np.float64) + w24[i]
    win = c >= t24
    base = win & ((c - float(w24[i])) < t24)
    alt = win & ((c - loads[i]) < t24)
    gain, loss = int(others[alt & ~base].sum()), int(others[base & ~alt].sum())
    doc = json.loads(outputs["delta_m24"])
    p = problems["delta_m24"]
    _compare(p, "gain/loss", (doc["gain_count"], doc["loss_count"]), (gain, loss))
    _compare(p, "delta", doc["delta"], (gain - loss) / (1 << 23))

    problems["conjecture"] = _check_conjecture(ops["conjecture"]["argv"], outputs["conjecture"])
    return problems


def check_approx_mc(ops: dict, outputs: dict[str, str], seed: int) -> dict[str, list]:
    problems = {name: [] for name in outputs}
    _, weights, threshold = _single_quota(ops["approx_hoeffding"]["argv"][2])
    truth100 = [c / 2.0 ** 99 for c in dp_swings(weights, threshold)]
    eu = banzhaf.eu_game()
    argv = ops["approx_eu"]["argv"]
    rows = _read_association(argv[argv.index("--association") + 1])
    truth_eu = [int(c) / (1 << 17) for c in eu_swings(persuasion_loads(eu.weights, rows))]
    epsilon, delta = float(argv[argv.index("--epsilon") + 1]), float(argv[argv.index("--delta") + 1])
    z = statistics.NormalDist().inv_cdf(1.0 - delta / 2.0)
    sizes = {
        "hoeffding": math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2)),
        "student": math.ceil(0.25 * z * z / epsilon**2),
    }
    for name, truth in (("approx_hoeffding", truth100), ("approx_student", truth100),
                        ("approx_selfbounding", truth100), ("approx_eu", truth_eu)):
        p = problems[name]
        doc = json.loads(outputs[name])
        n = doc["samples"]
        want = sizes.get(doc["method"])
        if want is not None:
            _compare(p, "samples", n, want)
        hw = _hoeffding_halfwidth(n)
        _compare(p, "players", len(doc["players"]), len(truth))
        for d, v in zip(doc["players"], truth):
            if abs(d["estimate"] - v) > hw:
                p.append(f"{d['id']}: estimate {d['estimate']} is {abs(d['estimate'] - v):.4g} "
                         f"from exact {v:.6f}, beyond the delta={MC_DELTA} halfwidth {hw:.4g}")
            if not d["ci_lower"] <= d["estimate"] <= d["ci_upper"]:
                p.append(f"{d['id']}: interval [{d['ci_lower']}, {d['ci_upper']}] misses its estimate")
    return problems


def _check_conjecture(argv: list[str], output: str) -> list[str]:
    """Replay the scan's random games and recompute every index by DP."""
    trials = int(argv[argv.index("--trials") + 1])
    scan_seed = int(argv[argv.index("--seed") + 1])
    min_slack = math.inf
    found = []
    for trial in range(trials):
        # the documented RandomGameSpec defaults: 3..12 players, weights 1..20, quota half the total
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=scan_seed, spawn_key=(trial,)))
        )
        m = int(rng.integers(3, 13))
        weights = [int(v) for v in rng.integers(1, 21, size=m)]
        game = banzhaf.single_quota_game(weights, 0.5 * sum(weights))
        norm = _normalized(dp_swings(weights, game.winning_thresholds[0]))
        wf = [row[0] for row in game.weights]
        cap = 2.0 * max(wf) / sum(wf)
        for i, v in enumerate(norm):
            min_slack = min(min_slack, cap - v)
            if v > cap:
                found.append({"game": f"weights={wf} q={game.quotas[0]}", "player": f"p{i + 1}",
                              "normalized": round(v, 5), "cap": round(cap, 5)})
    doc = json.loads(output)
    p = []
    _compare(p, "games_scanned", doc["games_scanned"], trials)
    _compare(p, "min_slack", doc["min_slack"], round(min_slack, 5))
    _compare(p, "counterexamples", doc["counterexamples"], found)
    return p


CHECKS = {
    "eu_council": check_eu_council,
    "exact_large": check_exact_large,
    "approx_mc": check_approx_mc,
}
