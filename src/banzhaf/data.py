"""Game construction and ingestion.

Covers the JSON game-file format (see docs/game-format.md), migration-flow
CSV tables and the association matrices they induce, random association
matrices and random test games, and the embedded 18-country EU Council
dataset.

A window of random games (`random_weight_rows`) is computed from its
streams' first raw Philox words by numpy's rule for `Generator.integers`
(Lemire 2019): the player count, then each weight, maps the next 32-bit word
``x`` (a raw word's low half first) to ``low + (x * span >> 32)``, and numpy
rejects ``x`` where ``x * span`` mod 2^32 < ``(2^32 - span) mod span``; a span
of 1 takes no word.  A trial that numpy draws again (a rejected word, all-zero
weights) or whose spans reach 2^32 - 1 is drawn by `random_weights`, the rule.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    as_finite,
    seeded_rng,
    seeded_streams,
    single_quota_game,
)

__all__ = [
    "MigrationTable",
    "build_migration_association",
    "random_association",
    "RandomGameSpec",
    "random_game",
    "eu_game",
    "EU_COUNTRIES",
    "load_game",
    "load_game_file",
    "parse_game",
    "game_to_dict",
    "dump_game",
    "load_migration_csv",
    "load_migration_csv_file",
]


# ---------------------------------------------------------------------------
# Migration flows -> association matrix


@dataclass(frozen=True)
class MigrationTable:
    """Directed migration counts between countries.

    ``flows[i][j]`` is the number of migrants moving from country i to
    country j.  The diagonal is ignored by every consumer.
    """

    labels: tuple[str, ...]
    flows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(str(l) for l in self.labels)
        m = len(labels)
        if m == 0:
            raise InvalidGameError("migration table is empty")
        if len(set(labels)) != m:
            raise InvalidGameError("migration labels must be unique")
        if len(self.flows) != m:
            raise InvalidGameError(f"{m} labels but {len(self.flows)} flow rows")
        rows = []
        for a, row in zip(labels, self.flows):
            if len(row) != m:
                raise InvalidGameError(f"migration row {a}: expected {m} entries, got {len(row)}")
            vals = tuple(as_finite(v, f"migration flow [{a}][{b}]") for b, v in zip(labels, row))
            for b, v in zip(labels, vals):
                if v < 0:
                    raise InvalidGameError(
                        f"migration flow [{a}][{b}]: must be a non-negative number, got {v!r}"
                    )
            rows.append(vals)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "flows", tuple(rows))


def build_migration_association(table: MigrationTable) -> AssociationMatrix:
    """Turn net migration imbalances into an association matrix.

    The normaliser is the largest absolute net flow M = max |M_ij - M_ji|;
    entries are the net flow toward the row player divided by M, so the
    matrix is antisymmetric off the unit diagonal and hits 1 in magnitude at
    the maximising pair.  Scaling all flows by a positive constant leaves
    the result unchanged.  A fully symmetric table has no direction to
    normalise and is rejected.
    """
    flows = np.array(table.flows, dtype=np.float64)
    net = flows.T - flows  # net[i][j]: migrants from j to i, less those from i to j
    biggest = float(np.abs(net).max())
    if biggest == 0.0:
        raise InvalidGameError(
            "all migration flows are symmetric; the association matrix is undefined"
        )
    entries = net / biggest
    np.fill_diagonal(entries, 1.0)
    return AssociationMatrix(entries)


def association_draws(m: int, seed: int, runs: int) -> np.ndarray:
    """(runs, m, m) stack of association draws: run r holds the uniform
    [-1, 1) draws of `seeded_rng` at ``seed + r``, with a unit diagonal."""
    if not isinstance(m, numbers.Integral) or isinstance(m, bool) or m < 1:
        raise InvalidGameError(f"m, the player count, must be a positive integer, got {m!r}")
    draws = np.empty((runs, m, m))
    for a, rng in zip(draws, seeded_streams(seed, runs)):
        a[:] = rng.uniform(-1.0, 1.0, size=(m, m))
    draws.reshape(runs, m * m)[:, :: m + 1] = 1.0
    return draws


def random_association(m: int, seed: int) -> AssociationMatrix:
    """Association matrix with unit diagonal and independent off-diagonal
    entries uniform on [-1, 1]; deterministic for a given (m, seed)."""
    return AssociationMatrix(association_draws(m, seed, 1)[0])


@dataclass(frozen=True)
class RandomGameSpec:
    """Shape of the random single-quota games used by scans and tests.

    Weights are integers drawn uniformly from [min_weight, max_weight], the
    player count uniformly from [min_players, max_players], and the quota is
    quota_fraction times the total weight.
    """

    min_players: int = 3
    max_players: int = 12
    min_weight: int = 1
    max_weight: int = 20
    quota_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in ("min_players", "max_players", "min_weight", "max_weight"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidGameError(f"{name} must be an integer, got {value!r}")
        for low, high, floor in (("min_players", "max_players", 1), ("min_weight", "max_weight", 0)):
            lo, hi = getattr(self, low), getattr(self, high)
            if lo < floor:
                raise InvalidGameError(f"{low} must be at least {floor}, got {lo}")
            if hi < lo:
                raise InvalidGameError(f"{high} must be at least {low} ({lo}), got {hi}")
        if self.max_weight < 1:  # random_game redraws all-zero weights until one is positive
            raise InvalidGameError(f"max_weight must be at least 1, got {self.max_weight}")
        top = int(self.max_players) * int(self.max_weight)  # kept an exact float
        if top >= 2**53:
            raise InvalidGameError(f"max_players x max_weight, the largest total, must be below 2^53, got {top}")
        q = self.quota_fraction
        if not isinstance(q, numbers.Real) or isinstance(q, bool) or not 0 < q < math.inf:
            raise InvalidGameError(f"quota_fraction must be a positive finite number, got {q!r}")


def random_weights(rng: np.random.Generator, spec: RandomGameSpec) -> np.ndarray:
    """Random int64 weights shaped by a RandomGameSpec: the player count uniform in
    [min_players, max_players], the weights in [min_weight, max_weight], redrawn while all are 0."""
    m = int(rng.integers(spec.min_players, spec.max_players + 1))
    weights = rng.integers(spec.min_weight, spec.max_weight + 1, size=m)
    while not weights.any():  # all-zero weights would make the quota 0
        weights = rng.integers(spec.min_weight, spec.max_weight + 1, size=m)
    return weights


def random_weight_rows(seed: int, trials: range, spec: RandomGameSpec) -> list[np.ndarray]:
    """`random_weights` of ``seeded_rng(seed, t)`` for each trial ``t`` of ``trials``, computed
    for the window at once from its streams' raw words (see the module docstring)."""
    m_low, m_high, w_low, w_high = map(int, (spec.min_players, spec.max_players, spec.min_weight, spec.max_weight))
    n = len(trials)
    rows, redraw = [None] * n, np.ones(n, dtype=bool)
    if max(m_high - m_low, w_high - w_low) < 2**32 - 2:
        width = (m_high + 2) // 2  # 64-bit words for the count's 32-bit word and one per weight
        streams = seeded_streams(seed, n, trials.start)
        raw = np.array([rng.bit_generator.random_raw(width) for rng in streams]).reshape(n, width)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=2).reshape(n, 2 * width)
        first = int(m_high > m_low)
        m, rejected = _lemire(words[:, 0], m_low, m_high)
        weights, rejects = _lemire(words[:, first : first + m_high], w_low, w_high)
        used = np.arange(m_high) < m[:, None]
        redraw = rejected | (rejects & used).any(axis=1) | ~(used & (weights != 0)).any(axis=1)
        rows = [w[:k] for w, k in zip(weights, m.tolist())]
    for t in np.flatnonzero(redraw).tolist():
        rows[t] = random_weights(seeded_rng(seed, trials.start + t), spec)
    return rows


def _lemire(words: np.ndarray, low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's int64 draws in [low, high] from the uint64 array of 32-bit ``words``, and where it rejects a word."""
    span = high - low + 1
    product = words * span
    return (product >> 32).astype(np.int64) + low, (product & 0xFFFFFFFF) < (2**32 - span) % span


def random_game(rng: np.random.Generator, spec: RandomGameSpec) -> VotingGame:
    """Random single-quota game: `random_weights`, quota at quota_fraction of their total."""
    weights = random_weights(rng, spec)
    return single_quota_game(weights.tolist(), spec.quota_fraction * int(weights.sum()))


# ---------------------------------------------------------------------------
# The 18-country EU Council game

# (country, voting weight, population in millions); one country per row, so
# the third dimension is the all-ones country count.
EU_COUNTRIES: tuple[tuple[str, int, float], ...] = (
    ("AUT", 10, 8.58),
    ("BEL", 12, 11.25),
    ("CZE", 12, 10.53),
    ("DEU", 29, 82.30),
    ("DNK", 7, 5.66),
    ("ESP", 27, 46.46),
    ("FIN", 7, 5.47),
    ("FRA", 29, 66.99),
    ("GBR", 29, 65.11),
    ("GRC", 12, 10.81),
    ("HUN", 12, 9.85),
    ("IRL", 7, 4.63),
    ("ITA", 29, 60.79),
    ("NLD", 13, 17.10),
    ("POL", 27, 38.56),
    ("PRT", 12, 10.37),
    ("SVK", 7, 5.42),
    ("SWE", 10, 10.01),
)

# Nominal quota rules: 74% of the 291 voting weights, 62% of the published
# 469.93M population, and a strict majority (10) of the 18 countries.  The
# weight quota is the floored 215: the published indices count a coalition
# holding exactly 215 votes as winning, while the raw product 0.74*291 =
# 215.34 does not reproduce them under either boundary convention.
EU_QUOTAS = (215.0, 291.3566, 10.0)


def eu_game() -> VotingGame:
    """The 18-country EU Council game: weight, population and country-count
    dimensions with quotas (215, 291.3566, 10)."""
    meta = {
        "dataset": "eu18-council",
        "countries": [c for c, _, _ in EU_COUNTRIES],
        "quota_rule": {
            "weight": "74% of 291 total votes, floored to 215 (reproduces the published indices; 0.74*291 = 215.34 does not)",
            "population": "62% of 469.93M published total",
            "countries": "strict majority of 18 members",
        },
    }
    return VotingGame(
        player_ids=tuple(c for c, _, _ in EU_COUNTRIES),
        weights=tuple((float(w), p, 1.0) for _, w, p in EU_COUNTRIES),
        quotas=EU_QUOTAS,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# JSON game files


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidGameError(msg)


def _number(v: object, where: str, expected: str = "a number") -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InvalidGameError(f"{where}: must be {expected}")
    return as_finite(v, where)


def parse_game(doc: Mapping) -> VotingGame:
    """Build a VotingGame from a parsed game-file document.

    Quota entries may be absolute numbers or ``{"fraction": f}`` objects;
    fractions resolve against the matching weight-column total at load time.
    """
    _expect(isinstance(doc, Mapping), "game file: top level must be an object")
    players = doc.get("players")
    _expect(isinstance(players, Sequence) and len(players) > 0, "players: need a non-empty list")
    ids = []
    weight_rows = []
    for pos, entry in enumerate(players):
        _expect(isinstance(entry, Mapping), f"players[{pos}]: must be an object")
        _expect("id" in entry, f"players[{pos}]: missing id")
        _expect("weights" in entry, f"players[{pos}]: missing weights")
        ids.append(str(entry["id"]))
        row = entry["weights"]
        _expect(
            isinstance(row, Sequence) and not isinstance(row, str),
            f"players[{pos}].weights: must be a list",
        )
        vals = []
        for d, v in enumerate(row):
            v = _number(v, f"players[{pos}].weights[{d}]")
            _expect(v >= 0, f"players[{pos}].weights[{d}]: negative weight")
            vals.append(v)
        weight_rows.append(tuple(vals))
    quotas_doc = doc.get("quotas")
    _expect(
        isinstance(quotas_doc, Sequence) and len(quotas_doc) > 0,
        "quotas: need a non-empty list",
    )
    k = len(weight_rows[0])
    _expect(
        len(quotas_doc) == k,
        f"quotas: {len(quotas_doc)} entries for {k} weight dimensions",
    )
    quotas = []
    for d, q in enumerate(quotas_doc):
        if isinstance(q, Mapping):
            _expect("fraction" in q, f"quotas[{d}]: object form needs a 'fraction' key")
            f = _number(q["fraction"], f"quotas[{d}].fraction")
            total = float(np.cumsum([0.0, *(row[d] for row in weight_rows if len(row) > d)])[-1])  # in player order
            quotas.append(f * total)
        else:
            quotas.append(_number(q, f"quotas[{d}]", "a number or a fraction object"))
    association = None
    if doc.get("association") is not None:
        association = AssociationMatrix(doc["association"])
    metadata = doc.get("metadata") or {}
    _expect(isinstance(metadata, Mapping), "metadata: must be an object")
    return VotingGame(
        player_ids=tuple(ids),
        weights=tuple(weight_rows),
        quotas=tuple(quotas),
        association=association,
        metadata=dict(metadata),
    )


def load_game(text: str) -> VotingGame:
    """Parse a JSON game document from text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGameError(f"game file: invalid JSON ({exc})") from exc
    return parse_game(doc)


def load_game_file(path: str | Path) -> VotingGame:
    return load_game(Path(path).read_text(encoding="utf-8"))


def game_to_dict(game: VotingGame) -> dict:
    """Serializable document; load_game(json.dumps(...)) round-trips exactly."""
    doc: dict = {
        "players": [
            {"id": pid, "weights": list(row)}
            for pid, row in zip(game.player_ids, game.weights)
        ],
        "quotas": list(game.quotas),
    }
    if game.association is not None:
        doc["association"] = [list(row) for row in game.association.entries]
    if game.metadata:
        doc["metadata"] = dict(game.metadata)
    return doc


def dump_game(game: VotingGame) -> str:
    return json.dumps(game_to_dict(game), indent=2, sort_keys=False)


# ---------------------------------------------------------------------------
# Migration CSV


def load_migration_csv(text: str) -> MigrationTable:
    """Parse a migration table: a header row of country ids, then one row of
    counts per country, in header order."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(c.strip() for c in row)]
    if not rows:
        raise InvalidGameError("migration csv: empty file")
    labels = tuple(c.strip() for c in rows[0])
    m = len(labels)
    if len(rows) - 1 != m:
        raise InvalidGameError(
            f"migration csv: {m} countries in header but {len(rows) - 1} data rows"
        )
    flows = []
    for i, row in enumerate(rows[1:]):
        if len(row) != m:
            raise InvalidGameError(
                f"migration csv: row {i + 1} has {len(row)} fields, expected {m}"
            )
        try:
            flows.append(tuple(float(c) for c in row))
        except ValueError as exc:
            raise InvalidGameError(f"migration csv: row {i + 1}: {exc}") from exc
    return MigrationTable(labels=labels, flows=tuple(flows))


def load_migration_csv_file(path: str | Path) -> MigrationTable:
    return load_migration_csv(Path(path).read_text(encoding="utf-8"))
