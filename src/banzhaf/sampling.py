"""Monte Carlo estimation of Banzhaf indices with distribution-free and
variance-adaptive confidence intervals.

Each player gets its own counter-based random stream (`seeded_rng`, Philox
keyed by the master seed and the player index), so estimates are
reproducible bit for bit regardless of evaluation order and the per-player
streams stay independent.  The players' streams come as one batch
(`seeded_streams`): their keys are hashed in one pass, and one generator is
re-keyed for each player in turn, after the previous player has drawn all
of its samples, so no two players share a live stream.
A sample for player ``i`` is a uniform coalition containing ``i``: the other
``m - 1`` membership bits are fair coin flips.  Player ``j``'s bit is bit
``j % 64`` of the sample's uint64 word ``j // 64``, which is bit ``j % 8`` of
its little-endian byte ``j // 8``.

A sample is summed from per-byte tables, not from a membership row: the
weight rows, padded with zero rows to a multiple of 8, split into groups of
8 players, and `subset_sums` gives each group the 256 sums of its subsets.
In each dimension a sample's sum is the table entries of its bytes added to
0.0 in byte order, so random bits past player ``m - 1`` add an exact 0.0.
In a dimension of integer weights every partial sum is an integer below the
column total, which `VotingGame` keeps below 2^53, so the sums are exact in
any order; in a non-integer dimension they follow this one order on every
machine.  Samples are drawn and evaluated in chunks whose buffers stay
within `_CHUNK_BYTES`, beside the tables' ``m * k * 256`` bytes, so sampler
memory does not grow with the sample count, nor with the player count past
the tables; full-range uint64 draws consume the stream in order, so the
chunk size does not change which coalitions are drawn.

The Student interval's t quantile is computed here (`_t_quantile`), and its
sample sizing's normal quantile by `statistics.NormalDist`.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable

import numpy as np

from .bounds import ht_bound
from .games import (
    AssociationMatrix,
    InvalidGameError,
    VotingGame,
    removal_breaks,
    removal_loads,
    require_same_players,
    resolve_player,
    seeded_streams,
    subset_sums,
    sums_win,
)

__all__ = [
    "CI_METHODS",
    "EstimateReport",
    "ConfidenceInterval",
    "estimate_indices",
    "confidence_interval",
    "required_samples",
    "student_t_quantile",
]

CI_METHODS = ("hoeffding", "student", "selfbounding")

# Bytes of one chunk of samples' buffers and temporaries.
_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo estimates of the absolute indices of every player."""

    player_ids: tuple[str, ...]
    mode: str  # "classical" or "association"
    estimates: tuple[float, ...]
    swing_counts: tuple[int, ...]
    samples: int
    sample_variances: tuple[float | None, ...]
    seed: int

    @property
    def normalized(self) -> tuple[float, ...]:
        total = float(np.cumsum([0.0, *self.estimates])[-1])  # in player order; 3.12's `sum` compensates
        if total == 0.0:
            return (0.0,) * len(self.estimates)
        return tuple(e / total for e in self.estimates)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Two-sided interval around one player's estimate.

    ``halfwidth`` is the raw analytic halfwidth; ``lower``/``upper`` are
    clipped to [0, 1] since the estimand is a probability.
    """

    player: str
    estimate: float
    lower: float
    upper: float
    halfwidth: float
    method: str
    delta: float
    samples: int
    B: float | None = None


def _byte_tables(W: np.ndarray) -> np.ndarray:
    """(ceil(m/8), k, 256) subset sums of each group of 8 rows of the (m, k)
    ``W``: entry ``[b, d, v]`` sums dimension ``d`` over the players ``8b + j``
    with bit ``j`` of ``v`` set.  Rows past ``m - 1`` are zero."""
    m, k = W.shape
    padded = np.zeros((m + -m % 8, k))
    padded[:m] = W
    return np.stack([subset_sums(group) for group in padded.reshape(-1, 8, k)])


def _lookup_sums(
    tables: np.ndarray, octets: np.ndarray, out: np.ndarray, part: np.ndarray, index: np.ndarray
) -> None:
    """Fill the (k, c) ``out`` with the sums of the c coalitions whose
    membership bytes are the rows of ``octets``: per dimension, the table
    entries of bytes 0, 1, ... added to 0.0 in that order.  ``part`` and
    ``index`` are float64 and intp buffers of c entries."""
    out.fill(0.0)
    for b, byte_tables in enumerate(tables):
        np.copyto(index, octets[:, b])
        for d, table in enumerate(byte_tables):
            # every index is below 256, so "clip" never clips; it spares the
            # copy of ``out`` that the default "raise" mode makes
            np.take(table, index, out=part, mode="clip")
            out[d] += part


def _swing_count_for_player(
    game: VotingGame,
    i: int,
    load_row: np.ndarray,
    n: int,
    rng: np.random.Generator,
    tables: np.ndarray,
) -> int:
    k = tables.shape[1]
    thresholds = game.winning_thresholds
    words = (game.num_players + 63) // 64
    # per sample: the raw words, k sums, one looked-up row and its intp byte
    # indices, and the kernel's temporaries (a float row and a few bool rows)
    rows = max(1, min(n, _CHUNK_BYTES // (8 * (words + k + 4))))
    # buffers per call, reused by every chunk: fresh ones per chunk would be
    # mmapped and page-faulted each time under glibc malloc
    sums = np.empty((k, rows))
    looked_up = np.empty(rows)
    index = np.empty(rows, dtype=np.intp)
    swings = 0
    done = 0
    while done < n:
        chunk = min(rows, n - done)
        # little-endian bytes, low bit first: player j is bit j % 8 of byte j // 8
        octets = (
            rng.integers(0, 2**64, size=(chunk, words), dtype=np.uint64)
            .astype("<u8", copy=False)
            .view(np.uint8)
        )
        octets[:, i // 8] |= np.uint8(1 << (i % 8))
        block = sums[:, :chunk]
        _lookup_sums(tables, octets, block, looked_up[:chunk], index[:chunk])
        del octets  # free this chunk's draws before the next is drawn
        swings += int(
            np.count_nonzero(sums_win(block, thresholds) & removal_breaks(block, load_row, thresholds))
        )
        done += chunk
    return swings


def estimate_indices(
    game: VotingGame,
    phi: AssociationMatrix | None = None,
    samples: int = 10_000,
    seed: int = 0,
) -> EstimateReport:
    """Estimate every player's absolute index from ``samples`` coalitions
    drawn uniformly among those containing the player.

    Each sampled swing indicator is an unbiased Bernoulli draw of the
    absolute index, so the mean is unbiased.  The per-player sample variance
    is the exact unbiased variance of the 0/1 draws, ``s(n-s)/(n(n-1))``
    computed from the integer swing count ``s`` (``None`` when ``n < 2``).
    """
    if not isinstance(samples, numbers.Integral) or isinstance(samples, bool):
        raise InvalidGameError(f"samples must be an integer, got {samples!r}")
    if samples <= 0:
        raise InvalidGameError(f"samples must be positive, got {samples}")
    m = game.num_players
    mode, loads = removal_loads(game, phi)
    tables = _byte_tables(game.weight_matrix)
    counts = [
        _swing_count_for_player(game, i, loads[i], samples, rng, tables)
        for i, rng in enumerate(seeded_streams(seed, m, 0))
    ]
    n = samples
    estimates = tuple(c / n for c in counts)
    if n >= 2:
        variances: tuple[float | None, ...] = tuple(
            (c * (n - c)) / (n * (n - 1)) for c in counts
        )
    else:
        variances = (None,) * m
    return EstimateReport(
        player_ids=game.player_ids,
        mode=mode,
        estimates=estimates,
        swing_counts=tuple(counts),
        samples=n,
        sample_variances=variances,
        seed=seed,
    )


def student_t_quantile(tail: float, df: int) -> float:
    """Upper-tail Student t quantile: the ``t`` with ``P(T > t) = tail``."""
    if not 0.0 < tail < 1.0:
        raise ValueError(f"tail probability must be in (0, 1), got {tail}")
    if not isinstance(df, numbers.Integral) or isinstance(df, bool) or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    return _t_quantile(float(tail), int(df))


def _t_step(t: float, tail: float, df: int) -> float:
    """The Newton step in ``log t`` toward ``P(T > t) = tail``, for ``t > 0``
    and integer ``df >= 2``: on ``log P(T > t)`` in the far tail, and nearer
    0 on the central probability ``P(0 < T < t) = 0.5 - tail``, which the
    finite series gives without subtracting from 0.5."""
    r = math.hypot(t, math.sqrt(df))  # sqrt(df + t^2), finite for any finite t
    x = df / r / r
    log_f = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - math.log(df * math.pi) / 2
             - (df + 1) * math.log(r / math.sqrt(df)))  # the density at t
    if t * t > 16.0:  # f(t) t / df * sum_k x^k prod_{j<k} (df+1+2j) / (df+2+2j): positive terms
        total, term, k = 1.0, 1.0, df + 1
        while term > 1e-17 * total:
            term *= x * k / (k + 1)
            total, k = total + term, k + 2
        return (math.log(tail) - log_f - math.log(t * total / df)) * total / -df
    # A&S 26.7.3 (odd df) and 26.7.4 (even df), at most df/2 terms
    total, term = 0.0, math.sqrt(x) if df % 2 else 1.0
    for k in range(1 + df % 2, df, 2):
        total, term = total + term, term * x * k / (k + 1)
    central = (math.atan2(t, math.sqrt(df)) + t / r * total) / math.pi if df % 2 else t / r * total / 2
    return (0.5 - tail - central) / math.exp(log_f) / t


@functools.lru_cache(maxsize=64)
def _t_quantile(tail: float, df: int) -> float:
    """`student_t_quantile` past its checks, cached, as each player's interval asks for it: the
    Cornish-Fisher expansion (A&S 26.7.5), refined at small df by Newton steps (`_t_step`)."""
    if tail >= 0.5:
        return 0.0 if tail == 0.5 else -_t_quantile(1.0 - tail, df)
    if df == 1:  # near 0.5, from the central probability, which 0.5 - tail gives exactly
        return 1.0 / math.tan(math.pi * tail) if tail < 0.25 else math.tan(math.pi * (0.5 - tail))
    z = -NormalDist().inv_cdf(tail)
    z2 = z * z
    g = (z * (z2 + 1) / 4, z * ((5 * z2 + 16) * z2 + 3) / 96, z * (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384,
         z * ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160)
    t = z + (g[0] + (g[1] + (g[2] + g[3] / df) / df) / df) / df  # Cornish-Fisher to 1/df^4
    if df >= 50 * (z2 + 4):  # its error falls as (z^2 / df)^5, to within 1e-12 from here on
        return t
    for _ in range(64):  # Newton in log t, 2-4 steps: the error after a step is about its square
        step = _t_step(t, tail, df)
        t *= math.exp(step)
        if abs(step) <= 1e-9:
            break
    return t


def index_cap(game: VotingGame | None, players: Iterable[int]) -> float:
    """Cap ``u`` on the absolute index of every player in ``players``: the
    combinatorial bound `ht_bound` for a single-quota game, else 1."""
    if game is None or game.num_dimensions != 1:
        return 1.0
    return min(1.0, max(ht_bound(game, i) for i in players))


def confidence_interval(
    report: EstimateReport,
    player: int | str,
    delta: float,
    method: str = "hoeffding",
    B: float | None = None,
    game: VotingGame | None = None,
) -> ConfidenceInterval:
    """Two-sided level ``1 - delta`` interval for one player's estimate.

    Methods: ``hoeffding`` (distribution free), ``student`` (variance
    adaptive, needs ``n >= 2``), ``selfbounding`` (Bernstein-style bound
    driven by the scale cap ``B``; when ``B`` is omitted it is derived from
    the game's combinatorial index bound, or 1 when no game is given).
    ``player`` is an id or an index into ``report.player_ids``, and a
    ``game`` must have the report's players.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if method not in CI_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {CI_METHODS}")
    if game is not None:
        require_same_players(game, report)
    i = resolve_player(report.player_ids, player)
    n = report.samples
    est = report.estimates[i]
    used_b: float | None = None
    if method == "hoeffding":
        hw = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    elif method == "student":
        if n < 2:
            raise ValueError("student intervals need at least 2 samples")
        s2 = report.sample_variances[i]
        assert s2 is not None
        t = student_t_quantile(delta / 2.0, n - 1)
        hw = t * math.sqrt(s2 / n)
    elif B is None:
        # B = 2u + hw with hw = sqrt(B ln(2/delta) / n) is a quadratic in hw;
        # its positive root makes the pair exactly self-consistent and always
        # lands inside the admissible clamp [hw, 2 + hw]
        u = index_cap(game, (i,))
        c = math.log(2.0 / delta) / n
        hw = 0.5 * (c + math.sqrt(c * c + 8.0 * u * c))
        used_b = 2.0 * u + hw
    else:
        if not 0 < B < math.inf:
            raise ValueError(f"B must be {'positive' if B <= 0 else 'finite'}, got {B}")
        used_b = float(B)
        hw = math.sqrt(used_b * math.log(2.0 / delta) / n)
    return ConfidenceInterval(
        player=report.player_ids[i],
        estimate=est,
        lower=max(0.0, est - hw),
        upper=min(1.0, est + hw),
        halfwidth=hw,
        method=method,
        delta=delta,
        samples=n,
        B=used_b,
    )


def required_samples(
    epsilon: float,
    delta: float,
    method: str = "hoeffding",
    s2: float | None = None,
    B: float | None = None,
) -> int:
    """Samples needed for a two-sided halfwidth of ``epsilon`` at level
    ``1 - delta``.

    ``student`` sizes by the normal late-stage approximation and needs a
    variance estimate ``s2``; it returns at least 2, the fewest samples a
    Student interval accepts.  ``selfbounding`` needs the scale cap ``B``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if method == "hoeffding":
        return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
    if method == "student":
        if s2 is None:
            raise ValueError("student sizing needs a variance estimate s2")
        if not 0 <= s2 < math.inf:
            raise ValueError(f"s2 must be {'non-negative' if s2 < 0 else 'finite'}, got {s2}")
        z = NormalDist().inv_cdf(1.0 - delta / 2.0)
        return max(2, math.ceil(s2 * z * z / (epsilon * epsilon)))
    if method == "selfbounding":
        if B is None:
            raise ValueError("selfbounding sizing needs the scale cap B")
        if not 0 < B < math.inf:
            raise ValueError(f"B must be {'positive' if B <= 0 else 'finite'}, got {B}")
        return math.ceil(B * math.log(2.0 / delta) / (epsilon * epsilon))
    raise ValueError(f"unknown method {method!r}, expected one of {CI_METHODS}")
