"""Command-line front end.

Subcommands: ``exact`` (every coalition counted), ``approx`` (Monte Carlo with
confidence intervals), ``bounds`` (combinatorial diagnostics), ``eu`` (the
18-country EU Council study), ``conjecture`` (random-game scan of the
max-weight cap).  ``eu --random-association`` renders the counts of
`exact.association_study`.  Reports go to stdout or ``--out``; formats are
``table``, ``json`` and ``csv``, with the same numbers at the same precision.

Exit codes: 0 success or ``--help``, 1 usage error or Ctrl-C, 2 data or invariant error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .games import AssociationMatrix, InvalidGameError, VotingGame, require_single_quota, seeded_rng
from .exact import CoalitionTable, association_study, exact_indices
from .sampling import CI_METHODS, confidence_interval, estimate_indices, index_cap, required_samples
from .bounds import bounds_report, conjecture_scan, size_window
from .data import RandomGameSpec, build_migration_association, eu_game, load_game_file, load_migration_csv_file

FORMATS = ("table", "json", "csv")


class UsageError(Exception):
    """A command line the CLI cannot run (exit code 1)."""


def _load_game_arg(value: str) -> VotingGame:
    if value == "eu":
        return eu_game()
    return load_game_file(value)


def _load_association_arg(path: str) -> AssociationMatrix:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidGameError(f"association file: invalid JSON ({exc})") from exc
    return AssociationMatrix(doc.get("association") if isinstance(doc, dict) else doc)


def _fmt(value, precision: int):
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return "none" if value is None else str(value)


def _render_table(header: list[str], rows: list[list], precision: int) -> str:
    cells = [[_fmt(v, precision) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _records(ids, **columns) -> list[dict]:
    """A report's per-player records: each id, then its value in every column."""
    return [{"id": pid, **dict(zip(columns, values))} for pid, *values in zip(ids, *columns.values())]


def _render_csv(header: list[str], rows: list[list], precision: int) -> str:
    import csv as _csv
    import io

    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v, precision) for v in row])
    return buf.getvalue()


def _render_json(payload: dict, precision: int) -> str:
    def walk(node):
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [walk(v) for v in node]
        if isinstance(node, float):
            return round(node, precision)
        return node

    return json.dumps(walk(payload), indent=2) + "\n"


def _emit(
    fmt: str,
    precision: int,
    out: str | None,
    header: list[str],
    payload: dict,
    rows: list[list] | None = None,
    footer: str = "",
) -> None:
    """Render one report; ``footer`` follows the table format's rows.

    Without ``rows``, the table and CSV rows are the first ``len(header)``
    fields of each record in ``payload["players"]``.
    """
    if rows is None:
        rows = [list(rec.values())[: len(header)] for rec in payload["players"]]
    if fmt == "table":
        text = _render_table(header, rows, precision) + footer
    elif fmt == "csv":
        text = _render_csv(header, rows, precision)
    else:
        text = _render_json(payload, precision)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """Takes no option prefixes, answers ``--help`` alone (on stdout), and
    raises `UsageError` where argparse would print usage and exit 2."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise UsageError(message)


def _file(must_exist: bool) -> dict:
    """A ``FILE`` option, checked as it is parsed: never a directory."""

    def check(path: str) -> str:
        if Path(path).is_dir():
            raise argparse.ArgumentTypeError(f"File '{path}' is a directory.")
        if must_exist and not Path(path).exists():
            raise argparse.ArgumentTypeError(f"File '{path}' does not exist.")
        return path

    return dict(type=check, metavar="FILE")


# options as (flag, add_argument keywords); argparse fills in "%(default)s"
_GAME = ("--game", dict(dest="game_src", metavar="GAME", required=True,
                        help="Game file (JSON), or 'eu' for the built-in EU game."))
_ASSOCIATION = (("--association", dict(**_file(True), help="Association matrix file (JSON rows).")),
                ("--identity", dict(action="store_true", help="Force the identity association matrix.")))
_REPORT = (
    ("--format", dict(dest="fmt", choices=FORMATS, default="table",
                      help="Report format. [default: %(default)s]")),
    ("--precision", dict(type=int, default=5, help="Decimal places in the report. [default: %(default)s]")),
    ("--out", dict(**_file(False), help="Write the report to a file instead of stdout.")),
)
_PARSER = _Parser(prog="banzhaf", description="Banzhaf power indices for weighted voting games.")
_COMMANDS = _PARSER.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _command(name: str, *options: tuple[str, dict]):
    """Adds the decorated body to the parser as command ``name``, with ``options`` and `_REPORT`."""

    def add(body):
        sub = _COMMANDS.add_parser(name, help=body.__doc__, description=body.__doc__)
        for flag, keywords in (*options, *_REPORT):
            sub.add_argument(flag, **keywords)
        sub.set_defaults(command=body)
        return body

    return add


def _resolve_phi(game: VotingGame, association: str | None, identity: bool) -> AssociationMatrix | None:
    if association and identity:
        raise UsageError("--association and --identity are mutually exclusive")
    if identity:
        return AssociationMatrix.identity(game.num_players)
    if association:
        return _load_association_arg(association)
    return game.association


@_command("exact", _GAME, *_ASSOCIATION)
def exact_cmd(game_src, association, identity, fmt, precision, out) -> None:
    """Exact indices over every coalition."""
    game = _load_game_arg(game_src)
    phi = _resolve_phi(game, association, identity)
    report = exact_indices(game, phi)
    header = ["player", "swings", "absolute", "normalized"]
    payload = {
        "mode": report.mode,
        "total_swings": report.total_swings,
        "coalitions_per_player": report.coalitions_per_player,
        "players": _records(report.player_ids, swings=report.swing_counts, absolute=report.absolute,
                            normalized=report.normalized),
    }
    _emit(fmt, precision, out, header, payload)


@_command("approx", _GAME, *_ASSOCIATION,
          ("--epsilon", dict(type=float, required=True, help="Target halfwidth.")),
          ("--delta", dict(type=float, required=True, help="Confidence parameter.")),
          ("--method", dict(choices=CI_METHODS, default="hoeffding",
                            help="Interval: hoeffding (distribution-free), student (asymptotic, "
                                 "may under-cover at small n) or selfbounding. [default: %(default)s]")),
          ("--samples", dict(type=int,
                             help="Sample count per player; derived from epsilon/delta when absent.")),
          ("--seed", dict(type=int, required=True)))
def approx_cmd(game_src, association, identity, epsilon, delta, method, samples, seed,
               fmt, precision, out) -> None:
    """Monte Carlo estimates with per-player confidence intervals."""
    game = _load_game_arg(game_src)
    phi = _resolve_phi(game, association, identity)
    # only selfbounding reads u (ht_bound costs about 1 ms per 100 players); student
    # takes the worst-case Bernoulli variance, with no pilot run at the CLI
    mode = "classical" if phi is None else "association"
    u = index_cap(game, range(game.num_players), mode) if method == "selfbounding" else 1.0
    sized = required_samples(epsilon, delta, method, s2=0.25, B=2.0 * u + epsilon)  # checks epsilon, --samples or not
    report = estimate_indices(game, phi, samples=sized if samples is None else samples, seed=seed)
    intervals = [confidence_interval(report, i, delta, method, game=game) for i in range(game.num_players)]
    header = ["player", "estimate", "normalized", "ci_lower", "ci_upper"]
    payload = {
        "mode": report.mode,
        "samples": report.samples,
        "seed": report.seed,
        "method": method,
        "epsilon": epsilon,
        "delta": delta,
        "players": _records(report.player_ids, estimate=report.estimates, normalized=report.normalized,
                            ci_lower=[ci.lower for ci in intervals], ci_upper=[ci.upper for ci in intervals],
                            halfwidth=[ci.halfwidth for ci in intervals]),
    }
    _emit(fmt, precision, out, header, payload)


@_command("bounds", _GAME, ("--player", dict(help="Restrict the per-player rows to one player.")))
def bounds_cmd(game_src, player, fmt, precision, out) -> None:
    """Combinatorial bound diagnostics (single-quota games)."""
    game = _load_game_arg(game_src)
    require_single_quota(game, "bounds_report")
    size_window(game)  # a window it cannot search is rejected before the exact count
    shown = None if player is None else game.player_index(player)  # so is a bad id
    exact = exact_indices(game)
    report = bounds_report(game, exact)
    header = ["player", "exact", "ht_bound", "t", "h", "violated"]
    m_high = "inf" if report.M_high == float("inf") else report.M_high
    players = _records(report.player_ids, exact_absolute=exact.absolute, ht_bound=report.ht_bounds,
                       t=report.t_values, h=report.h_values, violated=report.ht_violations)
    payload = {
        "players": players if shown is None else [players[shown]],
        "size_window": {
            "m_low": report.m_low,
            "M_high": m_high,
            "reading": report.size_window_reading,
        },
        "global_bounds": {
            "bound1": report.bound1,
            "bound1_violated": report.bound1_violated,
            "bound2": report.bound2,
            "bound2_violated": report.bound2_violated,
        },
    }
    footer = (
        f"\nsize window: m_low={report.m_low} M_high={m_high}\n"
        f"bound1={_fmt(report.bound1, precision)} violated={report.bound1_violated}  "
        f"bound2={_fmt(report.bound2, precision)} violated={report.bound2_violated}\n"
    )
    _emit(fmt, precision, out, header, payload, footer=footer)


@_command("eu", ("--migration", dict(**_file(True), help="Migration CSV; adds association-aware indices.")),
          ("--random-association", dict(dest="random_assoc", action="store_true",
                                        help="Average association-aware indices over random matrices.")),
          ("--seed", dict(type=int, default=0, help="[default: %(default)s]")),
          ("--runs", dict(type=int, default=100, help="Number of random matrices. [default: %(default)s]")))
def eu_cmd(migration, random_assoc, seed, runs, fmt, precision, out) -> None:
    """The 18-country EU Council study."""
    if migration and random_assoc:
        raise UsageError("--migration and --random-association are mutually exclusive")
    if random_assoc and runs <= 0:
        raise UsageError("--runs must be positive")
    game = eu_game()
    if random_assoc:
        seeded_rng(seed)  # rejects a bad seed before the table is built
    table = CoalitionTable(game)
    classical = exact_indices(game, table=table)
    if random_assoc:
        counts = association_study(game, seed, runs, table)
        normalized = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)  # no swings: all 0.0
        per_run, mean = normalized.tolist(), normalized.mean(axis=0).tolist()
        header = ["run", *game.player_ids]
        rows = [[str(r), *vals] for r, vals in enumerate(per_run)] + [["mean", *mean]]
        payload = {
            "protocol": {"runs": runs, "seed": seed},
            "classical_normalized": dict(zip(game.player_ids, classical.normalized)),
            "runs": [dict(zip(game.player_ids, vals)) for vals in per_run],
            "mean": dict(zip(game.player_ids, mean)),
        }
        _emit(fmt, precision, out, header, payload, rows)
        return
    columns = {"weight": [w[0] for w in game.weights], "wta": classical.normalized}
    payload = {"quotas": list(game.quotas)}
    if migration:
        mt = load_migration_csv_file(migration)
        if sorted(mt.labels) != sorted(game.player_ids):
            raise InvalidGameError(
                "migration csv: country ids do not match the EU dataset "
                f"({', '.join(game.player_ids)})"
            )
        # reordering commutes with the build: it is elementwise, and its max is over all pairs
        order = [mt.labels.index(c) for c in game.player_ids]
        phi = AssociationMatrix(build_migration_association(mt).matrix[np.ix_(order, order)])
        columns["wa"] = exact_indices(game, phi, table=table).normalized
    else:
        payload["quota_rule"] = game.metadata["quota_rule"]
    payload["players"] = _records(game.player_ids, **columns)
    header = ["country", *columns]
    rows = [[pid, int(weight), *rest] for pid, weight, *rest in (r.values() for r in payload["players"])]
    _emit(fmt, precision, out, header, payload, rows)


@_command("conjecture", ("--trials", dict(type=int, required=True)),
          ("--seed", dict(type=int, required=True)),
          ("--max-players", dict(type=int, default=12, help="[default: %(default)s]")),
          ("--max-weight", dict(type=int, default=20, help="[default: %(default)s]")))
def conjecture_cmd(trials, seed, max_players, max_weight, fmt, precision, out) -> None:
    """Scan random games for violations of the max-weight index cap."""
    spec = RandomGameSpec(max_players=max_players, max_weight=max_weight)
    report = conjecture_scan(trials, seed, spec)
    header = ["games_scanned", "counterexamples", "min_slack"]
    rows = [[report.games_scanned, len(report.counterexamples), report.min_slack]]
    payload = {
        "games_scanned": report.games_scanned,
        "seed": report.seed,
        "min_slack": report.min_slack,
        "counterexamples": [
            {"game": g, "player": p, "normalized": b, "cap": cap}
            for g, p, b, cap in report.counterexamples
        ],
    }
    _emit(fmt, precision, out, header, payload, rows)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit codes."""
    try:
        args = vars(_PARSER.parse_args(argv))
        if args["precision"] < 0:  # not an argparse type, which would reword the message
            raise UsageError(f"Invalid value for '--precision': {args['precision']} "
                             "is not in the range x>=0.")
        args.pop("command")(**args)
    except SystemExit:  # argparse exits only once --help is printed
        return 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except KeyboardInterrupt:
        sys.stderr.write("\n")
        return 1
    except (ValueError, OSError) as exc:  # InvalidGameError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
