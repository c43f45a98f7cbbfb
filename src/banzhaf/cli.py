"""Command-line front end.

Subcommands: ``exact`` (every coalition counted), ``approx`` (Monte Carlo with
confidence intervals), ``bounds`` (combinatorial diagnostics), ``eu`` (the
18-country EU Council study), ``conjecture`` (random-game scan of the
max-weight cap).  ``eu --random-association`` renders the counts of
`exact.association_study`.  Reports go to stdout or ``--out``; formats are
``table``, ``json`` and ``csv``, with the same numbers at the same precision.

Exit codes: 0 success, 1 usage error, 2 data or invariant error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .games import AssociationMatrix, InvalidGameError, VotingGame, require_single_quota, seeded_rng
from .exact import CoalitionTable, association_study, exact_indices
from .sampling import CI_METHODS, confidence_interval, estimate_indices, index_cap, required_samples
from .bounds import bounds_report, conjecture_scan, size_window
from .data import RandomGameSpec, build_migration_association, eu_game, load_game_file, load_migration_csv_file

FORMATS = ("table", "json", "csv")


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
        # an explicit file keeps click from caching (and so pinning) the stream
        click.echo(text, nl=False, file=sys.stdout)


def _common_options(f):
    f = click.option("--format", "fmt", type=click.Choice(FORMATS), default="table",
                     show_default=True, help="Report format.")(f)
    f = click.option("--precision", type=click.IntRange(min=0), default=5, show_default=True,
                     help="Decimal places in the report.")(f)
    f = click.option("--out", type=click.Path(dir_okay=False), default=None,
                     help="Write the report to a file instead of stdout.")(f)
    return f


def _association_options(f):
    f = click.option("--identity", is_flag=True, help="Force the identity association matrix.")(f)
    return click.option("--association", type=click.Path(exists=True, dir_okay=False), default=None,
                        help="Association matrix file (JSON rows).")(f)


def _resolve_phi(game: VotingGame, association: str | None, identity: bool) -> AssociationMatrix | None:
    if association and identity:
        raise click.UsageError("--association and --identity are mutually exclusive")
    if identity:
        return AssociationMatrix.identity(game.num_players)
    if association:
        return _load_association_arg(association)
    return game.association


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """click's help callback, but echoing to an explicit file: click's own
    echoes without one, which caches (and so pins) a redirected stdout."""
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


class _HelpToStdout:
    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)  # type: ignore[misc]
        if option is not None:
            option.callback = _show_help
        return option


class _Command(_HelpToStdout, click.Command):
    pass


class _Group(_HelpToStdout, click.Group):
    command_class = _Command


@click.group(cls=_Group)
def cli() -> None:
    """Banzhaf power indices for weighted voting games."""


@cli.command("exact")
@click.option("--game", "game_src", required=True,
              help="Game file (JSON), or 'eu' for the built-in EU game.")
@_association_options
@_common_options
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
        "players": [
            {"id": pid, "swings": sw, "absolute": ab, "normalized": no}
            for pid, sw, ab, no in zip(
                report.player_ids, report.swing_counts, report.absolute, report.normalized
            )
        ],
    }
    _emit(fmt, precision, out, header, payload)


@cli.command("approx")
@click.option("--game", "game_src", required=True,
              help="Game file (JSON), or 'eu' for the built-in EU game.")
@_association_options
@click.option("--epsilon", type=float, required=True, help="Target halfwidth.")
@click.option("--delta", type=float, required=True, help="Confidence parameter.")
@click.option("--method", type=click.Choice(CI_METHODS),
              default="hoeffding", show_default=True,
              help="Interval: hoeffding (distribution-free), student (asymptotic, "
                   "may under-cover at small n) or selfbounding.")
@click.option("--samples", type=int, default=None,
              help="Sample count per player; derived from epsilon/delta when absent.")
@click.option("--seed", type=int, required=True)
@_common_options
def approx_cmd(game_src, association, identity, epsilon, delta, method, samples, seed,
               fmt, precision, out) -> None:
    """Monte Carlo estimates with per-player confidence intervals."""
    game = _load_game_arg(game_src)
    phi = _resolve_phi(game, association, identity)
    if samples is None:
        if method == "student":
            # worst-case Bernoulli variance; no pilot run at the CLI
            samples = required_samples(epsilon, delta, "student", s2=0.25)
        elif method == "selfbounding":
            u = index_cap(game, range(game.num_players))
            samples = required_samples(epsilon, delta, "selfbounding", B=2.0 * u + epsilon)
        else:
            samples = required_samples(epsilon, delta, "hoeffding")
    report = estimate_indices(game, phi, samples=samples, seed=seed)
    intervals = [
        confidence_interval(report, i, delta, method, game=game)
        for i in range(game.num_players)
    ]
    header = ["player", "estimate", "normalized", "ci_lower", "ci_upper"]
    payload = {
        "mode": report.mode,
        "samples": report.samples,
        "seed": report.seed,
        "method": method,
        "epsilon": epsilon,
        "delta": delta,
        "players": [
            {
                "id": pid,
                "estimate": est,
                "normalized": no,
                "ci_lower": ci.lower,
                "ci_upper": ci.upper,
                "halfwidth": ci.halfwidth,
            }
            for pid, est, no, ci in zip(
                report.player_ids, report.estimates, report.normalized, intervals
            )
        ],
    }
    _emit(fmt, precision, out, header, payload)


@cli.command("bounds")
@click.option("--game", "game_src", required=True,
              help="Game file (JSON), or 'eu' for the built-in EU game.")
@click.option("--player", default=None, help="Restrict the per-player rows to one player.")
@_common_options
def bounds_cmd(game_src, player, fmt, precision, out) -> None:
    """Combinatorial bound diagnostics (single-quota games)."""
    game = _load_game_arg(game_src)
    require_single_quota(game, "bounds_report")
    size_window(game)  # a window it cannot search is rejected before the exact count
    indices = range(game.num_players)
    if player is not None:
        indices = [game.player_index(player)]
    exact = exact_indices(game)
    report = bounds_report(game, exact)
    header = ["player", "exact", "ht_bound", "t", "h", "violated"]
    m_high = "inf" if report.M_high == float("inf") else report.M_high
    payload = {
        "players": [
            {
                "id": report.player_ids[i],
                "exact_absolute": exact.absolute[i],
                "ht_bound": report.ht_bounds[i],
                "t": report.t_values[i],
                "h": report.h_values[i],
                "violated": bool(report.ht_violations[i]) if report.ht_violations else False,
            }
            for i in indices
        ],
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


@cli.command("eu")
@click.option("--migration", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Migration CSV; adds association-aware indices.")
@click.option("--random-association", "random_assoc", is_flag=True,
              help="Average association-aware indices over random matrices.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--runs", type=int, default=100, show_default=True,
              help="Number of random matrices.")
@_common_options
def eu_cmd(migration, random_assoc, seed, runs, fmt, precision, out) -> None:
    """The 18-country EU Council study."""
    if migration and random_assoc:
        raise click.UsageError("--migration and --random-association are mutually exclusive")
    if random_assoc and runs <= 0:
        raise click.UsageError("--runs must be positive")
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
    players = [
        {"id": pid, "weight": game.weights[i][0], "wta": classical.normalized[i]}
        for i, pid in enumerate(game.player_ids)
    ]
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
        for rec, wa in zip(players, exact_indices(game, phi, table=table).normalized):
            rec["wa"] = wa
    else:
        payload["quota_rule"] = game.metadata["quota_rule"]
    payload["players"] = players
    header = ["country", *list(players[0])[1:]]
    rows = [[pid, int(weight), *rest] for pid, weight, *rest in (r.values() for r in players)]
    _emit(fmt, precision, out, header, payload, rows)


@cli.command("conjecture")
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--max-players", type=int, default=12, show_default=True)
@click.option("--max-weight", type=int, default=20, show_default=True)
@_common_options
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
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", file=sys.stderr)
        return 1
    except click.Abort:
        return 1
    except (ValueError, OSError) as exc:  # InvalidGameError is a ValueError
        click.echo(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
