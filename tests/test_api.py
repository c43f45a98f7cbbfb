"""The package's public surface, and README's library tour run as written."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import banzhaf
from banzhaf import bounds, data, exact, games, sampling

ROOT = Path(__file__).resolve().parent.parent
MODULES = (games, exact, sampling, bounds, data)

# Every name `import banzhaf` exported before the package re-exported its
# modules' `__all__`; none may be dropped.
EARLIER_NAMES = (
    "AssociationMatrix", "InvalidGameError", "PersuasionLoad", "VotingGame",
    "coalition_members", "coalition_of", "coalition_size", "is_critical_assoc",
    "is_critical_classical", "is_winning", "persuasion_load", "persuasion_loads",
    "single_quota_game",
    "CoalitionTable", "DeltaReport", "IndexReport", "association_delta", "exact_indices",
    "CI_METHODS", "ConfidenceInterval", "EstimateReport", "confidence_interval",
    "estimate_indices", "required_samples", "student_t_quantile",
    "BoundsReport", "ConjectureReport", "GlobalBounds", "all_critical_weight_check",
    "bounds_report", "conjecture_check", "conjecture_scan", "global_bounds", "ht_bound",
    "ht_profile", "size_window",
    "EU_COUNTRIES", "MigrationTable", "RandomGameSpec", "build_migration_association",
    "dump_game", "eu_game", "load_game", "load_game_file", "load_migration_csv",
    "random_association", "random_game",
)


class TestPublicSurface:
    def test_all_is_the_modules_all_in_order(self):
        assert banzhaf.__all__ == [name for module in MODULES for name in module.__all__]
        assert len(set(banzhaf.__all__)) == len(banzhaf.__all__)

    @pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
    def test_names_are_the_modules_objects(self, module):
        for name in module.__all__:
            assert getattr(banzhaf, name) is getattr(module, name), name

    def test_earlier_names_still_exported(self):
        assert len(EARLIER_NAMES) == 47
        assert set(EARLIER_NAMES) <= set(banzhaf.__all__)


def _private_reads(path: Path, modules: set[str]) -> list[str]:
    """Where the module at ``path`` reads an underscore name of another of
    ``modules``, as ``mod._x`` or by ``from .mod import _x``; dunders such as
    ``mod.__all__`` are public."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module if node.level == 0 else "." * node.level + (node.module or "")
            if source in (".", "..", "banzhaf"):
                aliases |= {a.asname or a.name for a in node.names if a.name in modules}
            elif source.lstrip(".").removeprefix("banzhaf.") in modules:
                private = [a.name for a in node.names if a.name.startswith("_")]
                reads += [f"{path.name}:{node.lineno} from {source} import {name}" for name in private]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if node.attr.startswith("_") and not node.attr.endswith("__"):
                reads.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    """Modules share only names without an underscore: the public ones in
    ``__all__``, and shared helpers such as `games.subset_sums`."""
    package = Path(banzhaf.__file__).parent
    paths = sorted(package.glob("*.py"))
    modules = {p.stem for p in paths} - {"__init__"}
    assert {"cli", "exact", "bounds"} <= modules
    assert [read for path in paths for read in _private_reads(path, modules)] == []


def _tour_values() -> dict[str, object]:
    """Run README's library tour statement by statement, and return the
    value of each bare expression keyed by its source."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict[str, object] = {}
    values = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return values


def test_library_tour_runs_as_written():
    values = _tour_values()
    assert values["bz.exact_indices(game).absolute"] == (0.75, 0.25, 0.25)
    assert values["bz.exact_indices(g2, phi).absolute"] == (1.0, 0.5)
    assert values["bz.required_samples(0.01, 0.01)"] == 26492
    normalized = values["bz.exact_indices(eu).normalized"]
    assert round(normalized[banzhaf.eu_game().player_ids.index("DEU")], 5) == 0.09560
    assert values["bz.association_study(eu, seed=0, runs=100).shape"] == (100, 18)
