"""Span tracer that wraps the package's public entry points from outside.

The benchmark measures layers without editing the program.  ``install``
replaces each traced callable, in every ``banzhaf`` module namespace that
holds it (``banzhaf``, ``banzhaf.cli``, ``banzhaf.bounds``, ``banzhaf.exact``
and the defining module), with a wrapper that records a span; ``uninstall``
puts the originals back.  Methods are wrapped on their class, which every
importer shares.  Call sites that import a name inside a function body (the
CLI's and the sampler's ``ht_bound``) look it up at call time and so see the
wrapper too.

A span is ``(name, start, end, parent, op, counts)``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the benchmark op running, and
``counts`` the work the call did, computed from its arguments and result.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path


def _swing_counts_work(bound, result) -> dict:
    table = bound.arguments["self"]
    m = table.game.num_players
    blocks = bound.arguments.get("high_range")
    visited = (len(blocks) << table.low_bits) if blocks is not None else 1 << m
    return {
        "coalitions": visited,
        "swings": int(result.sum()),
        "swing_slots": m * (visited >> 1),
    }


def _estimate_work(bound, result) -> dict:
    m = bound.arguments["game"].num_players
    n = result.samples
    return {"samples": m * n, "samples_per_player": n, "swings": sum(result.swing_counts)}


def _exact_indices_work(bound, result) -> dict:
    return {"association": int(bound.arguments.get("phi") is not None)}


# layer -> traced callables in that module ("Class.method" for methods), and
# the optional work counter of each.
TRACED = {
    "cli": {"main": None},
    "data": {
        "eu_game": None,
        "load_game_file": None,
        "random_game": None,
        "random_association": None,
        "load_migration_csv_file": None,
        "build_migration_association": None,
    },
    "games": {"persuasion_loads": None},
    "exact": {
        "exact_indices": _exact_indices_work,
        "association_delta": None,
        "CoalitionTable.__init__": None,
        "CoalitionTable.swing_counts": _swing_counts_work,
        "CoalitionTable.criticality_gain_loss": None,
    },
    "sampling": {
        "estimate_indices": _estimate_work,
        "confidence_interval": None,
        "required_samples": None,
    },
    "bounds": {
        "ht_bound": None,
        "bounds_report": None,
        "conjecture_scan": None,
        "conjecture_check": None,
    },
}


class Tracer:
    """Records spans around the traced entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[index] = spans[index][:5] + (work(bound, result),)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "banzhaf" or n.startswith("banzhaf.")]
        for layer, entries in TRACED.items():
            home = importlib.import_module(f"banzhaf.{layer}")
            for qualname, work in entries.items():
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, work))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(name, original, work)
                for module in modules:
                    if vars(module).get(qualname) is original:
                        self._restore.append((module, qualname, original))
                        setattr(module, qualname, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path, passes: list[tuple[int, int]]) -> None:
        """Write the spans as JSON lines, each tagged with its traced pass.
        ``passes`` holds the ``[first, end)`` span index range of each pass;
        together they cover every span, so a span's line number is its
        index and ``parent`` refers to a line."""
        with path.open("w", encoding="utf-8") as fh:
            for number, (first, end) in enumerate(passes):
                for name, start, stop, parent, op, counts in self.spans[first:end]:
                    fh.write(json.dumps([number, op, name, start, stop, parent, counts]) + "\n")
