"""Per-layer metrics and baseline rows computed from one traced pass's spans.

A layer is a package module.  Its busy time is the summed duration of its
outermost spans (a span nested inside another of the same layer is not
counted twice); its self time is the summed span durations minus the time
covered by their direct child spans.  Since the program is single-threaded,
a span's children never overlap, so self time is a plain subtraction.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import TRACED

LAYERS = tuple(TRACED)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[tuple], output_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    dur = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(lambda: defaultdict(int))
    busy = defaultdict(float)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    for index, (name, start, end, parent, _, counts) in enumerate(spans):
        layer = name.split(".", 1)[0]
        d = end - start
        dur[name] += d
        own[name] += d - child_time[index]
        calls[name] += 1
        for key, value in (counts or {}).items():
            work[name][key] += value
        layer_self[layer] += d - child_time[index]
        layer_calls[layer] += 1
        ancestor = parent
        while ancestor >= 0 and not spans[ancestor][0].startswith(layer + "."):
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[layer] += d

    scan = work["exact.CoalitionTable.swing_counts"]
    est = work["sampling.estimate_indices"]
    out = {
        "exact.swing_counts_s": dur["exact.CoalitionTable.swing_counts"],
        "exact.coalitions": scan["coalitions"],
        "exact.coalitions_per_s": _ratio(scan["coalitions"], dur["exact.CoalitionTable.swing_counts"]),
        "exact.swing_rate": _ratio(scan["swings"], scan["swing_slots"]),
        "exact.table_build_s": dur["exact.CoalitionTable.__init__"],
        "exact.table_build_calls": calls["exact.CoalitionTable.__init__"],
        "exact.gain_loss_s": dur["exact.CoalitionTable.criticality_gain_loss"],
        "exact.exact_indices_self_s": own["exact.exact_indices"],
        "games.persuasion_loads_s": dur["games.persuasion_loads"],
        "sampling.estimate_s": dur["sampling.estimate_indices"],
        "sampling.samples": est["samples"],
        "sampling.samples_per_s": _ratio(est["samples"], dur["sampling.estimate_indices"]),
        "sampling.swing_rate": _ratio(est["swings"], est["samples"]),
        "sampling.ci_s": dur["sampling.confidence_interval"],
        "sampling.required_samples_s": dur["sampling.required_samples"],
        "bounds.ht_bound_s": dur["bounds.ht_bound"],
        "bounds.ht_bound_calls": calls["bounds.ht_bound"],
        "bounds.conjecture_scan_self_s": own["bounds.conjecture_scan"],
        "bounds.conjecture_check_s": dur["bounds.conjecture_check"],
        "data.random_game_s": dur["data.random_game"],
        "data.random_association_s": dur["data.random_association"],
        "data.migration_s": dur["data.load_migration_csv_file"] + dur["data.build_migration_association"],
        "data.load_game_s": dur["data.load_game_file"],
        "data.eu_game_s": dur["data.eu_game"],
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.calls"] = layer_calls[layer]
    out["trace.spans"] = len(spans)
    return out


# ROADMAP's hand-measured baseline (2-core machine, best of 3), in seconds.
BASELINE = {
    "eu_exact": 0.020,
    "eu_table_build": 0.003,
    "eu_scan": 0.012,
    "eu_study_20": 0.350,
    "exact_m20": 0.026,
    "exact_m22": 0.104,
    "exact_m24": 0.417,
    "sampling_m100_26492": 3.5,
}
BASELINE_SAMPLES = 26_492


def baseline_rows(spans: list[tuple]) -> dict[str, float]:
    """The baseline rows this pass can measure, in seconds, keyed as
    ``BASELINE``.  Rows whose op is not in the workload are absent."""
    by_op = defaultdict(list)
    for span in spans:
        by_op[span[4]].append(span)

    def total(op: str, name: str) -> float:
        return sum(s[2] - s[1] for s in by_op[op] if s[0] == name)

    rows = {}
    if "eu" in by_op:
        build = total("eu", "exact.CoalitionTable.__init__")
        rows["eu_table_build"] = build
        rows["eu_scan"] = total("eu", "exact.CoalitionTable.swing_counts")
        rows["eu_exact"] = build + total("eu", "exact.exact_indices")
    if "eu_random" in by_op:
        spans_r = by_op["eu_random"]
        exact = [s for s in spans_r if s[0] == "exact.exact_indices"]
        per_matrix = [s[2] - s[1] for s in exact if s[5]["association"]]
        per_matrix_draw = total("eu_random", "data.random_association") / max(1, len(per_matrix))
        classical = sum(s[2] - s[1] for s in exact if not s[5]["association"])
        rows["eu_study_20"] = (
            total("eu_random", "exact.CoalitionTable.__init__")
            + classical
            + 20 * (sum(per_matrix) / max(1, len(per_matrix)) + per_matrix_draw)
        )
    for m in (20, 22, 24):
        if f"exact_m{m}" in by_op:
            rows[f"exact_m{m}"] = total(f"exact_m{m}", "exact.exact_indices")
    sampled = [s for op, ss in by_op.items() if op.startswith("approx_") and op != "approx_eu"
               for s in ss if s[0] == "sampling.estimate_indices"]
    if sampled:
        per_player = sum(s[5]["samples_per_player"] for s in sampled)
        rows["sampling_m100_26492"] = sum(s[2] - s[1] for s in sampled) / per_player * BASELINE_SAMPLES
    return rows
