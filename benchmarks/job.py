"""Run one workload's ops in a fresh interpreter and time them.

Started by ``run.py`` as a child process, so that ``peak_rss_mb`` is this
process's own peak.  Reads ``plan.json`` from the work directory, runs the
first op once as an untimed warm-up, then repeats the whole op list (a pass)
while another pass fits in ``seconds``.  Each op runs in-process through
``banzhaf.cli.main(argv)`` with stdout captured, or through a public library
call.  The host-speed kernel of ``calibrate.py`` runs before the first pass,
after every op that ends at least ``calibrate.EVERY_S`` after the last
calibration, and after every pass; a pass's time is the sum of its op times,
calibrations excluded, and its calibrations are the one just before it and
those during and after it.  With tracing on, passes alternate between
untraced and traced, so the two medians give the tracing overhead.  Writes
``result.json`` (and, traced, ``spans.jsonl``) into the work directory.

    python3 benchmarks/job.py <workdir> <seconds> <trace 0|1>
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import banzhaf
import banzhaf.cli

import calibrate
import layers
from tracer import Tracer


def _library_call(op: dict) -> str:
    if op["call"] != "association_delta":
        raise ValueError(f"unknown library call {op['call']!r}")
    game = banzhaf.load_game_file(op["game"])
    doc = json.loads(Path(op["association"]).read_text(encoding="utf-8"))
    phi = banzhaf.AssociationMatrix(tuple(tuple(row) for row in doc["association"]))
    report = banzhaf.association_delta(game, phi, op["player"])
    return json.dumps(dataclasses.asdict(report)) + "\n"


def run_op(op: dict) -> tuple[str, str | None]:
    """Run one op; return its stdout and an error message (None on success)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in op:
                code = banzhaf.cli.main(op["argv"])
            else:
                code = 0
                out.write(_library_call(op))
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return out.getvalue(), f"{type(exc).__name__}: {exc}"
    if code != 0:
        return out.getvalue(), f"exit code {code}: {err.getvalue().strip()}"
    return out.getvalue(), None


def main(argv: list[str]) -> int:
    workdir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
    ops = plan["ops"]
    tracer = Tracer() if trace else None

    outputs: dict[str, list[str]] = {op["name"]: [] for op in ops}
    errors: dict[str, list[str]] = {op["name"]: [] for op in ops}

    def record(op: dict) -> int:
        text, error = run_op(op)
        outputs[op["name"]].append(text)
        if error:
            errors[op["name"]].append(error)
        return len(text)

    record(ops[0])  # warm-up
    calibrate.measure()  # warm-up
    cal = [calibrate.measure()]
    untraced: list[float] = []
    untraced_cal: list[list[float]] = []
    traced: list[float] = []
    traced_ranges: list[tuple[int, int]] = []
    traced_bytes: list[int] = []
    walls: list[float] = []
    begin = time.perf_counter()
    while True:
        tracing = tracer is not None and len(untraced) > len(traced)
        if tracing:
            tracer.install()
            first = len(tracer.spans)
        nbytes = 0
        busy = 0.0
        wall0 = last_cal = time.perf_counter()
        cal = cal[-1:]  # the calibration just before this pass
        for op in ops:
            if tracing:
                tracer.op = op["name"]
            t0 = time.perf_counter()
            nbytes += record(op)
            t1 = time.perf_counter()
            busy += t1 - t0
            if t1 - last_cal >= calibrate.EVERY_S:
                cal.append(calibrate.measure())
                last_cal = time.perf_counter()
        if last_cal < t1:  # the last op did not end in a calibration
            cal.append(calibrate.measure())
        if tracing:
            tracer.uninstall()
            traced.append(busy)
            traced_ranges.append((first, len(tracer.spans)))
            traced_bytes.append(nbytes)
        else:
            untraced.append(busy)
            untraced_cal.append(cal)
        # stop before a pass that would overrun the budget, so a run's length
        # stays close to ``seconds`` whatever the pass length
        walls.append(time.perf_counter() - wall0)
        if (time.perf_counter() - begin + statistics.median(walls) > seconds
                and len(traced) >= int(tracer is not None)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "pass_s": untraced,
        "pass_cal_s": untraced_cal,
        "traced_pass_s": traced,
        "peak_rss_mb": peak_rss_mb,
        "runs": {name: len(texts) for name, texts in outputs.items()},
        "errors": {name: errs for name, errs in errors.items() if errs},
        "unstable": [name for name, texts in outputs.items() if len(set(texts)) > 1],
        "outputs": {name: texts[0] for name, texts in outputs.items()},
    }
    if tracer is not None:
        per_pass = []
        rows = []
        for (first, end), nbytes in zip(traced_ranges, traced_bytes):
            spans = tracer.spans[first:end]
            # parent indices are absolute; rebase them onto this pass
            spans = [s[:3] + (s[3] - first if s[3] >= 0 else -1,) + s[4:] for s in spans]
            metrics = layers.pass_metrics(spans, nbytes)
            missing = [lay for lay in plan["expected_layers"] if not metrics[f"{lay}.calls"]]
            if missing:
                raise RuntimeError(
                    f"traced pass recorded no span for layer(s) {missing}: a wrapper was not rebound"
                )
            per_pass.append(metrics)
            rows.append(layers.baseline_rows(spans))
        result["layers"] = {
            key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]
        }
        result["layers"]["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["baseline"] = {
            key: statistics.median(r[key] for r in rows) for key in rows[0]
        }
        tracer.write(workdir / "spans.jsonl", traced_ranges)
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
