"""Benchmark runner: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (it needs ``src/banzhaf``).  Steps:

1. Set-up, timed as ``setup_s``: a fresh interpreter imports ``banzhaf`` and
   ``banzhaf.cli`` and writes the workload's seeded inputs (``inputs.py``).
   Done once untimed, so byte-compilation is not counted, then
   ``SETUP_REPEATS`` times, half before the job and half after it, so the
   median spans the run; the median is reported.
2. The job (``job.py``) in a fresh child process with fixed malloc
   thresholds: one untimed warm-up op, then whole passes over the workload's
   ops for ``--seconds``, with the host-speed kernel of ``calibrate.py`` timed
   between them.  ``job_ref_s`` is the median over passes of the pass time
   scaled by ``REFERENCE_S`` over the pass's calibration, ``job_s`` (report
   only) the raw median pass time, and ``peak_rss_mb`` the child's peak
   resident set.
3. Every op's output is checked by ``oracles.py`` (and, on the default seed,
   against ``golden.json``) outside the timed region.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The last stdout
line is the JSON result; the lines before it are a readable report.
``--record-golden`` (default seed only) rewrites the workload's stdout hashes
in ``golden.json`` after every oracle check has passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import REFERENCE_S
from layers import BASELINE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 150
# One BLAS thread: the job is a single closed-loop client, and a fixed
# thread count keeps runs comparable on a small shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fixed glibc malloc thresholds for the job child.  By default glibc moves
# its mmap and trim thresholds as the program frees memory, and where they
# settle differs between processes of the same code and input: the scan's
# 512 KiB temporaries then either stay on the heap or are unmapped and
# faulted back on every use.  On exact_large that is 2.6k or 58k page faults
# per pass, 25% apart in time, decided once per process.  Fixed thresholds
# keep arrays under 4 MiB on the heap and return freed memory only above
# 32 MiB, in every run.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=4194304:glibc.malloc.trim_threshold=33554432"


def run_child(argv: list[str], env: dict[str, str]) -> float:
    """Run a child to completion and return its wall time.  A timer kills it
    after CHILD_TIMEOUT_S; ``Popen.wait`` with a timeout would poll in steps
    of up to 50 ms and round the measured time to them."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    """What a result was measured on.  The commit is read from git when the
    checkout is a repository; the source hash identifies it either way."""
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "banzhaf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    if int(BLAS_THREADS) > nproc:
        raise RuntimeError(f"BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "job_malloc": MALLOC_TUNABLES,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "banzhaf" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'banzhaf'}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.update({var: BLAS_THREADS for var in BLAS_ENV})
    sys.path.insert(0, str(SRC))
    import oracles

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_argv = [sys.executable, str(HERE / "inputs.py"), args.workload, str(args.seed), str(workdir)]
    run_child(setup_argv, env)  # untimed: byte-compiles the sources
    setup = [run_child(setup_argv, env) for _ in range(SETUP_REPEATS // 2)]
    run_child([sys.executable, str(HERE / "job.py"), str(workdir), str(args.seconds), str(args.trace)],
              dict(env, GLIBC_TUNABLES=MALLOC_TUNABLES))
    setup += [run_child(setup_argv, env) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
    job = json.loads((workdir / "result.json").read_text(encoding="utf-8"))

    # --- correctness, outside every timed region
    ops = {op["name"]: op for op in plan["ops"]}
    outputs = job["outputs"]
    problems = oracles.CHECKS[args.workload](ops, outputs, args.seed)
    hashes = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    if args.seed == DEFAULT_SEED and not args.record_golden:
        want = golden.get(args.workload)
        if want is None:
            problems.setdefault("golden", []).append("no golden hashes recorded for this workload")
        else:
            for name, digest in hashes.items():
                if want.get(name) != digest:
                    problems.setdefault(name, []).append("stdout sha256 differs from golden.json")
    for name, errors in job["errors"].items():
        problems.setdefault(name, []).append(f"{len(errors)} failed run(s): {errors[0]}")
    for name in job["unstable"]:
        problems.setdefault(name, []).append("output differs between repeated runs")
    bad = {name for name, p in problems.items() if p}
    attempted = sum(job["runs"].values())
    failed = sum(job["runs"].get(name, 1) if name in bad else 0 for name in problems)
    if args.record_golden:
        if args.seed != DEFAULT_SEED or bad:
            print(f"error: golden hashes are recorded only on seed {DEFAULT_SEED} with every check passing",
                  file=sys.stderr)
            return 2
        golden[args.workload] = hashes
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    # --- report
    env_info = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env_info))
    for name in sorted(bad):
        for p in problems[name]:
            print(f"FAILED {name}: {p}")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} ops failed verification)")
    passes = job["pass_s"]
    q1, med, q3 = quartiles(passes)
    print(f"job_s median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  passes {len(passes)}")
    cal = [statistics.median(c) for c in job["pass_cal_s"]]
    ref = [REFERENCE_S * p / c for p, c in zip(passes, cal)]
    r1, rmed, r3 = quartiles(ref)
    c1, cmed, c3 = quartiles(cal)
    print(f"calibration median {cmed:.4f} s  q1 {c1:.4f}  q3 {c3:.4f}  (reference {REFERENCE_S} s)")
    print(f"job_ref_s median {rmed:.4f} s  q1 {r1:.4f}  q3 {r3:.4f}")
    s1, smed, s3 = quartiles(setup)
    print(f"setup_s median {smed:.4f} s  q1 {s1:.4f}  q3 {s3:.4f}  repeats {len(setup)}")
    if args.trace:
        values = dict(job["layers"])
        t1, tmed, t3 = quartiles(job["traced_pass_s"])
        print(f"traced job_s median {tmed:.4f} s  q1 {t1:.4f}  q3 {t3:.4f}  passes {len(job['traced_pass_s'])}"
              f"  tracing overhead {values['trace.overhead_s']:+.4f} s")
        for key, base in BASELINE.items():
            got = job["baseline"].get(key)
            if got is None:
                print(f"baseline {key:<22} {base * 1e3:9.1f} ms  not measured on this workload")
                continue
            ratio = got / base
            flag = "  OFF BY >2x" if not 0.5 <= ratio <= 2.0 else ""
            print(f"baseline {key:<22} {base * 1e3:9.1f} ms  measured {got * 1e3:9.1f} ms  "
                  f"ratio {ratio:.2f}{flag}")
    else:
        values = {"setup_s": smed, "job_ref_s": rmed, "peak_rss_mb": job["peak_rss_mb"]}
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise RuntimeError(f"metric {m['name']} declared in BENCHMARK.json was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
