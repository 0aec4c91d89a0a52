"""Benchmark of the wmixgof test chain: fit -> PIT/W2 -> kernel -> eigenvalues -> Imhof.

Run from the repository root; each workload runs in its own fresh
interpreter with ``src`` on PYTHONPATH and the BLAS thread settings of the
calling environment, which the benchmark records but does not change.

    python3 perfbench/run.py --workload study-n100 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Every metric is printed with its unit;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Full records, spans included, go
to .bench_build/perfbench/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
# The names of workloads.py, which run.py cannot import: it imports wmixgof.
WORKLOADS = ("study-n100", "test-n1000-m1000", "study-known")
OUT_DIR = os.path.join(".bench_build", "perfbench")
# Fresh interpreters set up per untraced run; setup_s is their median.
SETUP_SAMPLES = 3
# Workers still running this long after run.py started are killed, so a
# run ends within three minutes even if the program hangs.
RUN_LIMIT_S = 170.0


def probe_ms() -> float:
    """Time a fixed pure-Python plus numpy loop: a machine-speed reading."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 0.5
    return (time.perf_counter() - t0) * 1e3


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(argv: list, deadline: float) -> tuple:
    """Start worker.py; return (seconds until READY, RESULT dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return setup_s, result


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--out-dir", OUT_DIR]
    deadline = time.perf_counter() + RUN_LIMIT_S
    probe_before = probe_ms()
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(base + ["--setup-only"], deadline)[0])
    setup_s, result = run_worker(base + ["--trace", str(trace)], deadline)
    setups.append(setup_s)
    probe_after = probe_ms()
    if result is None:
        raise RuntimeError(f"worker for {name} printed no result")

    if trace:
        values = result["per_layer"]
    else:
        values = {
            "op_ms_p50": result["op"]["p50_ms"],
            "op_ms_p80": result["op"]["p80_ms"],
            "ops_per_s": result["ops_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    # Names and units come from BENCHMARK.json; a declared metric the run
    # did not produce is an error.
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setups,
        "probe_ms": {"before": probe_before, "after": probe_after},
        "metrics": metrics,
        **result,
    }
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> dict:
    """Print one workload's record for people; return the line for machines."""
    env = record["env"]
    attempted, failed = record["attempted"], record["failed"]
    blas = ", ".join(os.path.basename(p) for p in env["openblas_libraries"]) or "none"
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"window {record['window_s']:.1f} s")
    print(f"env: nproc={env['nproc']} affinity={env['affinity']} "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} OMP_NUM_THREADS={env['OMP_NUM_THREADS']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} commit={env['commit']}")
    print(f"openblas loaded ({len(env['openblas_libraries'])}): {blas}")
    probe = record["probe_ms"]
    print(f"machine probe: {probe['before']:.1f} ms before, {probe['after']:.1f} ms after")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    pool = record["pool"]
    print(f"pool: {pool['size']} entries, left out because they raised at the reference commit: "
          f"{json.dumps(pool['left_out'], sort_keys=True)}")
    print(f"failures by stage:class = {json.dumps(record['failures'], sort_keys=True)}")
    if "op" in record:
        op = record["op"]
        print(f"op samples = {op['n']}, beyond p80 = {op['n_beyond_tail']}; "
              f"setup samples (s) = {', '.join(f'{s:.3f}' for s in record['setup_samples_s'])}")
    if record.get("study"):
        s = record["study"]
        print(f"study AD over {s['n']} distinct inputs: statistic {s['ad_statistic']:.4f}, "
              f"p {s['ad_p_value']:.4f} (reported, not gated)")
    if "prediction" in record:
        p = record["prediction"]
        verdict = "holds" if p["holds"] else "DOES NOT HOLD"
        print(f"prediction {p['layer']} share >= {100 * p['min_share']:.0f}%: "
              f"{100 * p['share']:.1f}% {verdict}")
        print(f"trace reproduces untraced p-values bit for bit: {not record['trace_mismatches']}; "
              f"fit samples beyond p80 = {record['fit_tail_beyond']}; spans in {record['spans_file']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "wmixgof", "__init__.py")):
        print("error: run from the repository root; src/wmixgof not found", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        line = report(run_workload(name, args.seed, args.seconds, args.trace))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
