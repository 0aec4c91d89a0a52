"""Run one benchmark workload in a fresh interpreter.

run.py starts this script with ``src`` on PYTHONPATH. It sets up (import,
inputs, one warm-up op), prints ``READY``, and unless ``--setup-only`` is
given runs ops in a closed loop for ``--seconds`` seconds. It then checks
every op against the committed reference and prints ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import numpy as np
import scipy

import wmixgof
from spans import LAYERS, OP_SPAN, Tracer
from workloads import WORKLOADS, Study, check_op, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
TAIL = 80


def percentile_ms(values: list, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def tail_summary(values: list) -> dict:
    """Median and TAIL percentile in ms, with the count of ops beyond the tail."""
    tail = percentile_ms(values, TAIL)
    return {
        "n": len(values),
        "p50_ms": percentile_ms(values, 50),
        f"p{TAIL}_ms": tail,
        "n_beyond_tail": sum(v * 1e3 > tail for v in values),
    }


def environment() -> dict:
    """Thread settings, loaded OpenBLAS copies, versions and the source commit."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        blas = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas_libraries": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wmixgof": wmixgof.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def check_all(wl, records: list) -> collections.Counter:
    """Failures by "stage:class" against the reference; empty when all pass."""
    failures = collections.Counter()
    for rec in records:
        ref = wl.reference[rec.index]
        reason = check_op(rec, ref, wl.sample_size)
        if reason == "check-mismatch" and rec.log_likelihood is None:
            # The study op reports no likelihood; a moved p-value is only
            # allowed with a better fit, so refit outside the timing.
            refit = wl.refit(rec.index)
            if refit.log_likelihood is not None:
                rec.log_likelihood = refit.log_likelihood
                reason = check_op(rec, ref, wl.sample_size)
        if reason != "ok":
            stage = rec.stage if rec.status != "ok" else "check"
            failures[f"{stage}:{reason}"] += 1
    return failures


def study_verdict(wl, records: list) -> dict | None:
    """Anderson-Darling uniformity of the pooled p-values of distinct inputs."""
    if not isinstance(wl, Study):
        return None
    p = {r.index: r.p_value for r in records if r.status == "ok"}
    if len(p) < 2:
        return None
    u = np.clip(np.sort(list(p.values())), 1e-12, 1.0 - 1e-12)
    stat = wmixgof.ad_statistic_uniform(u)
    return {"n": len(p), "ad_statistic": stat, "ad_p_value": wmixgof.ad_uniformity_pvalue(stat)}


def closed_loop(wl, seconds: float, op) -> tuple:
    """Run op(k) for k = 0, 1, ... until ``seconds`` have passed; one client."""
    latencies, results = [], []
    begin = time.perf_counter()
    deadline = begin + seconds
    end = begin
    k = 0
    while wl.max_ops is None or k < wl.max_ops:
        t0 = time.perf_counter()
        results.append(op(k))
        end = time.perf_counter()
        latencies.append(end - t0)
        k += 1
        if end >= deadline:
            break
    return latencies, results, end - begin


def measure(wl, seconds: float) -> dict:
    latencies, records, window = closed_loop(wl, seconds, lambda k: wl.run(wl.index(k)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_all(wl, records)
    return {
        "attempted": len(records),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "window_s": window,
        "op": tail_summary(latencies),
        "ops_per_s": len(records) / window,
        "peak_rss_mb": peak_rss_mb,
        "study": study_verdict(wl, records),
    }


def measure_traced(wl, seconds: float, spans_path: str) -> dict:
    """Traced chain, then the untraced op on the same input, op by op."""
    tracer = Tracer()
    twins = []

    def op(k):
        index = wl.index(k)
        tracer.op = k
        with tracer.span(OP_SPAN):
            rec = wl.traced(index, tracer)
        wl.hessian_extra(tracer)
        t0 = time.perf_counter()
        twin = wl.run(index)
        twins.append((time.perf_counter() - t0, twin))
        return rec

    _, records, window = closed_loop(wl, seconds, op)
    failures = check_all(wl, records)
    mismatched = [
        rec.index
        for rec, (_, twin) in zip(records, twins)
        if (rec.status == "ok") != (twin.status == "ok") or rec.p_value != twin.p_value
    ]
    if mismatched:
        failures["trace:trace-mismatch"] += len(mismatched)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "spans": tracer.spans, "counters": tracer.counters}, fh)

    rows = tracer.op_breakdown(wl.glue_layer)
    op_total = sum(total for total, _, _ in rows)
    shares = {layer: sum(r[1][layer] for r in rows) / op_total for layer in LAYERS}
    glue = [twin_s - covered for (twin_s, _), (_, _, covered) in zip(twins, rows)]
    durations = tracer.durations()
    counters = tracer.counters

    def ms(span, q=50):
        return percentile_ms(durations.get(span, []), q)

    def mean(name):
        values = counters.get(name, [])
        return sum(values) / len(values) if values else 0.0

    def ratio(num, den):
        total = sum(counters.get(den, []))
        return sum(counters.get(num, [])) / total if total else 0.0

    fit_tail = ms("estimation.fit_mle", TAIL)
    metrics = {
        "estimation.fit_mle.ms_p50": ms("estimation.fit_mle"),
        f"estimation.fit_mle.ms_p{TAIL}": fit_tail,
        "estimation.hessian_at.ms_p50": ms("estimation.hessian_at"),
        "estimation.fit_mle.starts": mean("estimation.fit_mle.starts"),
        "estimation.fit_mle.admissible_start_ratio": ratio(
            "estimation.fit_mle.admissible_starts", "estimation.fit_mle.starts"
        ),
        "estimation.fit_mle.boundary_starts": mean("estimation.fit_mle.boundary_starts"),
        "estimation.fit_mle.converged_ratio": mean("estimation.fit_mle.converged"),
        "kernel_eigen.build_q_matrix.ms_p50": ms("kernel_eigen.build_q_matrix"),
        "kernel_eigen.eigen_spectrum.ms_p50": ms("kernel_eigen.eigen_spectrum"),
        "kernel_eigen.eigen_spectrum.n_retained": mean("kernel_eigen.eigen_spectrum.n_retained"),
        "kernel_eigen.eigen_spectrum.n_negative": mean("kernel_eigen.eigen_spectrum.n_negative"),
        "kernel_eigen.eigen_spectrum.trace_captured": mean("kernel_eigen.eigen_spectrum.trace_captured"),
        "kernel_eigen.eigen_spectrum.flops_computed": mean("kernel_eigen.eigen_spectrum.flops_computed"),
        "kernel_eigen.build_q_matrix.bytes_computed": mean("kernel_eigen.build_q_matrix.bytes_computed"),
        "imhof.imhof_tail.ms_p50": ms("imhof.imhof_tail"),
        "imhof.imhof_tail.n_weights": mean("imhof.imhof_tail.n_weights"),
        "mixture_model.sample_mixture.ms_p50": ms("mixture_model.sample_mixture"),
        "gof_statistic.pit_cvm.ms_p50": ms("gof_statistic.pit_cvm"),
        "cli.read_observations.ms_p50": ms("cli.read_observations"),
        "cli.report.ms_p50": ms("cli.report"),
        "simulation.glue_ms_p50": percentile_ms(glue, 50),
    }
    metrics.update({f"{layer}.share_pct": 100.0 * share for layer, share in shares.items()})
    layer, minimum = wl.dominant
    return {
        "attempted": len(records),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "window_s": window,
        "trace_mismatches": mismatched[:10],
        "per_layer": metrics,
        "fit_tail_beyond": sum(d * 1e3 > fit_tail for d in durations.get("estimation.fit_mle", [])),
        "prediction": {"layer": layer, "min_share": minimum, "share": shares[layer], "holds": shares[layer] >= minimum},
        "spans_file": spans_path,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=args.out_dir)
    try:
        wl.setup(args.seed, workdir, load_reference(os.path.join(HERE, "reference"), wl.name))
        wl.run(wl.index(-1))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans_path = os.path.join(args.out_dir, f"spans-{wl.name}-seed{args.seed}.json")
            result = measure_traced(wl, args.seconds, spans_path)
        else:
            result = measure(wl, args.seconds)
        result["env"] = environment()
        result["pool"] = {
            "size": len(wl.reference),
            "left_out": collections.Counter(r["raised"] for r in wl.reference if isinstance(r, dict)),
        }
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
