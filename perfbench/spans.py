"""In-memory spans and counters recorded around the calls into each layer.

A span is [name, start, end, parent span, op id]; the benchmark writes the
list out once the run is over. A layer is the module prefix of a span
name, so "kernel_eigen.eigen_spectrum" belongs to ``kernel_eigen``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

OP_SPAN = "op"
LAYERS = ("mixture_model", "estimation", "gof_statistic", "kernel_eigen", "imhof", "simulation", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        """One per-op value of a counter."""
        self.counters.setdefault(name, []).append(float(value))

    def count_fit(self, fit) -> None:
        self.count("estimation.fit_mle.starts", fit.n_starts_used)
        self.count("estimation.fit_mle.admissible_starts", len(fit.best_of_likelihoods))
        self.count("estimation.fit_mle.boundary_starts", fit.n_boundary_starts)
        self.count("estimation.fit_mle.converged", fit.converged)

    def count_kernel(self, q, spectrum) -> None:
        # Computed, not measured: a dense symmetric eigensolve costs about
        # 4/3 m^3 flops, and the build materializes the m-by-m kernel.
        self.count("kernel_eigen.eigen_spectrum.flops_computed", 4.0 / 3.0 * q.m**3)
        self.count("kernel_eigen.build_q_matrix.bytes_computed", q.entries.nbytes)
        self.count("kernel_eigen.eigen_spectrum.n_retained", spectrum.n_retained)
        self.count("kernel_eigen.eigen_spectrum.n_negative", spectrum.n_negative)
        self.count("kernel_eigen.eigen_spectrum.trace_captured", spectrum.trace_captured)

    def durations(self) -> dict:
        """Span name -> list of durations in seconds."""
        out = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def op_breakdown(self, glue_layer: str) -> list:
        """Per op: (op duration, {layer: self time}, summed layer spans).

        The op span's own self time, the work between layer calls, is
        charged to ``glue_layer``. Spans outside an op are left out.
        """
        children = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((name, end - start))
        rows = []
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if name != OP_SPAN:
                continue
            layers = dict.fromkeys(LAYERS, 0.0)
            covered = 0.0
            for child, duration in children.get(index, []):
                layers[child.split(".", 1)[0]] += duration
                covered += duration
            layers[glue_layer] += (end - start) - covered
            rows.append((end - start, layers, covered))
        return rows
