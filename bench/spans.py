"""Span tracing of nlslab's public functions, installed from outside the package.

:class:`Tracer` replaces each traced function at the module or class
attribute its callers resolve it through, records one span per call
(name, start, end, self time, parent span, run id) in memory, and restores
the originals on exit.  Spans are written out after the run, never during it.

Self time is a span's duration minus the durations of its direct child
spans.  The DFT wrappers only count calls and bytes; their time stays in the
self time of the spectral method that called them.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        # (name, start, end, self_s, parent index or -1, run id)
        self.spans: list[tuple] = []
        self.run_id = 0
        self.counts: Counter = Counter()  # of the current run
        self.written_bytes = 0  # by the current run
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        import nlslab.cli as cli
        import nlslab.core as core
        import nlslab.fem as fem
        import nlslab.harness as harness
        import nlslab.oracles as oracles
        import nlslab.relaxation as relaxation
        import nlslab.spectral as spectral
        import nlslab.splitting as splitting

        span = self._span
        span(cli, "run_scenario", "harness.run_scenario")
        span(cli, "write_scenario", "harness.write_scenario", self._count_written)
        span(harness, "run_method", "harness.run_method")
        span(harness, "adaptive_integrate", "relaxation.adaptive_integrate")
        span(harness, "integrate_imex", "relaxation.integrate_imex")
        span(harness.SemiclassicalReference, "state_at", "oracles.reference")
        span(oracles, "soliton_exact", "oracles.soliton_exact")
        span(splitting, "integrate_splitting", "splitting.integrate")
        # relaxation imports imex_step by name; the steppers resolve it there.
        span(relaxation, "imex_step", "imexrk.imex_step")
        span(relaxation, "relax_single", "relaxation.relax_single", self._count_outcome)
        span(relaxation, "relax_multi", "relaxation.relax_multi", self._count_outcome)
        span(core.InvariantTracker, "update", "core.invariant_eval")
        for module in (core, fem, relaxation):
            span(module, "exact_sum", "core.exact_sum")
        for module in (fem, relaxation):
            span(module, "exact_dot", "core.exact_dot")
        # SpectralOperator is a frozen dataclass: patch the class, not instances.
        for method in ("apply", "solve_and_apply", "flow"):
            span(spectral.SpectralOperator, method, f"spectral.{method}")
        span(fem, "assemble", "fem.assemble")
        span(fem, "stage_factorize", "fem.stage_factorize")
        span(fem, "stage_solve", "fem.stage_solve")
        span(fem.FemStiffPart, "apply", "fem.apply")
        for name in ("dft_forward", "dft_inverse"):
            self._count_fft(spectral, name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _span(self, owner, attr: str, name: str, on_result=None) -> None:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                parent = stack[-1][0] if stack else -1
                spans.append(None)
                frame = [index, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    if stack:
                        stack[-1][1] += end - start
                    spans[index] = (name, start, end, end - start - frame[1], parent, self.run_id)
                return result if on_result is None else on_result(result)

            return traced

        self._install(owner, attr, make)

    def _count_fft(self, owner, attr: str) -> None:
        def make(fn):
            def counted(u):
                out = fn(u)
                self.counts["spectral.fft.calls"] += 1
                self.counts["spectral.fft.bytes_computed"] += u.nbytes + out.nbytes
                return out

            return counted

        self._install(owner, attr, make)

    def _count_outcome(self, outcome):
        self.counts["relaxation.newton_iters"] += outcome.iterations
        self.counts["relaxation.converged"] += int(outcome.converged)
        return outcome

    def _count_written(self, paths):
        # Sizes include the runtime columns, whose printed width varies, so
        # they are measured per call rather than counted.
        self.written_bytes += sum(Path(p).stat().st_size for p in paths)
        return paths

    # -- per-call summaries -----------------------------------------------

    def start_run(self, run_id: int) -> None:
        """Tag the spans and counts that follow with ``run_id``."""
        self.run_id = run_id
        self.counts = Counter()
        self.written_bytes = 0

    def run_summary(self) -> tuple[dict, dict]:
        """(counts, measured) of the current run, keyed by per-layer metric name.

        Counts come from the spans and counters; measured holds seconds and
        the bytes written.
        """
        calls: Counter = Counter()
        measured: defaultdict = defaultdict(float)
        measured["harness.write_scenario.bytes"] = self.written_bytes
        for name, start, end, self_s, parent, rid in self.spans:
            if rid != self.run_id:
                continue
            calls[name] += 1
            measured[name + ".s"] += end - start
            measured[name + ".self_s"] += self_s
            if name == "splitting.integrate":
                under_solver = parent >= 0 and self.spans[parent][0] == "harness.run_method"
                key = "run_method_s" if under_solver else "reference_s"
                measured[f"splitting.integrate.{key}"] += end - start
        counts = {f"{name}.calls": n for name, n in calls.items()}
        counts.update(self.counts)
        return counts, dict(measured)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "self_s", "parent", "run")
        with path.open("w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **dict(zip(fields, span))}) + "\n")


# Per-layer metrics reported by a traced run, with units.  Counts repeat
# exactly from call to call; the others are medians over the traced calls.
LAYER_METRICS = (
    ("core.invariant_eval.calls", "count"),
    ("core.invariant_eval.self_s", "s"),
    ("core.exact_sum.calls", "count"),
    ("core.exact_sum.s", "s"),
    ("core.exact_dot.calls", "count"),
    ("core.exact_dot.s", "s"),
    ("spectral.solve_and_apply.calls", "count"),
    ("spectral.solve_and_apply.s", "s"),
    ("spectral.apply.calls", "count"),
    ("spectral.apply.s", "s"),
    ("spectral.flow.calls", "count"),
    ("spectral.flow.s", "s"),
    ("spectral.fft.calls", "count"),
    ("spectral.fft.bytes_computed", "B"),
    ("fem.assemble.s", "s"),
    ("fem.stage_factorize.calls", "count"),
    ("fem.stage_factorize.s", "s"),
    ("fem.stage_solve.calls", "count"),
    ("fem.stage_solve.s", "s"),
    ("fem.apply.calls", "count"),
    ("fem.apply.s", "s"),
    ("imexrk.imex_step.calls", "count"),
    ("imexrk.imex_step.self_s", "s"),
    ("relaxation.relax_multi.calls", "count"),
    ("relaxation.relax_multi.self_s", "s"),
    ("relaxation.relax_single.calls", "count"),
    ("relaxation.relax_single.self_s", "s"),
    ("relaxation.newton_iters", "count"),
    ("relaxation.converged_ratio", "ratio"),
    ("relaxation.accepted", "count"),
    ("relaxation.eps_rejections", "count"),
    ("relaxation.conservation_rejections", "count"),
    ("relaxation.accept_ratio", "ratio"),
    ("splitting.integrate.run_method_s", "s"),
    ("splitting.integrate.reference_s", "s"),
    ("oracles.reference.s", "s"),
    ("oracles.soliton_exact.calls", "count"),
    ("oracles.soliton_exact.s", "s"),
    ("oracles.sample_kept_ratio", "ratio"),
    ("harness.run_method.calls", "count"),
    ("harness.write_scenario.s", "s"),
    ("harness.write_scenario.bytes", "B"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: dict, measured_runs: list[dict], controller: dict,
                  error_rows: int, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run.

    ``counts`` come from one traced call; ``measured_runs`` holds the times
    and byte sizes of every traced call, of which the median is reported.
    ``controller`` and ``error_rows`` come from that call's written outputs.
    """
    counts = {**counts, **{f"relaxation.{k}": v for k, v in controller.items()}}
    relax_calls = counts.get("relaxation.relax_multi.calls", 0) + counts.get(
        "relaxation.relax_single.calls", 0
    )
    derived = {
        "relaxation.converged_ratio": _ratio(counts.get("relaxation.converged", 0), relax_calls),
        "relaxation.accept_ratio": _ratio(
            controller.get("accepted", 0), counts.get("imexrk.imex_step.calls", 0)
        ),
        "oracles.sample_kept_ratio": _ratio(
            error_rows, counts.get("oracles.soliton_exact.calls", 0)
        ),
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        elif unit == "count" or name in counts:
            value = counts.get(name, 0)
        else:
            value = statistics.median(run.get(name, 0) for run in measured_runs)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
