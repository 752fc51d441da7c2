"""In-memory span tracer installed around the corfd layers from outside.

Each wrapped function records a span (name, start, end, parent) and adds its
self time, the duration minus the time its child spans cover, to its layer.
Functions are wrapped where they are looked up, not where they are defined:
``corfd.estimators`` calls ``column_moments`` through its own module globals,
so the wrapper goes into ``corfd.estimators.column_moments``.  Oracles are
wrapped by replacing their ``sample`` field.  The wrappers call through
unchanged, so traced runs consume the random streams exactly as untraced
runs do.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict

LAYERS = ("oracle", "sampling", "bootstrap", "regression", "estimators", "dfo", "bench", "cli")

# Bytes a Monte Carlo bootstrap draw touches: an int32 index plus the
# float64 value it gathers.  Computed from array sizes, not measured.
BYTES_PER_RESAMPLE_DRAW = 12


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        # Open spans: [span index, time covered by its children so far].
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        """Open a span; the innermost open span is its parent."""
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append((name, time.perf_counter(), 0.0, parent))

    def end(self, layer: str) -> None:
        """Close the innermost span and charge its self time to ``layer``."""
        end = time.perf_counter()
        index, child_s = self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.total_s[name] += duration
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str, layer: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(args, kwargs, result)``
        updates counters after each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(layer)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, replacement) -> None:
        """Set ``module.attr``, remembering the original for :meth:`restore`."""
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def wrap_oracle(self, oracle):
        """The same oracle with every ``sample`` call traced and counted."""

        def count(args, kwargs, result):
            self.counts["oracle.draws"] += len(result)

        return dataclasses.replace(
            oracle, sample=self.span("oracle.sample", "oracle", oracle.sample, count)
        )

    def wrap_problem_factory(self, parse_problem):
        """``parse_problem`` returning problems whose oracle is traced."""

        @functools.wraps(parse_problem)
        def traced_parse(*args, **kwargs):
            problem = parse_problem(*args, **kwargs)
            return dataclasses.replace(problem, oracle=self.wrap_oracle(problem.oracle))

        return traced_parse

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, start and end relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the corfd package in ``tracer``'s spans."""
    import corfd.bench as bench
    import corfd.cli as cli
    import corfd.dfo as dfo
    import corfd.estimators as est
    import corfd.oracle as oracle

    c = tracer.counts

    # Lookup sites of the benchmark's own direct calls.
    tracer.patch(oracle, "parse_problem", tracer.wrap_problem_factory(oracle.parse_problem))
    tracer.patch(est, "cor_cfd", tracer.span("estimators.cor_cfd", "estimators", est.cor_cfd))
    tracer.patch(dfo, "corcfd_lbfgs", tracer.span("dfo.corcfd_lbfgs", "dfo", dfo.corcfd_lbfgs))

    # cli
    tracer.patch(cli, "main", tracer.span("cli.main", "cli", cli.main))
    tracer.patch(cli, "emit_csv", tracer.span("cli.emit_csv", "cli", cli.emit_csv))
    tracer.patch(cli, "parse_problem", tracer.wrap_problem_factory(cli.parse_problem))

    # bench
    def count_cells(args, kwargs, result):
        cfg = args[0]
        c["bench.cells"] += len(cfg.methods) * len(cfg.budgets)
        c["bench.cell_failures"] += len(result[2])

    tracer.patch(cli, "run_replications",
                 tracer.span("bench.run_replications", "bench", cli.run_replications, count_cells))
    tracer.patch(bench, "parse_problem", tracer.wrap_problem_factory(bench.parse_problem))
    tracer.patch(bench, "ProcessPoolExecutor", _traced_pool(tracer, bench.ProcessPoolExecutor))

    # estimators, looked up by bench and dfo
    for module in (bench, dfo):
        for name in ("tra_cfd", "opt_cfd", "boot_cfd", "cor_cfd"):
            if hasattr(module, name):
                fn = getattr(module, name)
                tracer.patch(module, name, tracer.span("estimators." + name, "estimators", fn))

    # sampling, regression and bootstrap, looked up by estimators
    tracer.patch(est, "difference_samples",
                 tracer.span("sampling.difference_samples", "sampling", est.difference_samples))
    tracer.patch(est, "draw_perturbation_set",
                 tracer.span("sampling.draw_perturbation_set", "sampling", est.draw_perturbation_set))
    for name in ("fit_bias_wls", "fit_var_wls", "clamp_bias_constant", "clamp_floor"):
        tracer.patch(est, name, tracer.span("regression." + name, "regression", getattr(est, name)))

    def count_bootstrap(args, kwargs, result):
        pilot, mode, reps = args[0], args[1], args[2]
        columns, n_b = pilot.shape
        c["bootstrap.columns"] += columns
        if mode == "mc":
            draws = reps * n_b * columns
            c["bootstrap.resample_draws"] += draws
            c["bootstrap.bytes_computed"] += BYTES_PER_RESAMPLE_DRAW * draws

    tracer.patch(est, "column_moments",
                 tracer.span("bootstrap.column_moments", "bootstrap", est.column_moments, count_bootstrap))

    # dfo internals, looked up by corcfd_lbfgs
    def count_search(args, kwargs, result):
        c["dfo.ls_evals"] += result.evals
        c["dfo.ls_gave_up"] += result.gave_up

    tracer.patch(dfo, "stochastic_armijo",
                 tracer.span("dfo.stochastic_armijo", "dfo", dfo.stochastic_armijo, count_search))
    tracer.patch(dfo, "two_loop_direction",
                 tracer.span("dfo.two_loop_direction", "dfo", dfo.two_loop_direction))
    tracer.patch(dfo, "gradient_via_corcfd",
                 tracer.span("dfo.gradient_via_corcfd", "dfo", dfo.gradient_via_corcfd))
    tracer.patch(dfo, "LbfgsMemory", _counting_memory(tracer, dfo.LbfgsMemory))


def _traced_pool(tracer: Tracer, pool_cls):
    """Pool class whose lifetime, from creation to completed shutdown, is a span."""

    class TracedPool(pool_cls):
        def __init__(self, *args, **kwargs):
            tracer.counts["bench.pools"] += 1
            tracer.begin("bench.pool")
            self._span_open = True
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._span_open:
                self._span_open = False
                tracer.end("bench")

    return TracedPool


def _counting_memory(tracer: Tracer, memory_cls):
    """L-BFGS memory that counts stored and rejected curvature pairs."""

    class CountingMemory(memory_cls):
        def push(self, s, y):
            stored = super().push(s, y)
            tracer.counts["dfo.pushes"] += 1
            tracer.counts["dfo.curvature_rejects"] += not stored
            return stored

    return CountingMemory
