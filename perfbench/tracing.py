"""Outside-in layer trace for the benchmark.

Every traced operation is a public function or method of the program,
wrapped *where its callers look it up*: a method on its class, a
function on the module that imported it.  ``expected_improvement``, for
example, is bound twice — in ``repro.optimizers.base`` and in
``repro.tuning.wave`` — and both bindings are wrapped under one name.

Synchronous spans nest on one call stack (the benchmark runs one thread,
and a synchronous call never spans an ``await``), so a span's self time
is its duration minus its children's.  The asynchronous
``SessionServer.suggest`` is recorded on a side list: it overlaps other
tenants' work, so it reports latency and stays out of the self-time
accounting.  Spans live in memory and are written out after the run.
"""

from __future__ import annotations

import bisect
import contextvars
import json
import math
import os
import pathlib
import statistics
import time

#: Which session (or driver) a span ran for; set by the workload drivers.
SESSION: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_session", default=None
)

#: Spans whose subtree is accounted: layer self times plus the root's own
#: self time (``trace.unattributed_pct``) add up to the root's duration.
ROOTS = ("tuning.session_run", "tuning.run_wave", "tuning.tenant_loop")

#: Batch operations that also report rows.
ROW_OPS = (
    "optimizers.forest_predict",
    "optimizers.forest_predict_stacked",
    "optimizers.gp_predict",
    "optimizers.ei",
    "optimizers.init_batch",
    "optimizers.decode_batch",
    "space.to_unit_array",
    "space.from_unit_array",
    "core.to_target_batch",
    "dbms.evaluate_batch",
    "dbms.evaluate_batch_stacked",
)


def _rows_arg0(args, result):
    return len(args[0])


def _rows_arg1(args, result):
    return len(args[1])


def _rows_result(args, result):
    return len(result)


def _crashed_rows(args, result):
    return sum(row is None for row in result)


def _q(args, result):
    return result.q


def _scorable(args, result):
    return 0 if result.resolved else result.q


def _file_bytes(path) -> int:
    return os.stat(path).st_size


def _bytes_written(args, result):
    return _file_bytes(result)


def _bytes_read(args, result):
    return _file_bytes(args[1])


def bindings() -> list[tuple]:
    """``(op, owner, attribute, rows, extra)`` for every traced binding.

    ``rows(args, result)`` counts a batch op's rows; ``extra(args,
    result)`` is op-specific: crashed rows for evaluation, bytes for
    checkpoint I/O, model-bound suggestions for ``prepare``.
    """
    from repro.core.pipeline import LlamaTuneAdapter
    from repro.dbms.engine import PostgresSimulator
    from repro.optimizers import base, encoding, forest, gp
    from repro.space.configspace import ConfigurationSpace
    from repro.tuning import knowledge_base, runner, session, server, wave

    forest_cls, gp_cls, opt = (
        forest.RandomForestRegressor, gp.GaussianProcess, base.Optimizer,
    )
    return [
        ("optimizers.forest_fit", forest_cls, "fit", None, None),
        ("optimizers.forest_predict", forest_cls, "predict_mean_var",
         _rows_arg1, None),
        ("optimizers.forest_predict_stacked", wave,
         "predict_mean_var_stacked", _rows_arg1, None),
        ("optimizers.gp_fit", gp_cls, "fit", None, None),
        ("optimizers.gp_update", gp_cls, "update", None, None),
        ("optimizers.gp_predict", gp_cls, "predict_mean_var",
         _rows_arg1, None),
        ("optimizers.prepare", opt, "suggest_prepare", _q, _scorable),
        ("optimizers.ei", base, "expected_improvement", _rows_arg0, None),
        ("optimizers.ei", wave, "expected_improvement", _rows_arg0, None),
        ("optimizers.select", opt, "suggest_select", None, None),
        ("optimizers.observe", opt, "observe", None, None),
        ("optimizers.init_batch", opt, "suggest_init_batch",
         _rows_result, None),
        ("optimizers.decode_batch", encoding.SpaceEncoding, "decode_batch",
         _rows_arg1, None),
        ("space.to_unit_array", ConfigurationSpace, "to_unit_array",
         _rows_arg1, None),
        ("space.from_unit_array", ConfigurationSpace, "from_unit_array",
         _rows_arg1, None),
        ("core.to_target", LlamaTuneAdapter, "to_target", None, None),
        ("core.to_target_batch", LlamaTuneAdapter, "to_target_batch",
         _rows_arg1, None),
        ("core.adapter_init", LlamaTuneAdapter, "__init__", None, None),
        ("dbms.evaluate", PostgresSimulator, "evaluate", None, None),
        ("dbms.evaluate_batch", PostgresSimulator, "evaluate_batch",
         _rows_arg1, _crashed_rows),
        ("dbms.evaluate_batch_stacked", PostgresSimulator,
         "evaluate_batch_stacked", _rows_arg1, _crashed_rows),
        ("dbms.default_measurement", PostgresSimulator,
         "default_measurement", None, None),
        ("tuning.session_run", session.TuningSession, "run", None, None),
        ("tuning.score_rounds", wave, "score_rounds", _rows_arg0, None),
        ("tuning.score_rounds", server, "score_rounds", _rows_arg0, None),
        ("tuning.kb_record", knowledge_base.KnowledgeBase, "record",
         None, None),
        ("tuning.checkpoint", session.TuningSession, "checkpoint",
         None, _bytes_written),
        ("tuning.load_checkpoint", session.TuningSession, "load_checkpoint",
         None, _bytes_read),
        ("tuning.spec_build", runner.SessionSpec, "build", None, None),
        ("workloads.get_workload", runner, "get_workload", None, None),
    ]


#: Operations with no binding of their own: the roots the drivers open
#: themselves, and the two server metrics derived from async spans.
DERIVED_OPS = (
    "tuning.run_wave",
    "tuning.tenant_loop",
    "tuning.server_suggest",
    "tuning.server_wait",
)


def op_names() -> list[str]:
    names = list(dict.fromkeys(op for op, *_ in bindings()))
    return names + list(DERIVED_OPS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for op in op_names():
        units[f"{op}.calls"] = "count"
        units[f"{op}.ms"] = "ms"
        units[f"{op}.p50_ms"] = "ms"
        if op in ROW_OPS:
            units[f"{op}.rows"] = "count"
    units["tuning.score_rounds.rounds"] = "count"
    units["tuning.checkpoint.bytes"] = "B"
    units["tuning.load_checkpoint.bytes"] = "B"
    units["dbms.crash_rows"] = "count"
    units["dbms.crash_pct"] = "%"
    units["tuning.wave_size.mean"] = "rounds"
    units["optimizers.model_round_pct"] = "%"
    units["trace.unattributed_pct"] = "%"
    units["trace.overhead_pct"] = "%"
    return units


class Patch:
    """Replaces attributes and puts the originals back on exit (use as a
    context manager).  Every wrapper the benchmark installs on the
    program goes through one of these."""

    def __init__(self):
        self._saved: list[tuple] = []

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr, make_wrapper) -> None:
        """Set ``owner.attr`` to ``make_wrapper(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))


class Tracer:
    """Installs span-recording wrappers on every binding, then removes
    them (use as a context manager).  Spans are tuples
    ``(op, start, end, parent, session, rows, extra)``; ``parent`` is an
    index into :attr:`spans` or ``-1``."""

    def __init__(self):
        self.spans: list = []
        self.async_spans: list = []
        self._stack: list[int] = []
        self._patch = Patch()

    def __enter__(self) -> "Tracer":
        from repro.tuning.server import SessionServer

        for op, owner, attr, rows, extra in bindings():
            self._patch.wrap(owner, attr, lambda fn, op=op, rows=rows,
                             extra=extra: self._sync(op, fn, rows, extra))
        self._patch.wrap(SessionServer, "suggest", lambda fn: self._async(
            "tuning.server_suggest", fn))
        return self

    def __exit__(self, *exc) -> None:
        self._patch.__exit__(*exc)

    def span(self, op: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span the caller names (the roots)."""
        return self._sync(op, fn, None, None)(*args, **kwargs)

    def _sync(self, op, fn, rows, extra):
        from repro.dbms.errors import DbmsCrashError

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, returned, crashed = None, False, 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            except DbmsCrashError:
                # The one-row path signals a crashing configuration by
                # raising; the session turns it into the paper's penalty.
                crashed = 1
                raise
            finally:
                end = clock()
                stack.pop()
                count = rows(args, result) if rows and returned else 0
                more = extra(args, result) if extra and returned else crashed
                spans[index] = (op, start, end, parent, SESSION.get(),
                                count, more)

        return traced

    def _async(self, op, fn):
        spans, clock = self.async_spans, time.perf_counter

        async def traced(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append((op, start, clock(), SESSION.get()))

        return traced

    def write(self, path: pathlib.Path) -> None:
        """Dump every span as JSON (one list per kind)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["op", "start", "end", "parent", "session", "rows",
                       "extra"],
            "spans": self.spans,
            "async_fields": ["op", "start", "end", "session"],
            "async_spans": self.async_spans,
        }))


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare
    no-op, the fastest of ``repeats`` rounds of ``calls`` calls, on a
    tracer of its own."""
    def noop(*args, **kwargs):
        return None

    scratch = Tracer()
    wrapped = scratch._sync("calibrate", noop, None, None)
    clock = time.perf_counter
    best_bare = best_wrapped = math.inf
    for _ in range(repeats):
        scratch.spans.clear()
        start = clock()
        for _ in range(calls):
            noop(None)
        best_bare = min(best_bare, clock() - start)
        start = clock()
        for _ in range(calls):
            wrapped(None)
        best_wrapped = min(best_wrapped, clock() - start)
    return max(best_wrapped - best_bare, 0.0) / calls


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


#: Share of the traced pass's wall time that the top-level spans may
#: leave uncovered: the benchmark's own checks between units.
UNCOVERED_LIMIT = 0.02


def analyse(tracer: Tracer, pass_seconds: float
            ) -> tuple[dict[str, float], dict[str, object]]:
    """Per-layer metrics plus the accounting check.

    ``pass_seconds`` is the traced pass's wall time, measured by the
    caller around the whole pass.  The top-level spans (the roots, and
    for the sequential workloads ``SessionSpec.build`` and whatever else
    runs outside a session) must cover it to within
    :data:`UNCOVERED_LIMIT` and must not exceed it; ``accounting["ok"]``
    is False otherwise.  That the layer self times and the unattributed
    remainder add up to the roots holds by construction (self time is
    duration minus children), so it is asserted, not reported.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    root_of = [-1] * len(spans)
    for index, (op, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root_of[index] = root_of[parent]
        elif op in ROOTS:
            root_of[index] = index
    self_times = [
        (span[2] - span[1]) - child_time[index]
        for index, span in enumerate(spans)
    ]

    by_op: dict[str, list[int]] = {op: [] for op in op_names()}
    for index, span in enumerate(spans):
        by_op[span[0]].append(index)

    metrics: dict[str, float] = {}
    for op, indices in by_op.items():
        if op in ("tuning.server_suggest", "tuning.server_wait"):
            continue
        selfs = [self_times[i] for i in indices]
        metrics[f"{op}.calls"] = len(indices)
        metrics[f"{op}.ms"] = sum(selfs) * 1e3
        metrics[f"{op}.p50_ms"] = _median(selfs) * 1e3
        if op in ROW_OPS:
            metrics[f"{op}.rows"] = sum(spans[i][5] for i in indices)
    rounds = sum(spans[i][5] for i in by_op["tuning.score_rounds"])
    metrics["tuning.score_rounds.rounds"] = rounds
    metrics["tuning.checkpoint.bytes"] = sum(
        spans[i][6] for i in by_op["tuning.checkpoint"]
    )
    metrics["tuning.load_checkpoint.bytes"] = sum(
        spans[i][6] for i in by_op["tuning.load_checkpoint"]
    )
    crash_rows = sum(
        spans[i][6]
        for op in ("dbms.evaluate", "dbms.evaluate_batch",
                   "dbms.evaluate_batch_stacked")
        for i in by_op[op]
    )
    rows_evaluated = (
        metrics["dbms.evaluate.calls"]
        + metrics["dbms.evaluate_batch.rows"]
        + metrics["dbms.evaluate_batch_stacked.rows"]
    )
    metrics["dbms.crash_rows"] = crash_rows
    metrics["dbms.crash_pct"] = (
        100.0 * crash_rows / rows_evaluated if rows_evaluated else 0.0
    )
    score_calls = metrics["tuning.score_rounds.calls"]
    metrics["tuning.wave_size.mean"] = rounds / score_calls if score_calls else 0.0
    prepares = by_op["optimizers.prepare"]
    suggested = metrics["optimizers.init_batch.rows"] + sum(
        spans[i][5] for i in prepares
    )
    model_bound = sum(spans[i][6] for i in prepares)
    metrics["optimizers.model_round_pct"] = (
        100.0 * model_bound / suggested if suggested else 0.0
    )
    metrics.update(_server_metrics(tracer))

    top = [i for i, span in enumerate(spans) if span[3] == -1]
    root_indices = [i for i in top if spans[i][0] in ROOTS]
    root_total = sum(spans[i][2] - spans[i][1] for i in root_indices)
    top_total = sum(spans[i][2] - spans[i][1] for i in top)
    unattributed = sum(self_times[i] for i in root_indices)
    layered = sum(
        self_times[i] for i in range(len(spans))
        if root_of[i] >= 0 and root_of[i] != i
    )
    assert abs(layered + unattributed - root_total) <= 1e-6 * root_total
    assert not self_times or min(self_times) > -1e-6
    metrics["trace.unattributed_pct"] = (
        100.0 * unattributed / root_total if root_total else 0.0
    )
    cost = span_cost() * (len(spans) + len(tracer.async_spans))
    metrics["trace.overhead_pct"] = 100.0 * cost / pass_seconds
    uncovered = pass_seconds - top_total
    accounting = {
        "pass_s": pass_seconds,
        "top_level_s": top_total,
        "root_s": root_total,
        "outside_roots_s": top_total - root_total,
        "layer_self_s": layered,
        "unattributed_s": unattributed,
        "uncovered_s": uncovered,
        "ok": bool(
            root_total > 0
            and 0.0 <= uncovered <= UNCOVERED_LIMIT * pass_seconds
        ),
    }
    return metrics, accounting


def _server_metrics(tracer: Tracer) -> dict[str, float]:
    """``server_suggest`` (tenant-side latency) and ``server_wait`` (that
    latency minus the work of the wave that served it)."""
    latencies = [end - start for _op, start, end, _s in tracer.async_spans]
    metrics = {
        "tuning.server_suggest.calls": len(latencies),
        "tuning.server_suggest.ms": sum(latencies) * 1e3,
        "tuning.server_suggest.p50_ms": _median(latencies) * 1e3,
    }
    waves = _batcher_waves(tracer.spans)
    ends = [end for _start, end in waves]
    waits = []
    for _op, start, end, _session in tracer.async_spans:
        # The serving wave is the last one to finish before the reply.
        k = _last_at_or_before(ends, end)
        work = waves[k][1] - waves[k][0] if k >= 0 else 0.0
        waits.append((end - start) - work)
    metrics["tuning.server_wait.calls"] = len(waits)
    metrics["tuning.server_wait.ms"] = sum(waits) * 1e3
    metrics["tuning.server_wait.p50_ms"] = _median(waits) * 1e3
    return metrics


def _batcher_waves(spans) -> list[tuple[float, float]]:
    """``(start, end)`` of each server wave: the batcher's top-level spans
    run as ``prepare``× n, one ``score_rounds``, ``to_target``× n."""
    waves: list[list[float]] = []
    after_score = True
    for op, start, end, parent, session, *_rest in spans:
        if session != "batcher" or (
            parent >= 0 and spans[parent][4] == "batcher"
        ):
            continue
        if op == "optimizers.prepare" and after_score:
            waves.append([start, end])
            after_score = False
        elif waves:
            waves[-1][1] = end
            if op == "tuning.score_rounds":
                after_score = True
    return [(start, end) for start, end in waves]


def _last_at_or_before(sorted_values: list[float], value: float) -> int:
    return bisect.bisect_right(sorted_values, value) - 1
