"""The benchmark's four workloads: their session specs and drivers.

A workload is a fixed *shape* of tuning work built only from the public
API (``SessionSpec.build(seed).run()``, ``run_wave``, ``SessionServer``).
The session seeds come from the benchmark's own argument; the program
sees nothing but the generated specs.  The run's ``--seed`` only permutes
the order in which sessions, wave members and tenants are started.  Every
trajectory is independent of that order (the program's determinism
contract), so the trajectory digest must not change with ``--seed`` —
the benchmark checks the contract as a side effect.

A shape is split into *units* (one session for the sequential
workloads, one whole wave or one whole server pass for the others); the
timed phase cycles through the units until the time is up and every
unit has run at least once.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dbms import V96, V136
from repro.dbms.errors import DbmsCrashError
from repro.optimizers.base import Optimizer
from repro.tuning import (
    SessionServer,
    SessionSpec,
    llamatune_factory,
    run_spec,
)
from repro.tuning import wave
from repro.tuning.session import TuningResult

from tracing import SESSION, Patch

PAPER_WORKLOADS = (
    "ycsb-a", "ycsb-b", "tpcc", "seats", "twitter", "resourcestresser",
)

DEFAULT_SESSION_SEEDS: dict[str, tuple[int, ...]] = {
    "smac-seq": (1, 2),
    "gpbo-seq": (1,),
    "sweep-wave": (1, 2, 3, 4, 5, 6, 7, 8),
    "serve-churn": (1,),
}


@dataclass(frozen=True)
class Task:
    """One session of a shape: a name, the spec the program gets, a seed."""

    name: str
    spec: SessionSpec
    seed: int


def make_tasks(workload: str, seeds, scratch: str) -> list[Task]:
    """The workload's sessions in canonical (digest) order.  ``scratch``
    is a directory for checkpoints."""
    if workload == "smac-seq":
        return [
            Task(f"{name}-s{seed}", SessionSpec(
                workload=name, optimizer="smac", adapter=llamatune_factory(),
                version=V96, n_iterations=100,
            ), seed)
            for name in PAPER_WORKLOADS for seed in seeds
        ]
    if workload == "gpbo-seq":
        return [
            Task(f"{name}-s{seed}", SessionSpec(
                workload=name, optimizer="gp-bo", adapter=llamatune_factory(),
                version=V96, n_iterations=100,
                optimizer_kwargs=(("refit_every", 5),),
            ), seed)
            for name in PAPER_WORKLOADS for seed in seeds
        ]
    if workload == "sweep-wave":
        spec = SessionSpec(
            workload="tpcc", optimizer="smac", adapter=llamatune_factory(),
            version=V136, n_iterations=100, wave_threads=1,
            checkpoint_every=25, checkpoint_dir=f"{scratch}/sweep",
        )
        return [Task(f"tpcc-13.6-s{seed}", spec, seed) for seed in seeds]
    if workload == "serve-churn":
        return [
            Task(f"{name}-{version.name}-d{dim}-s{seed}", SessionSpec(
                workload=name, optimizer="smac",
                adapter=llamatune_factory(target_dim=dim),
                version=version, n_iterations=60,
            ), seed)
            for name in PAPER_WORKLOADS
            for version in (V96, V136)
            for dim in (8, 16)
            for seed in seeds
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_order(tasks: list[Task], seed: int) -> list[Task]:
    """The run's start order: a permutation drawn from ``--seed``."""
    return random.Random(seed).sample(tasks, len(tasks))


class _Timed:
    """Wraps a callable: ticks the gauge before each call, and appends
    the call's time, scaled by the gauge, to ``sink``."""

    def __init__(self, fn: Callable, sink: list[float], gauge):
        self._fn, self._sink, self._gauge = fn, sink, gauge

    def __call__(self, *args, **kwargs):
        self._gauge.tick()
        mark = self._gauge.mark()
        try:
            return self._fn(*args, **kwargs)
        finally:
            self._sink.append(self._gauge.since(mark))


def wave_round_timer(sink: list[float], gauge) -> Patch:
    """Times each wave round's suggestion phase: from the round's first
    ``suggest_prepare`` to the end of its ``score_rounds`` call, i.e.
    how long the wave loop waits for the round's configurations, in the
    gauge's scaled time.  The gauge ticks before every member's
    prepare."""
    started: list = []

    def time_prepare(prepare):
        def timed(optimizer, *args, **kwargs):
            gauge.tick()
            if not started:
                started.append(gauge.mark())
            return prepare(optimizer, *args, **kwargs)
        return timed

    def time_score(score):
        def timed(*args, **kwargs):
            try:
                return score(*args, **kwargs)
            finally:
                sink.append(gauge.since(started.pop()))
        return timed

    patch = Patch()
    patch.wrap(Optimizer, "suggest_prepare", time_prepare)
    patch.wrap(wave, "score_rounds", time_score)
    return patch


@dataclass
class UnitOutcome:
    """What one unit produced: results by task name, and the iterations
    completed (observations fed back, crashes included)."""

    results: dict[str, TuningResult]
    iterations: int


class Driver:
    """Runs the units of one workload, collecting suggest latencies.

    The untraced phase ticks :attr:`gauge` between the program's calls
    (see ``gauge.py``); every latency leaves its slices out.

    The traced run sets :attr:`tracer` and clears :attr:`gauge`: the
    root calls the benchmark makes itself (a wave, a server pass) then
    run inside its spans, and the wave round timer stays off, so that
    only the tracer's wrappers sit on the program.  A sequential
    session's root is the traced ``TuningSession.run`` binding.
    """

    def __init__(self, workload: str, tasks: list[Task], order_seed: int,
                 scratch: str, gauge):
        self.workload = workload
        self.ordered = run_order(tasks, order_seed)
        self.scratch = scratch
        self.latencies: list[float] = []
        self.gauge = gauge
        self.tracer = None

    def units(self) -> list[tuple[Callable[[], UnitOutcome], list[Task]]]:
        """``(run, tasks)`` per unit, in run order."""
        if self.workload in ("smac-seq", "gpbo-seq"):
            return [(lambda t=task: self._sequential(t), [task])
                    for task in self.ordered]
        if self.workload == "sweep-wave":
            return [(self._sweep, self.ordered)]
        return [(self._serve, self.ordered)]

    def _root(self, op: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(op, fn, *args, **kwargs)

    def _sequential(self, task: Task) -> UnitOutcome:
        token = SESSION.set(task.name)
        try:
            session = task.spec.build(task.seed)
            if self.gauge is not None:
                # Instance attribute: only the session's own calls are timed.
                session.optimizer.suggest = _Timed(
                    session.optimizer.suggest, self.latencies, self.gauge
                )
            result = session.run()
        finally:
            SESSION.reset(token)
        return UnitOutcome({task.name: result}, len(result.values))

    def _sweep(self) -> UnitOutcome:
        spec = self.ordered[0].spec
        seeds = [task.seed for task in self.ordered]
        token = SESSION.set("wave")
        try:
            with (nullcontext() if self.gauge is None
                  else wave_round_timer(self.latencies, self.gauge)):
                results = self._root(
                    "tuning.run_wave", wave.run_wave, spec, seeds, threads=1,
                )
        finally:
            SESSION.reset(token)
        by_name = {t.name: r for t, r in zip(self.ordered, results)}
        return UnitOutcome(by_name, sum(len(r.values) for r in results))

    def _serve(self) -> UnitOutcome:
        token = SESSION.set("serve")
        try:
            results = self._root(
                "tuning.tenant_loop", asyncio.run, self._serve_pass()
            )
        finally:
            SESSION.reset(token)
        return UnitOutcome(results, sum(len(r.values) for r in results.values()))

    async def _serve_pass(self) -> dict[str, TuningResult]:
        server, keys = await open_tenants(self.ordered, self.scratch)
        results: dict[str, TuningResult] = {}
        try:
            await asyncio.gather(*(
                self._tenant(server, index, task, keys[task.name], results)
                for index, task in enumerate(self.ordered)
            ))
        finally:
            await server.shutdown(checkpoint=False)
        return results

    async def _tenant(self, server, index, task, key, results) -> None:
        """A closed-loop tenant: suggest, evaluate its own suggestion with
        its session's simulator and noise stream, observe; disconnect
        once at mid-budget and resume from the checkpoint."""
        SESSION.set(task.name)
        session = server.session(key)
        churn_at = task.spec.n_iterations // 2
        while session.live:
            if session.iteration == churn_at:
                await server.close(key)  # writes the checkpoint
                key = await server.open(
                    tenant_id(index),
                    dataclasses.replace(task.spec, resume=True), task.seed,
                )
                session = server.session(key)
                churn_at = -1
            if self.gauge is None:
                config = await server.suggest(key)
            else:
                # The other tenants tick while this one waits.
                self.gauge.tick()
                mark = self.gauge.mark()
                config = await server.suggest(key)
                self.latencies.append(self.gauge.since(mark))
            try:
                outcome = session.simulator.evaluate(config, rng=session.rng)
            except DbmsCrashError:
                await server.observe(key, crashed=True)
            else:
                await server.observe(key, measurement=outcome)
        results[task.name] = await server.close(key, checkpoint=False)


def tenant_id(index: int) -> str:
    return f"tenant-{index:02d}"


async def open_tenants(ordered: list[Task], scratch: str):
    """Start a server and open every tenant: the serve-churn set-up.

    The gather window is 0: the batcher then takes whatever is queued
    when it next runs, and since every tenant is a closed loop on one
    event loop with no timers, each wave holds every live tenant no
    matter how fast the host is.
    """
    server = SessionServer(
        checkpoint_root=f"{scratch}/serve", gather_window=0.0, wave_threads=1
    )
    # The batcher task copies this context, so its spans read "batcher".
    token = SESSION.set("batcher")
    try:
        await server.start()
    finally:
        SESSION.reset(token)
    keys = {}
    for index, task in enumerate(ordered):
        keys[task.name] = await server.open(tenant_id(index), task.spec,
                                            task.seed)
    return server, keys


def set_up(workload: str, tasks: list[Task], order_seed: int,
           scratch: str) -> None:
    """Build and start every session of the workload, as its first unit
    would: the work ``setup_s`` measures."""
    ordered = run_order(tasks, order_seed)
    if workload == "serve-churn":
        async def go():
            server, _keys = await open_tenants(ordered, scratch)
            await server.shutdown(checkpoint=False)
        asyncio.run(go())
        return
    for task in ordered:
        task.spec.build(task.seed).start()


def trajectory_digest(tasks: list[Task],
                      results: dict[str, TuningResult]) -> str:
    """sha256 over every session's observed values, in canonical order."""
    digest = hashlib.sha256()
    for task in tasks:
        values = np.ascontiguousarray(results[task.name].values,
                                      dtype=np.float64)
        digest.update(task.name.encode())
        digest.update(values.tobytes())
    return digest.hexdigest()


def same_trajectory(a: TuningResult, b: TuningResult) -> bool:
    return (
        np.array_equal(a.values, b.values)
        and [o.crashed for o in a.knowledge_base]
        == [o.crashed for o in b.knowledge_base]
    )


def solo_result(task: Task) -> TuningResult:
    """The task's trajectory from a plain sequential ``run_spec`` run
    (checkpointing off: it does not change the trajectory)."""
    spec = dataclasses.replace(task.spec, checkpoint_every=0,
                               checkpoint_dir=None)
    return run_spec(spec, [task.seed])[0]
