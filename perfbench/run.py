"""Benchmark of the LlamaTune reproduction: four tuning workloads.

    python3 perfbench/run.py --workload smac-seq --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see NOTES.md for why each
one exists): ``smac-seq``, ``gpbo-seq``, ``sweep-wave``, ``serve-churn``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced phase, then one traced pass of the workload's shape, and prints
the per-layer metrics.  The end-to-end timings are scaled by the
host-speed gauge (``gauge.py``), whose reference slices run between the
program's calls and are left out of every measured time.  Either way
the last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it name every metric with its
unit and sample count, record the host, and print the trajectory
digest.  The exit code is non-zero when
an output check or the path guard fails (the forest kernel must load
and no ``REPRO_*`` toggle may be set).
"""

import os

# One BLAS thread: pinned before numpy loads, for every workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("smac-seq", "gpbo-seq", "sweep-wave", "serve-churn")

#: Set-up samples per burst.  A burst is taken before the timed phase
#: and after each of its passes.
SETUP_BURST = 4

#: ``setup_s`` is the median over the samples of set-up time ÷ the time
#: of ``probe.reference`` in the same child, times this: set-up seconds
#: on a host that runs the reference block in 0.1 s.  The host's slow
#: spells, which last from seconds to longer than a run, slow both
#: alike, so the ratio holds steady where raw seconds do not.
REFERENCE_SECONDS = 0.1

#: Suggest latencies the timed phase collects at least: p90 then has ten
#: samples beyond it.
MIN_LATENCIES = 100


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="permutes the start order of sessions")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--session-seeds", default=None,
        help="comma-separated session seeds (default: the workload's own, "
             "see shapes.DEFAULT_SESSION_SEEDS)",
    )
    return parser.parse_args(argv)


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def host_record() -> dict:
    import numpy
    import scipy

    from repro.optimizers._forest_kernel import kernel_available

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
        "kernel_available": kernel_available(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def warm_up() -> None:
    """Fill the bytecode caches and the forest kernel's compile cache, so
    neither the set-up probes nor the timed phase pays a first-time cost."""
    for directory in (ROOT / "src" / "repro", BENCH):
        compileall.compile_dir(str(directory), quiet=1)
    from repro.optimizers._forest_kernel import kernel_available

    kernel_available()


class SetupProbe:
    """The ``setup_s`` sampler: a ``probe.py`` process that forks one
    child per sample.  Samples are taken in bursts spread over the run,
    so that they span the host's slow and fast spells, as the timed
    phase does."""

    def __init__(self, args, seeds, scratch):
        self.samples: list[tuple[float, float]] = []
        self._process = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--session-seeds", ",".join(map(str, seeds)),
             "--scratch", scratch],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def burst(self) -> None:
        for _ in range(SETUP_BURST):
            self._process.stdin.write("sample\n")
            self._process.stdin.flush()
            line = self._process.stdout.readline()
            if not line:
                raise RuntimeError("set-up probe failed")
            setup, reference = map(float, line.split())
            self.samples.append((setup, reference))

    def setup_s(self) -> float:
        return REFERENCE_SECONDS * statistics.median(
            setup / reference for setup, reference in self.samples
        )

    def close(self) -> None:
        if self._process.poll() is None:
            self._process.stdin.close()
            try:
                self._process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._process.stdout.close()


class Checks:
    """Output checks of one run, and its operation counts: each
    iteration of a session's budget is one suggest and one observe."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"CHECK-FAILED {message}", file=sys.stderr)

    def unit_failed(self, tasks, exc: BaseException) -> None:
        budget = sum(t.spec.n_iterations for t in tasks)
        self.attempted += 2 * budget
        self.failed += 2 * budget
        self.problem(f"unit {[t.name for t in tasks]} raised {exc!r}")

    def session(self, task, result) -> None:
        """Budget reached, no early stop or quarantine, finite values."""
        budget = task.spec.n_iterations
        values = result.values
        finite = int(sum(math.isfinite(v) for v in values))
        self.attempted += 2 * budget
        self.failed += 2 * (budget - finite)
        if finite != budget or len(values) != budget:
            self.problem(f"{task.name}: {finite} finite values of {budget}")
        if result.quarantined_at is not None:
            self.problem(f"{task.name}: quarantined at {result.quarantined_at}")
        if result.stopped_early_at is not None:
            self.problem(f"{task.name}: stopped at {result.stopped_early_at}")
        if not (math.isfinite(result.default_value) and result.default_value > 0):
            self.problem(f"{task.name}: default value {result.default_value}")

    @property
    def ok(self) -> bool:
        return not self.problems


def run_units(units, checks, first, seconds=None, latencies=(),
              between=None, gauge=None):
    """Run whole passes over the units: one pass, or, given ``seconds``,
    passes until the next one would end more than half a pass late and
    ``latencies`` holds enough samples for a p90 (ten beyond it).  Each
    session is checked, and compared with its first trajectory.
    ``between()`` runs after each pass, outside the measured time, and
    so do the ``gauge``'s slices.  Returns ``(iterations, elapsed
    seconds, peak RSS in MB when the first pass ended)``: later passes
    may raise the high-water mark, and how many there are depends on the
    host's speed."""
    import shapes

    iterations = 0
    passes = 0
    rss_mb = 0.0
    paused = 0.0
    ticked = gauge.paused if gauge is not None else 0.0
    started = time.perf_counter()

    def measured() -> float:
        slices = gauge.paused - ticked if gauge is not None else 0.0
        return time.perf_counter() - started - paused - slices

    while True:
        for unit, tasks in units:
            try:
                outcome = unit()
            except Exception as exc:  # a failed unit is reported, not fatal
                traceback.print_exc()
                checks.unit_failed(tasks, exc)
                return iterations, measured(), rss_mb
            iterations += outcome.iterations
            for task in tasks:
                result = outcome.results[task.name]
                checks.session(task, result)
                if task.name not in first:
                    first[task.name] = result
                elif not shapes.same_trajectory(first[task.name], result):
                    checks.problem(f"{task.name}: trajectory changed on repeat")
        passes += 1
        # The run's length counts the slices; the measured time does not.
        wall = time.perf_counter() - started - paused
        elapsed = measured()
        if passes == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if between is not None:
            mark = time.perf_counter()
            between()
            paused += time.perf_counter() - mark
        if seconds is None or (
            wall * (1 + 0.5 / passes) >= seconds
            and len(latencies) >= MIN_LATENCIES
        ):
            return iterations, elapsed, rss_mb


def end_to_end(tasks, first, latencies, rate, probe, rss_mb) -> dict:
    """The end-to-end metrics; ``rate`` and ``latencies`` (seconds) are
    already scaled to the gauge's reference host."""
    gains, reach = [], []
    for task in tasks:
        result = first[task.name]
        default = result.default_value
        gains.append(100.0 * (result.best_value / default - 1.0))
        improvement = result.best_curve - default
        final = improvement[-1]
        if final > 0:
            reach.append(int((improvement >= 0.9 * final).argmax()) + 1)
        else:
            reach.append(len(improvement))
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "iters_per_s": (rate, "1/s", None),
        "suggest_ms.p50": (statistics.median(latencies) * 1e3, "ms",
                           len(latencies)),
        "suggest_ms.p90": (deciles[8] * 1e3, "ms", len(latencies)),
        "best_gain_pct": (statistics.fmean(gains), "%", len(gains)),
        "iters_to_90pct": (statistics.fmean(reach), "iter", len(reach)),
        "setup_s": (probe.setup_s(), "s", len(probe.samples)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program source under {ROOT / 'src'}", 2)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing", 2)

    # Third-party imports first: no metric includes them.
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    warm_up()
    host = host_record()
    print("HOST " + json.dumps(host, sort_keys=True))
    if host["repro_env"]:
        fail(f"REPRO_* toggles are set: {host['repro_env']}", 3)
    if not host["kernel_available"]:
        fail("the native forest kernel did not load", 3)

    import shapes
    import tracing

    seeds = (
        tuple(int(s) for s in args.session_seeds.split(","))
        if args.session_seeds
        else shapes.DEFAULT_SESSION_SEEDS[args.workload]
    )
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    probe = None if args.trace else SetupProbe(args, seeds, scratch)
    try:
        return measure(args, seeds, scratch, probe, shapes, tracing)
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, seeds, scratch, probe, shapes, tracing) -> int:
    tasks = shapes.make_tasks(args.workload, seeds, scratch)
    checks = Checks()

    # Warm every code path of the shape with a short session.
    warm = tasks[0]
    shapes.solo_result(shapes.Task(
        warm.name, dataclasses.replace(warm.spec, n_iterations=20),
        warm.seed,
    ))

    from gauge import HostGauge

    gauge = HostGauge()
    driver = shapes.Driver(args.workload, tasks, args.seed, scratch, gauge)
    units = driver.units()
    first: dict = {}
    if probe is not None:
        probe.burst()
    iterations, elapsed, rss_mb = run_units(
        units, checks, first, args.seconds, driver.latencies,
        between=probe.burst if probe is not None else None, gauge=gauge,
    )
    # Timing metrics are scaled to the gauge's reference host: the rate
    # by the whole run's slices, each latency by the slices near it.
    scale = gauge.scale()
    rate = iterations / (elapsed * scale)
    latencies = list(driver.latencies)
    print("GAUGE " + json.dumps({
        "slices": len(gauge.slices),
        "slice_ms": {"mean": 1e3 * statistics.fmean(gauge.slices),
                     "median": 1e3 * statistics.median(gauge.slices)},
        "scale": scale,
        "raw_iters_per_s": iterations / elapsed,
        "measured_s": elapsed,
    }))

    if len(first) < len(tasks):
        # A unit failed before every session ran once: nothing to report.
        print(json.dumps({"correct": False, "attempted": checks.attempted,
                          "failed": checks.failed, "metrics": {}}))
        return 1
    if args.workload in ("sweep-wave", "serve-churn"):
        # The wave member / churned tenant must match its solo run.
        task = tasks[args.seed % len(tasks)]
        solo = shapes.solo_result(task)
        if not shapes.same_trajectory(solo, first[task.name]):
            checks.problem(f"{task.name}: differs from its solo run")
    digest = shapes.trajectory_digest(tasks, first)
    print(f"DIGEST {args.workload} {digest}")

    if args.trace:
        metrics, units_of = traced_metrics(args, driver, units, checks, first,
                                           tracing)
    else:
        values = end_to_end(tasks, first, latencies, rate, probe, rss_mb)
        for name, (value, unit, samples) in values.items():
            count = f"n={samples}" if samples is not None else \
                f"iterations={iterations} seconds={elapsed:.3f}"
            print(f"METRIC {args.workload} {name} {value!r} {unit} {count}")
        setups, references = zip(*probe.samples)
        print("SETUP_SAMPLES " + json.dumps({
            "raw_median_s": statistics.median(setups),
            "setup_s": setups, "reference_s": references,
        }))
        metrics = {name: value for name, (value, _u, _n) in values.items()}
        units_of = {name: unit for name, (_v, unit, _n) in values.items()}
    failed_pct = 100.0 * checks.failed / max(checks.attempted, 1)
    print(f"METRIC {args.workload} failed_pct {failed_pct!r} % "
          f"n={checks.attempted}")

    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(kind)
    if declared != units_of:
        checks.problem(f"reported {kind} metrics differ from BENCHMARK.json: "
                       f"{sorted(set(declared) ^ set(units_of))}")
    print(json.dumps({
        "correct": checks.ok,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units_of[name]}
            for name in sorted(metrics)
        },
    }))
    return 0 if checks.ok else 1


def traced_metrics(args, driver, units, checks, first, tracing):
    """One traced pass of the shape: per-layer metrics, the accounting
    check, the repeatable counts, and the span dump."""
    with tracing.Tracer() as tracer:
        driver.tracer = tracer
        driver.gauge = None
        _iterations, elapsed, _rss = run_units(units, checks, first)
    metrics, accounting = tracing.analyse(tracer, elapsed)
    print("ACCOUNTING " + json.dumps(accounting, sort_keys=True))
    if not accounting["ok"]:
        checks.problem("the top-level spans do not account for the traced "
                       "pass's wall time")
    counts = {name: metrics[name] for name in COUNT_METRICS}
    print("COUNTS " + json.dumps(counts, sort_keys=True))
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    print(f"SPANS {path.relative_to(ROOT)}")
    units_of = tracing.metric_units()
    for name in sorted(units_of):
        print(f"LAYER {args.workload} {name} {metrics[name]!r} {units_of[name]}")
    return metrics, units_of


#: Counts that must repeat exactly between traced runs of one commit.
#: Checkpoint bytes are not among them: a checkpoint stores each
#: observation's wall-clock ``suggest_seconds``, whose length varies.
COUNT_METRICS = (
    "optimizers.forest_fit.calls",
    "optimizers.gp_fit.calls",
    "optimizers.gp_update.calls",
    "optimizers.forest_predict.rows",
    "optimizers.forest_predict_stacked.rows",
    "optimizers.gp_predict.rows",
    "dbms.evaluate.calls",
    "dbms.evaluate_batch.rows",
    "dbms.evaluate_batch_stacked.rows",
    "dbms.crash_rows",
    "tuning.checkpoint.calls",
    "tuning.load_checkpoint.calls",
    "tuning.score_rounds.calls",
    "tuning.score_rounds.rounds",
)


if __name__ == "__main__":
    sys.exit(main())
