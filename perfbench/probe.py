"""``setup_s`` samples, each taken in a process with no module of the
program loaded yet.

    python3 perfbench/probe.py --workload smac-seq --seed 1 \\
        --session-seeds 1,2 --scratch .perfbench-out/tmp

Imports numpy and scipy once, then serves requests: for each line read
from stdin it forks one child, which times the span from just after the
third-party imports until every session of the workload is built and
started (default configurations measured; for serve-churn, the server
started and every tenant opened).  The span covers ``import repro``,
loading the forest kernel from its warm cache, spaces, LlamaTune
adapters and simulator calibration.  Just before it, the child times
:func:`reference`, a fixed block of the same kind of work.  It prints
``<set-up seconds> <reference seconds>`` on one line.  Exits at the end
of stdin, or non-zero if a child fails.

Forking keeps a sample cheap (no interpreter start, no second numpy
import), so a run can afford enough samples for a steady figure, and
can spread them over the whole run.
"""

import argparse
import os
import pathlib
import sys
import time
import traceback

# Third-party imports stay outside the measurement: they alone vary by
# close to a second between fresh processes on a shared host.
import numpy  # noqa: F401
import scipy.linalg  # noqa: F401
import scipy.optimize  # noqa: F401
import scipy.special  # noqa: F401

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Module source for :func:`reference`: plain functions and frozen
#: dataclasses, like the program's own modules.  It sets the scale of
#: ``setup_s``, so changing it changes the benchmark.
REFERENCE_SOURCE = "import dataclasses\n" + "".join(
    f"def f{i}(a, b=1, *c, **d):\n"
    f"    x = [a + b for _ in range(3)]\n"
    f"    return {{'k': x, 'c': c, 'd': d}}\n"
    f"@dataclasses.dataclass(frozen=True)\n"
    f"class C{i}:\n"
    f"    a: int = 0\n"
    f"    b: float = 1.0\n"
    f"    c: str = 'x'\n"
    f"    def m(self):\n"
    f"        return self.a + self.b\n"
    for i in range(80)
)


def reference() -> float:
    """Seconds to compile and run :data:`REFERENCE_SOURCE`: cold code,
    as importing a module is, so it slows down with set-up when the
    host does."""
    started = time.perf_counter()
    exec(compile(REFERENCE_SOURCE, "<reference>", "exec"),
         {"__name__": "reference"})
    return time.perf_counter() - started


def sample(args) -> float:
    """One set-up, timed; runs in a freshly forked child."""
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from repro.optimizers._forest_kernel import kernel_available

    import shapes

    if not kernel_available():
        raise RuntimeError("forest kernel not loaded")
    seeds = [int(s) for s in args.session_seeds.split(",")]
    tasks = shapes.make_tasks(args.workload, seeds, args.scratch)
    shapes.set_up(args.workload, tasks, args.seed, args.scratch)
    return time.perf_counter() - started


def forked_sample(args) -> str:
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 0
        try:
            ref = reference()
            os.write(write_end, f"{sample(args)!r} {ref!r}".encode())
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not payload:
        sys.exit("set-up sample failed")
    return payload.decode()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--session-seeds", required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    for _request in sys.stdin:
        print(forked_sample(args), flush=True)


if __name__ == "__main__":
    main()
