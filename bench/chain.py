"""A worker that runs CLI command chains on one dataset, each command in its
own just-imported process.

Usage: python3 bench/chain.py DATASET [COMMAND...]

This fresh interpreter pins itself to one processor, times
``import scarr.cli`` with ``time.perf_counter`` and writes
``{"import_s": ...}`` as one JSON line to standard output.  It then reads
requests from standard input, one a line: ``TRACE REPEAT_S``.  For a chain
it runs each COMMAND in turn, each in a forked child, and waits for each.
Every child starts from the same state, the interpreter just after the
import, so no in-memory state carries from one command or chain to the next,
as with separate CLI invocations.  A child times
``scarr.cli.main([COMMAND, DATASET])``; with TRACE=1 it first installs the
wrappers of ``spans.py``.  With REPEAT_S > 0 a command runs again, on the
same inputs, until its runs in this chain add up to REPEAT_S seconds, so a
short command gets as many samples as a long one gets time.

Before the first command run and after each one, the worker times
``reference()``; each run is paired with the mean of the two reference
times around it.  The answer to a request is one JSON line: per command run,
the exit code, the wall time, the reference time, and the child's peak
resident set and CPU time from ``wait4``, and its spans when traced.  The
worker exits at the end of its input.  Everything else the program prints
goes to /dev/null.  The parent sets PYTHONPATH to the checkout's ``src``.
"""

import json
import math
import os
import sys
import threading
import time

#: Rounds of the reference work; about 0.1 s on a 2-core VM.
REFERENCE_ROUNDS = 150


def _child(command: str, dataset: str, trace: bool, result_path: str) -> None:
    """Body of a forked child; never returns."""
    code = 1
    try:
        import scarr.cli

        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        t0 = time.perf_counter()
        rc = scarr.cli.main([command, dataset])
        result = {"rc": rc, "stage_s": time.perf_counter() - t0}
        if tracer is not None:
            result["trace"] = tracer.dump()
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        code = 0
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def reference() -> float:
    """Seconds taken by a fixed piece of work like the CLI's own: interpreter
    loops over numpy scalars, float math and dict stores, and a small linear
    solve.  Timed next to every command run, it measures how fast the shared
    machine runs at that moment."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 2000)
    a = np.add.outer(x[:40], x[:40]) + 40.0 * np.eye(40)
    acc = 0.0
    for _ in range(REFERENCE_ROUNDS):
        table = {}
        for i in range(2000):
            v = x[i]
            acc += math.sqrt(v * v + 1.0)
            table[i & 63] = v
        acc += float(np.linalg.solve(a, x[:40]).sum())
    return time.perf_counter() - t0


def _run(command: str, dataset: str, trace: bool, stage_path: str) -> dict:
    """Fork one child that runs ``command``, wait for it, and return its record."""
    pid = os.fork()
    if pid == 0:
        _child(command, dataset, trace, stage_path)
    _, status, usage = os.wait4(pid, 0)
    record = {"command": command, "status": os.waitstatus_to_exitcode(status),
              "rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime}
    if record["status"] == 0:
        with open(stage_path) as fh:
            record.update(json.load(fh))
        os.remove(stage_path)
    return record


def main() -> int:
    dataset, commands = sys.argv[1], sys.argv[2:]
    # the reference work and the commands share one processor, so that the
    # reference measures the speed the commands see
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # answers go to a private copy of stdout; the program's prints go nowhere
    answers = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    t0 = time.perf_counter()
    import scarr.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    # fork() copies only the calling thread; the import must have started none
    if threading.active_count() != 1 or len(os.listdir("/proc/self/task")) != 1:
        raise RuntimeError("importing scarr.cli started threads; cannot fork")
    answers.write(json.dumps({"import_s": import_s}) + "\n")
    answers.flush()
    stage_path = os.path.join(os.path.dirname(dataset), f"stage-{os.getpid()}.json")
    for line in sys.stdin:
        trace, repeat_s = line.split()
        stages = []
        ref = reference()
        for command in commands:
            spent = 0.0
            while True:
                stages.append(_run(command, dataset, trace == "1", stage_path))
                after = reference()
                stages[-1]["ref_s"] = (ref + after) / 2
                ref = after
                spent += stages[-1].get("stage_s", 0.0)
                if stages[-1]["status"] != 0 or spent >= float(repeat_s):
                    break
        answers.write(json.dumps({"stages": stages}) + "\n")
        answers.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
