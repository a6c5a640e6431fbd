"""scarr benchmark: per-command CLI latency on one workload, or a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

A run builds the workload's dataset directory under ``.bench_work/`` in the
checkout, then drives the CLI chain features -> fit-step1 -> fit-step2 ->
predict -> validate as one client in a closed loop: ``chain.py`` imports
``scarr.cli`` in a fresh interpreter and forks each command from that state
only after the previous one ended.
With ``--trace 0`` whole chains repeat for S seconds (at least three
chains); each stage figure is the stage's time in units of a reference work
timed beside it, which cancels the drift of a shared machine's speed.  With
``--trace 1`` one untraced chain and one traced chain run, and the per-layer
metrics come from the traced one.  Every chain's products are checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run for a reader.  ``--smoke`` runs every workload once at tiny
sizes and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import signal
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("src/scarr/cli.py", "data/mini", "data/golden_metrics.csv")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Stages still running this long after the requested run length are killed.
RUN_MARGIN_S = 100.0
#: Chains per ``--trace 0`` run, at least, so no stage timing rests on 1 or 2.
MIN_CHAINS = 3
#: A command runs again within a ``--trace 0`` chain until its runs there add
#: up to this many seconds, so short commands get more samples.
REPEAT_S = 1.0
#: Fresh-interpreter imports timed per run, at least, for ``setup_s``.
MIN_SETUP_SAMPLES = 5


class Worker:
    """One ``chain.py`` process: a fresh interpreter that has imported
    ``scarr.cli`` and forks the commands of each chain asked of it."""

    def __init__(self, runner: "Runner", commands):
        self.runner = runner
        argv = [sys.executable, os.path.join(HERE, "chain.py"), runner.dataset, *commands]
        self.proc = subprocess.Popen(argv, env=runner.env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     text=True, start_new_session=True)
        self.import_s = self._answer().get("import_s")

    def _answer(self) -> dict:
        """The worker's next answer line, or {} if it died or ran past the deadline."""
        if self.proc.poll() is None:
            wait = max(self.runner.deadline - time.monotonic(), 0.1)
            ready, _, _ = select.select([self.proc.stdout], [], [], wait)
            if ready:
                line = self.proc.stdout.readline()
                if line:
                    return json.loads(line)
        self.close()
        return {}

    def chain(self, traced: bool, repeat_s: float) -> list:
        """The stage records of one chain, or [] if the worker failed."""
        try:
            self.proc.stdin.write(f"{int(traced)} {repeat_s}\n")
            self.proc.stdin.flush()
        except (OSError, ValueError):  # the worker has ended
            self.close()
            return []
        return self._answer().get("stages", [])

    def close(self) -> None:
        """End the worker and wait for it; kill it if it does not end at once."""
        if self.proc.poll() is None:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                stream.close()


class Runner:
    """Runs chains of CLI stages on one dataset directory."""

    def __init__(self, work: str, dataset: str, seconds: float):
        self.work = work
        self.dataset = dataset
        self.out = os.path.join(dataset, "out")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.update(BLAS_ENV)
        self.deadline = time.monotonic() + max(seconds, 0.0) + RUN_MARGIN_S

    def import_time(self):
        """Import time of ``scarr.cli`` in a fresh interpreter, or None."""
        worker = Worker(self, ())
        worker.close()
        return worker.import_s

    def chain(self, worker: Worker, w: workloads.Workload, traced: bool,
              repeat_s: float = 0.0) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        stages = worker.chain(traced, repeat_s)
        checks = []
        for cmd in workloads.STAGES:
            runs = [s for s in stages if s["command"] == cmd] or [{}]
            checks += [(f"exit:{cmd}", s.get("rc") == 0,
                        f"status={s.get('status')} rc={s.get('rc')}") for s in runs]
        checks += workloads.check_outputs(w, ROOT, self.out)
        return {"stages": stages, "checks": checks,
                "digests": workloads.product_digests(self.out),
                "recorded": workloads.recorded(self.out)}


def repeat_checks(chains: list) -> list:
    """Products of every later chain must be byte-identical to the first's."""
    first = chains[0]["digests"]
    return [(f"repeat:{i}", c["digests"] == first, f"{len(c['digests'])} products")
            for i, c in enumerate(chains[1:], start=2)]


def _runs(chains: list, cmd: str) -> list:
    """The records of every completed run of ``cmd`` in ``chains``."""
    return [s for c in chains for s in c["stages"] if s["command"] == cmd and "stage_s" in s]


def pipeline(chain: dict):
    """The sum of the five stage times of one chain, or None if one failed."""
    times = [s.get("stage_s") for s in chain["stages"]]
    return sum(times) if len(times) == len(workloads.STAGES) and None not in times else None


def metric_name(cmd: str) -> str:
    return cmd.replace("-", "_") + "_ref"


def end_to_end(chains: list, imports: list, out_dir: str) -> dict:
    """{name: (value, unit, sample count)} over untraced chains.

    A stage's figure is the time of all its runs divided by the time of the
    reference work timed beside them (see README.md, "Bounds and noise").
    """
    metrics = {}
    for cmd in workloads.STAGES:
        runs = _runs(chains, cmd)
        value = (sum(s["stage_s"] for s in runs) / sum(s["ref_s"] for s in runs)
                 if runs else None)
        metrics[metric_name(cmd)] = (value, "ref", len(runs))
    stages = [metrics[metric_name(cmd)] for cmd in workloads.STAGES]
    metrics["pipeline_ref"] = (None if any(v is None for v, _, _ in stages)
                               else sum(v for v, _, _ in stages), "ref",
                               min(n for _, _, n in stages))
    imports = [t for t in imports if t is not None]
    metrics["setup_s"] = (min(imports) if imports else None, "s", len(imports))
    rss = [s["rss_mb"] for c in chains for s in c["stages"]]
    metrics["peak_rss_mb"] = (max(rss) if rss else None, "MB", len(rss))
    try:
        mspe = workloads.overall_mspe(out_dir)[0]
    except (OSError, ValueError):
        mspe = None
    metrics["mspe"] = (mspe, "ppb2", 1)
    return metrics


def per_layer(untraced: dict, traced: dict) -> dict:
    """{name: (value, unit, 1)} from one traced chain and its untraced twin."""
    dumps = [s["trace"] for s in traced["stages"] if "trace" in s]
    metrics = {name: (value, unit, 1) for name, (value, unit) in spans.summarize(dumps).items()}
    pipes = [pipeline(c) or 0.0 for c in (traced, untraced)]
    metrics["trace.overhead_s"] = (pipes[0] - pipes[1], "s", 1)
    return metrics


def environment() -> str:
    versions = " ".join(f"{pkg}={importlib.metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    blas = " ".join(f"{key}={value}" for key, value in BLAS_ENV.items())
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"{versions} {blas}")


@contextlib.contextmanager
def workspace(w: workloads.Workload, seed: int, seconds: float, tag: str):
    """A Runner on a fresh dataset of ``w`` under ``.bench_work/``, removed after."""
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        dataset = os.path.join(work, "dataset")
        workloads.generate(w, seed, ROOT, dataset)
        yield Runner(work, dataset, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def all_checks(chains: list) -> list:
    return [c for chain in chains for c in chain["checks"]] + repeat_checks(chains)


def seconds_note(chains: list) -> list:
    """Wall and CPU seconds of each stage and of the reference work, as
    measured, for a reader: median and fastest of the runs."""
    lines = []
    for cmd in workloads.STAGES:
        runs = _runs(chains, cmd)
        if runs:
            wall = [s["stage_s"] for s in runs]
            cpu = [s["cpu_s"] for s in runs]
            lines.append(f"{cmd}: wall median {_fmt(statistics.median(wall))} s, "
                         f"fastest {_fmt(min(wall))} s; cpu median "
                         f"{_fmt(statistics.median(cpu))} s [n={len(runs)}]")
    refs = [s["ref_s"] for c in chains for s in c["stages"] if "ref_s" in s]
    if refs:
        lines.append(f"reference: median {_fmt(statistics.median(refs))} s, "
                     f"fastest {_fmt(min(refs))} s [n={len(refs)}]")
    return lines


def timed_loop(runner: Runner, w: workloads.Workload, seconds: float):
    """(chains, import times) of one ``--trace 0`` run.

    One worker serves every chain.  After each chain a fresh interpreter
    times the import, so the set-up samples spread over the run like the
    stage samples.  No chain starts that would, at the average chain length
    so far, end after ``seconds``, once ``MIN_CHAINS`` have run.  A chain
    that the worker could not run ends the loop.
    """
    worker = Worker(runner, workloads.STAGES)
    chains, imports = [], [worker.import_s]
    start = time.perf_counter()
    try:
        while True:
            chains.append(runner.chain(worker, w, False, REPEAT_S))
            if not chains[-1]["stages"]:  # the worker failed; its checks say so
                break
            imports.append(runner.import_time())
            elapsed = time.perf_counter() - start
            if len(chains) >= MIN_CHAINS and elapsed * (1 + 1 / len(chains)) > seconds:
                break
    finally:
        worker.close()
    while len(imports) < MIN_SETUP_SAMPLES:
        imports.append(runner.import_time())
    return chains, imports


def run_workload(w: workloads.Workload, seed: int, seconds: float, trace: bool):
    """(metrics, checks, text notes, chain count) for one run."""
    with workspace(w, seed, seconds, f"{w.name}-{seed}") as runner:
        if trace:
            worker = Worker(runner, workloads.STAGES)
            try:
                chains = [runner.chain(worker, w, traced) for traced in (False, True)]
            finally:
                worker.close()
            metrics = per_layer(chains[0], chains[1])
        else:
            chains, imports = timed_loop(runner, w, seconds)
            metrics = end_to_end(chains, imports, runner.out)
    notes = [f"{r} (known, recorded, not counted)"
             for r in sorted({r for c in chains for r in c["recorded"]})]
    if not trace:
        notes += seconds_note(chains)
    return metrics, all_checks(chains), notes, len(chains)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(w_name, seed, trace, metrics, checks, notes, n_chains) -> dict:
    """Print the run for a reader and return the result object."""
    failed = [c for c in checks if not c[1]]
    print(f"workload={w_name} seed={seed} trace={int(trace)} chains={n_chains}")
    print(f"env: {environment()}")
    for name, (value, unit, n) in metrics.items():
        label = " (computed)" if name in spans.COMPUTED else ""
        print(f"  {name} = {_fmt(value)} {unit}{label} [n={n}]")
    print(f"  failed_ops = {len(failed)} of {len(checks)}")
    for line in notes:
        print(f"  {line}")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def smoke() -> int:
    """Each workload once at tiny sizes: one untraced and two traced chains.

    Fails on any failed output check, on metric names that differ from
    BENCHMARK.json, and on call counts that differ between the traced chains.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name, w in workloads.SMOKE.items():
        with workspace(w, 1, 0.0, f"smoke-{name}") as runner:
            worker = Worker(runner, workloads.STAGES)
            try:
                chains = [runner.chain(worker, w, traced) for traced in (False, True, True)]
            finally:
                worker.close()
            e2e = end_to_end(chains[:1], [worker.import_s], runner.out)
        layers = [per_layer(chains[0], c) for c in chains[1:]]
        checks = all_checks(chains)
        problems += [f"{name}: check {c[0]} failed: {c[2]}" for c in checks if not c[1]]
        if set(e2e) != want_e2e:
            problems.append(f"{name}: end-to-end names {sorted(set(e2e) ^ want_e2e)} differ")
        if set(layers[0]) != want_layer:
            problems.append(f"{name}: per-layer names {sorted(set(layers[0]) ^ want_layer)} differ")
        counted = [m for m in layers[0] if m.endswith(".calls") or m in spans.COMPUTED]
        unequal = [m for m in counted if layers[0][m][0] != layers[1][m][0]]
        if unequal:
            problems.append(f"{name}: counts differ between traced chains: {unequal}")
        print(f"smoke {name}: {len(checks)} checks, "
              f"pipeline {_fmt(e2e['pipeline_ref'][0])} ref, "
              f"c_tilde_for_day calls {layers[0]['prediction.c_tilde_for_day.calls'][0]}")
    for line in problems:
        print(f"SMOKE FAILED {line}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    w = workloads.WORKLOADS[args.workload]
    metrics, checks, notes, n_chains = run_workload(
        w, args.seed, args.seconds, bool(args.trace))
    result = report(w.name, args.seed, args.trace, metrics, checks, notes, n_chains)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
