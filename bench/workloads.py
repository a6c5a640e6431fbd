"""The benchmark's workloads: how each dataset directory is made and checked.

The simulated datasets come from ``scarr.oracle`` with a fixed simulation
seed per workload, and equal the output of ``scarr simulate``.  The benchmark
seed picks the raster days of ``raster-gls``; the other workloads ignore it.
Reasons are in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import re
import shutil

import numpy as np

STAGES = ("features", "fit-step1", "fit-step2", "predict", "validate")

#: Products the CLI writes with ``# scarr <version>`` / ``# config_hash=``.
HEADER_PRODUCTS = (
    "step1_fit.txt", "step2_fit.txt", "state_path.csv", "site_predictions.csv",
    "metrics.csv",
)
#: Products the CLI writes without those headers: recorded, not checked.
KNOWN_HEADERLESS = ("covariates.csv",)
_HEADER = re.compile(r"# scarr \S+\n# config_hash=[0-9a-f]{12}\n")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    days: int = 0  # simulated record length; 0 copies the bundled data/mini
    sim_seed: int = 0
    error_model: str = "independent"
    run_selection: bool = True
    smoothed: bool = False
    grid_side: int = 0  # raster pixels per side; 0 means no raster
    grid_cell_m: float = 0.0
    grid_days: int = 0


WORKLOADS = {
    "mini-golden": Workload("mini-golden"),
    "long-record": Workload("long-record", days=1825, sim_seed=1, smoothed=True),
    "raster-gls": Workload(
        "raster-gls", days=365, sim_seed=6, error_model="exponential",
        run_selection=False, grid_side=16, grid_cell_m=3000.0, grid_days=12,
    ),
}

#: Tiny variants for ``run.py --smoke``, which tests the harness itself.
SMOKE = {
    "mini-golden": WORKLOADS["mini-golden"],
    "long-record": dataclasses.replace(WORKLOADS["long-record"], days=365),
    "raster-gls": dataclasses.replace(
        WORKLOADS["raster-gls"], days=120,
        grid_side=4, grid_cell_m=12000.0, grid_days=2,
    ),
}


def generate(w: Workload, seed: int, root: str, dest: str) -> None:
    """Write the dataset directory of workload ``w`` for benchmark ``seed``."""
    if w.days == 0:
        shutil.copytree(os.path.join(root, "data", "mini"), dest)
        return
    from scarr import oracle
    from scarr.data_model import write_dataset

    cfg = dataclasses.replace(oracle.SimulationConfig(seed=w.sim_seed), n_days=w.days)
    dataset, _ = oracle.simulate_step1_dataset(cfg)
    write_dataset(dataset, dest)

    step1 = [f"error_model={w.error_model}"]
    if not w.run_selection:
        step1.append("run_selection=false")
    predict = [f"smoothed={str(w.smoothed).lower()}"]
    if w.grid_side:
        rng = np.random.default_rng(seed)
        days = np.sort(rng.choice(np.arange(1, w.days + 1), w.grid_days, replace=False))
        predict += [
            "grid_days=" + " ".join(str(int(d)) for d in days),
            f"grid_ncols={w.grid_side}",
            f"grid_nrows={w.grid_side}",
            f"grid_cell_size={w.grid_cell_m:g}",
        ]
    for name, lines in (("step1_config.txt", step1), ("predict_config.txt", predict)):
        with open(os.path.join(dest, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _keyvalue(path: str) -> dict:
    with open(path) as fh:
        return dict(line.strip().split("=", 1) for line in fh
                    if "=" in line and not line.startswith("#"))


def overall_mspe(out_dir: str):
    """(calibrated, raw-grid) OVERALL_MSPE from metrics.csv."""
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        for line in fh:
            if line.startswith("OVERALL_MSPE,"):
                fields = line.strip().split(",")
                return float(fields[1]), float(fields[3])
    raise ValueError("metrics.csv has no OVERALL_MSPE row")


def _raster_has_prediction(path: str) -> bool:
    with open(path) as fh:
        lines = fh.read().split("\n")
    nodata = float(lines[5].split()[1])
    return any(float(v) != nodata for line in lines[6:] for v in line.split())


def _header(out_dir: str, product: str):
    """(has the two header lines, the first two lines) of one product."""
    with open(os.path.join(out_dir, product)) as fh:
        head = fh.readline() + fh.readline()
    return _HEADER.fullmatch(head) is not None, head.strip().replace("\n", " | ")


def check_outputs(w: Workload, root: str, out_dir: str) -> list:
    """[(check name, passed, detail)] for one completed chain of stages."""
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except (OSError, ValueError, IndexError, KeyError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), detail))

    for product in HEADER_PRODUCTS:
        check(f"header:{product}", lambda p=product: _header(out_dir, p))

    if w.days == 0:
        def golden():
            with open(os.path.join(out_dir, "metrics.csv"), "rb") as fh:
                got = fh.read()
            with open(os.path.join(root, "data", "golden_metrics.csv"), "rb") as fh:
                want = fh.read()
            return got == want, "metrics.csv vs data/golden_metrics.csv"
        check("golden_bytes", golden)
    else:
        def mspe_below_raw():
            mspe, raw = overall_mspe(out_dir)
            return mspe < raw, f"mspe={mspe!r} raw={raw!r}"

        def loglik_finite():
            kv = _keyvalue(os.path.join(out_dir, "step2_fit.txt"))
            return math.isfinite(float(kv["loglik"])), (
                f"loglik={kv['loglik']} converged={kv.get('converged')}")
        check("mspe_below_raw", mspe_below_raw)
        check("step2_loglik_finite", loglik_finite)

    if w.grid_side:
        def rasters():
            rdir = os.path.join(out_dir, "rasters")
            files = sorted(os.listdir(rdir))
            filled = [f for f in files if _raster_has_prediction(os.path.join(rdir, f))]
            ok = len(files) == w.grid_days and len(filled) == len(files)
            return ok, f"{len(files)} rasters, {len(filled)} with a predicted pixel"
        check("rasters", rasters)
    return checks


def recorded(out_dir: str) -> list:
    """Known defects, printed in every run but not checked.

    The ``converged=`` value of step2_fit.txt, which the program always sets
    to true, and the header state of the products in ``KNOWN_HEADERLESS``.
    """
    try:
        flag = _keyvalue(os.path.join(out_dir, "step2_fit.txt")).get("converged", "absent")
    except OSError:
        flag = "absent"
    found = [f"step2 converged={flag}"]
    for product in KNOWN_HEADERLESS:
        try:
            ok = _header(out_dir, product)[0]
        except OSError:
            ok = False
        found.append(f"header:{product} {'present' if ok else 'missing'}")
    return found


def product_digests(out_dir: str) -> dict:
    """{relative path: SHA-256} of every product under ``out_dir``."""
    found = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return found
