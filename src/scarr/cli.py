"""Command-line entry point orchestrating the pipeline.

Subcommands: simulate, features, fit-step1, fit-step2, predict, validate.
Configuration is plain key=value text (``step1_config.txt`` /
``step2_config.txt`` / ``predict_config.txt`` inside the dataset directory);
flags override config keys.  Every stderr line but ``main``'s ``error:``
lines is a ``scarr`` logger record, written as ``<command>: <message>``;
every data product carries a header comment with the toolkit version and
config hash.

Exit codes: 0 success, 2 config error, 3 data error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import os
import sys

import numpy as np

from scarr import __version__, covariates as cov, prediction, step1, step2
from scarr.data_model import KeyValues, load_dataset, parse_config, read_keyvalue, write_dataset
from scarr.errors import ConfigError, ConvergenceError, DataError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_LOG = logging.getLogger(__name__)


def _config_hash(kv: dict) -> str:
    blob = "\n".join(f"{k}={kv[k]}" for k in sorted(kv))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _header(kv: dict) -> list:
    return [f"scarr {__version__}", f"config_hash={_config_hash(kv)}"]


def _make_dir(d: str) -> str:
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{d}: cannot make output directory: {exc.strerror}") from None
    return d


def _out_dir(dataset_dir: str, out: str | None) -> str:
    return _make_dir(out or os.path.join(dataset_dir, "out"))


def _read_config(args, name: str) -> KeyValues:
    """The ``--config`` file, which must exist, or else the dataset's own
    ``name`` file, if it has one; then the keys that ``--alpha`` and
    ``--smoothed`` set, where ``args`` has them, each named as its flag.  So
    a flag enters the config hash as its key would."""
    path = args.config or os.path.join(args.dataset, name)
    if os.path.exists(path):
        kv = read_keyvalue(path, ConfigError)
    elif args.config:
        raise ConfigError(f"{path}: no such config file")
    else:
        kv = KeyValues()
    for key in ("alpha", "smoothed"):
        value = getattr(args, key, None)
        if value is not None:
            kv[key], kv.where[key] = str(value), f"--{key}"
    return kv


def _read_fit(out: str, step: int):
    """The Step ``step`` (1 or 2) fit file in ``out``, which ``fit-step<step>``
    writes."""
    path = os.path.join(out, f"step{step}_fit.txt")
    if not os.path.exists(path):
        raise DataError(f"missing fit file: {path} (run fit-step{step} first)")
    return (step1.read_step1_fit, step2.read_step2_fit)[step - 1](path)


def cmd_simulate(args) -> int:
    from scarr import oracle  # only simulate uses it

    cfg = oracle.SimulationConfig(seed=args.seed)
    if args.days is not None:
        cfg = dataclasses.replace(cfg, n_days=args.days)
    dataset, truth = oracle.simulate_step1_dataset(cfg)
    write_dataset(dataset, _make_dir(args.out))
    oracle.write_truth(truth, os.path.join(args.out, "truth.txt"))
    _LOG.info("wrote dataset with %d sites to %s", len(dataset.sites), args.out)
    return 0


def cmd_features(args) -> int:
    dataset = load_dataset(args.dataset)
    kv = _read_config(args, "step1_config.txt")
    spec = parse_config(step1.Step1Config, kv).buffer_spec
    table = cov.build_covariates(dataset, spec)
    out = _out_dir(args.dataset, args.out)
    cov.write_covariates(table, os.path.join(out, "covariates.csv"), spec, _header(kv))
    _LOG.info("wrote %d covariate rows", len(table["response"]))
    return 0


def cmd_fit_step1(args) -> int:
    dataset = load_dataset(args.dataset)
    kv = _read_config(args, "step1_config.txt")
    cfg = parse_config(step1.Step1Config, kv)
    design = step1.assemble_design(dataset, cov.build_covariates(dataset, cfg.buffer_spec), cfg)
    for a, b, r in step1.collinearity_report(design.X, design.names):
        _LOG.info("collinearity |r|=%.3f between %s and %s", abs(r), a, b)
    _, fit = step1.fit_design(design, cfg)
    out = _out_dir(args.dataset, args.out)
    step1.write_step1_fit(fit, os.path.join(out, "step1_fit.txt"), _header(kv))
    _LOG.info("n=%d R2=%.4f RMSE=%.4f gamma_hat=%.4f",
              fit.n, fit.r2, fit.rmse, step1.gamma_hat(fit))
    return 0


def cmd_fit_step2(args) -> int:
    dataset = load_dataset(args.dataset)
    out = _out_dir(args.dataset, args.out)
    s1fit = _read_fit(out, 1)
    kv = _read_config(args, "step2_config.txt")
    cfg = parse_config(step2.Step2Config, kv)
    inputs = prediction.build_dlm_inputs(prediction.Targets(dataset, s1fit))
    _LOG.info("%d sites x %d days", inputs.n_sites, inputs.n_days)
    params = step2.fit_mle(inputs, gamma_hat=step1.gamma_hat(s1fit), drop_mu_a=cfg.drop_mu_a)
    step2.write_step2_fit(params, os.path.join(out, "step2_fit.txt"), _header(kv))
    est = step2.kalman_smoother(params, inputs)
    step2.write_state_path(est, os.path.join(out, "state_path.csv"), _header(kv))
    se_z = f"{params.se['sigma_z']:.3f}" if "sigma_z" in params.se else "n/a"
    _LOG.info("sigma_z=%.3f (%s) sigma_a=%.3f psi_a=%.3f beta_c=%.3f mu_a_dropped=%s "
              "loglik=%.3f", params.sigma_z, se_z, params.sigma_a, params.psi_a,
              params.beta_c, params.mu_a_dropped, params.loglik)
    return 0


def _prediction_setup(args, sites):
    """(out dir, predict config text and values, targets with ``sites(dataset)``,
    Step II params, state path): one filter or smoother pass for every target."""
    dataset = load_dataset(args.dataset)
    out = _out_dir(args.dataset, args.out)
    s1fit, params = _read_fit(out, 1), _read_fit(out, 2)
    kv = _read_config(args, "predict_config.txt")
    cfg = parse_config(prediction.PredictConfig, kv)
    targets = prediction.Targets(dataset, s1fit, sites(dataset))
    inputs = prediction.build_dlm_inputs(targets)
    return out, kv, cfg, targets, params, prediction.state_path(params, inputs, cfg.smoothed)


def cmd_predict(args) -> int:
    out, kv, cfg, targets, params, state = _prediction_setup(
        args, lambda dataset: sorted(dataset.sites_with_role("prediction"), key=lambda s: s.id))
    late = [d for d in cfg.grid_days if d > targets.n_days]
    if late:
        raise ConfigError(f"{kv.where['grid_days']}: grid_days: day {late[0]} is past the "
                          f"record's last day, {targets.n_days}")
    order = sorted(range(len(targets.ids)), key=targets.ids.__getitem__)
    ids = [targets.ids[j] for j in order]
    c_tilde, y1 = targets.c_tilde[order], targets.y1[order]
    errors = prediction.without_prediction(ids, targets.outside[order], c_tilde, np.isfinite(y1))
    for j in np.flatnonzero(~np.isfinite(y1).any(axis=1)).tolist():
        errors.setdefault(j, DataError(f"predict: no usable days for site {ids[j]}"))
    if errors:
        raise errors[min(errors)]
    if cfg.grid_days:  # an unusable raster directory stops predict before any product
        rasters = _make_dir(os.path.join(out, "rasters"))
    pred, half = prediction.predict_site(params, state, c_tilde, y1)
    prediction.write_site_predictions(
        ids, pred, half, os.path.join(out, "site_predictions.csv"), _header(kv)
    )
    _LOG.info("wrote daily predictions for %d sites", len(ids))

    if cfg.grid_days:
        grids = prediction.predict_grid(
            targets, params, state, cfg.grid_ncols, cfg.grid_nrows, cfg.grid_xll,
            cfg.grid_yll, cfg.grid_cell_size, cfg.grid_days,
        )
        paths = prediction.write_prediction_rasters(grids, rasters)
        _LOG.info("wrote %d raster(s)", len(paths))
    return 0


def _compute_metrics(targets, params, state):
    """Predictions against the dense sites' daily series and the interval
    observations (``targets``' extra sites), next to the raw gridded values y1
    on the same days.  An interval site without a prediction is skipped, with
    its reason logged."""
    dataset = targets.dataset
    dense = [j for j, site in enumerate(targets.dense) if site.id in dataset.daily_series]
    rows = dense + list(range(len(targets.dense), len(targets.ids)))
    ids = [targets.ids[j] for j in rows]
    c_tilde, y1 = targets.c_tilde[rows], targets.y1[rows]
    errors = prediction.without_prediction(ids, targets.outside[rows], c_tilde, np.isfinite(y1))
    for j, exc in errors.items():
        if j < len(dense):
            raise exc
        _LOG.warning("interval site %s skipped: %s", ids[j], exc)
    pred, _ = prediction.predict_site(params, state, c_tilde, y1)

    row = {sid: j for j, sid in enumerate(ids) if j not in errors}
    interval_pairs, raw_pairs = [], []
    for obs in dataset.interval_obs:
        if obs.site_id in row:
            window = np.s_[row[obs.site_id], obs.t_start - 1:obs.t_end]
            present = np.isfinite(pred[window])
            if present.any():
                interval_pairs.append((float(np.mean(pred[window][present])), obs.value))
                raw_pairs.append((float(np.mean(y1[window][present])), obs.value))
    n = len(dense)
    return prediction.metrics(
        ids[:n], pred[:n], targets.observed[dense], y1[:n], interval_pairs, raw_pairs
    )


def cmd_validate(args) -> int:
    out, kv, _, targets, params, state = _prediction_setup(args, cov.interval_sites)
    report = _compute_metrics(targets, params, state)
    metrics_path = os.path.join(out, "metrics.csv")
    prediction.write_metrics(report, metrics_path, _header(kv))
    _LOG.info("MSPE=%.4f (raw grid %.4f)", report.mspe, report.mspe_raw)
    if args.golden:
        with open(metrics_path, "rb") as fh:
            got = fh.read()
        try:
            with open(args.golden, "rb") as fh:
                want = fh.read()
        except OSError as exc:
            raise DataError(f"{args.golden}: cannot read golden file: {exc.strerror}") from None
        if got != want:
            _LOG.warning("metrics differ from golden file")
            return EXIT_DATA
        _LOG.info("metrics match golden file")
    return 0


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scarr",
        description="Two-step spatiotemporal calibration of gridded air-quality output",
    )
    parser.add_argument("--version", action="version", version=f"scarr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("dataset", help="dataset directory")
        p.add_argument("--out", help="output directory (default: <dataset>/out)")
        p.add_argument("--config", help="config file overriding the dataset's")

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--days", type=_int_at_least(1), help="length of the daily record")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("features", help="compute Step I covariates")
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("fit-step1", help="fit the calibration regression")
    common(p)
    p.add_argument("--alpha", type=float, help="selection significance level")
    p.set_defaults(func=cmd_fit_step1)

    p = sub.add_parser("fit-step2", help="fit the dynamic state-space model")
    common(p)
    p.set_defaults(func=cmd_fit_step2)

    p = sub.add_parser("predict", help="predict at sites and on the raster grid")
    common(p)
    p.add_argument("--smoothed", action="store_const", const="true",
                   help="use smoothed instead of filtered states")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("validate", help="compute metrics; compare to a golden file")
    common(p)
    p.add_argument("--smoothed", action="store_const", const="true")
    p.add_argument("--golden", help="golden metrics file for byte comparison")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    # the package's log records, as "<command>: <message>" lines on stderr
    logger = logging.getLogger("scarr")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(f"{args.command}: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
