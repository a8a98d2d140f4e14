"""Command-line interface.

Subcommands: ``experiment`` (run a configured sweep), ``table1`` (the
printed limited-data example), ``certify`` (outlier-support certification),
``threshold`` (recoverability curve).  Exit codes: 0 success, 1 config
error, 2 solver/search failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .cert import certify_support_exact, certify_support_mc
from .errors import (ConfigError, DimensionError, LadSysIdError, SingularSystemError,
                     SpecError, SupportSizeError, ThresholdSearchError)
from .harness import load_config, run_experiment, scenario_table1, snr_db
from .matgen import InputDist, build_regressor, sample_input
from .solver import lad_estimate, ls_estimate
from .threshold import strong_threshold

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER = 0, 1, 2

#: what ``SupportCert.work`` counts for each certification method
_WORK_UNITS = {"vertices": "vertices scored", "patterns": "sign-pattern LPs solved",
               "mc": "directions sampled"}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the config error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    p = _Parser(prog="ladsysid",
                description="Robust system identification with the LAD estimator "
                            "over Toeplitz-structured regressors.")
    p.add_argument("--version", action="version", version=f"ladsysid {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pe = sub.add_parser("experiment", help="run a Monte Carlo sweep from a config file")
    pe.add_argument("--config", required=True, help="JSON experiment config")
    pe.add_argument("--seed", type=int, default=None, help="override master seed")
    pe.add_argument("--out", default=None, help="override output CSV path")

    sub.add_parser("table1", help="reproduce the printed limited-data line fit")

    pc = sub.add_parser("certify", help="certify an outlier support")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--support", required=True,
                    help="comma-separated zero-based row indices, e.g. 0,3,7")
    pc.add_argument("--input", choices=["gaussian", "bernoulli_pm1"],
                    default="gaussian")
    pc.add_argument("--sigma", type=float, default=1.0, help="gaussian input scale")
    pc.add_argument("--input-seed", type=int, default=0)
    pc.add_argument("--method", choices=["exact", "mc"], default="exact")
    pc.add_argument("--trials", type=int, default=100000,
                    help="direction samples for --method mc")
    pc.add_argument("--seed", type=int, default=0, help="direction-sampling seed")

    pt = sub.add_parser("threshold", help="compute the recoverable-fraction curve")
    pt.add_argument("--m-min", type=int, default=1)
    pt.add_argument("--m-max", type=int, default=10)
    pt.add_argument("--out", default=None, help="CSV output path")
    return p


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_path=args.out)
    result = run_experiment(cfg)
    print("n,estimator,noise_kind,mean_error,median_error,trials")
    for row in result.summary:
        print(f"{row.n},{row.estimator},{row.noise_kind},"
              f"{row.mean_error:.6g},{row.median_error:.6g},{row.trials}")
    if cfg.scenarios[-1].name == "fir":
        try:
            snr = f"{snr_db(cfg.scenarios[-1], cfg.trials_per_point, cfg.master_seed):.2f} dB"
        except SpecError:       # the sweep drew no outliers
            snr = "undefined"
        print(f"# SNR on corrupted observations: {snr}")
    if cfg.out_path:
        print(f"# trials written to {cfg.out_path}")
    return EXIT_OK


def _cmd_table1(_args) -> int:
    tab = scenario_table1()
    H = tab.regressor()
    ls_clean = ls_estimate(H, tab.y_clean)
    ls_out = ls_estimate(H, tab.y_outlier)
    lad_out = lad_estimate(H, tab.y_outlier)
    print(f"true parameters:            ({tab.x_true[0]:.4f}, {tab.x_true[1]:.4f})")
    print(f"LS on clean data:           ({ls_clean.x_hat[0]:.4f}, {ls_clean.x_hat[1]:.4f})")
    print(f"LS with the z=10 outlier:   ({ls_out.x_hat[0]:.4f}, {ls_out.x_hat[1]:.4f})")
    print(f"LAD with the z=10 outlier:  ({lad_out.x_hat[0]:.4f}, {lad_out.x_hat[1]:.4f})")
    return EXIT_OK


def _cmd_certify(args) -> int:
    try:
        support = [int(tok) for tok in args.support.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --support list: {exc}") from exc
    h = sample_input(InputDist(args.input, args.sigma), args.n, args.m, args.input_seed)
    H = build_regressor(h, args.n, args.m)
    if args.method == "exact":
        cert = certify_support_exact(H, support)
    else:
        cert = certify_support_mc(H, support, trials=args.trials, seed=args.seed)
    print(f"support: {list(cert.support)}")
    print(f"verdict: {cert.verdict}")
    print(f"worst_gap: {cert.worst_gap:.6g}")
    print(f"method: {cert.method} ({cert.work} {_WORK_UNITS[cert.method]})")
    if cert.witness is not None:
        print("witness: " + " ".join(f"{v:.6g}" for v in cert.witness))
    return EXIT_OK


def _cmd_threshold(args) -> int:
    if not 1 <= args.m_min <= args.m_max <= 50:
        raise ConfigError("need 1 <= m-min <= m-max <= 50")
    lines = ["m,beta_star,mu,delta,lhs"]
    for m in range(args.m_min, args.m_max + 1):
        res = strong_threshold(m)
        lines.append(f"{m},{res.beta_star:.17g},{res.mu:.17g},"
                     f"{res.delta:.17g},{res.lhs_value:.17g}")
        print(f"m={m:3d}  beta_star={res.beta_star:.6f}  "
              f"mu={res.mu:.4f}  delta={res.delta:.3f}  lhs={res.lhs_value:.3e}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"# written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "certify":
            return _cmd_certify(args)
        return _cmd_threshold(args)
    except (ConfigError, SpecError, DimensionError, SupportSizeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularSystemError, ThresholdSearchError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except LadSysIdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
