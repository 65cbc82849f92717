"""Command-line front end: presets, sweeps, rate optimization, CSV output.

Presets reproduce the headline experiments: outage vs SNR for coordinated
vs non-coordinated HARQ (fig1a), the fairness ratio vs the second user's
fading parameter (fig1b), throughput with exhaustively optimized rates
(fig1c), and the three-user outage curves (fig2). All output is plot-ready
CSV; plotting itself is out of process.

Exit codes: 0 success, 2 configuration error. A closed form refuses
parameters it cannot evaluate (analytic.ClosedFormRangeError): `analytic`
and a closed-form `optimize` then exit 2, while a sweep point gets a NaN
analytic_value and keeps its Monte Carlo value.
"""

import argparse
import configparser
import csv
import dataclasses
import itertools
import math
import os
import string
import sys

import numpy as np

from . import analytic
from .fading import ConfigurationError, FadingProfile, check_seed
from .montecarlo import (AllocationPolicy, analytic_counterparts, db_to_linear, estimate,
                         grid_tables, sweep)
from .protocol import PolicyKind, ProtocolConfig
from .rates import Scheme

# user u is named by letter u; Monte Carlo statistics serve at most 16 users
_USER_NAMES = string.ascii_uppercase
# points a start:step:stop axis may have; optimize squares a rate axis into
# at most MAX_AXIS_POINTS**2 pairs
MAX_AXIS_POINTS = 1000


@dataclasses.dataclass(frozen=True, kw_only=True)
class ResultRow:
    snr_db: float
    scheme: str
    policy: str
    k: int
    m: int
    user: str = ""      # "A", "B", ... or "" for system-level metrics
    metric: str
    mc_value: float = math.nan     # NaN when analytic-only
    mc_ci95: float = math.nan
    analytic_value: float = math.nan  # NaN when Monte Carlo only
    trials: int = 0
    seed: int


CSV_HEADER = [f.name for f in dataclasses.fields(ResultRow)]


def emit_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow([_fmt(getattr(r, name)) for name in CSV_HEADER])


def _fmt(x) -> str:
    # repr of a builtin float round-trips exactly; numpy scalars must be
    # coerced first or their repr carries the dtype wrapper
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# ---------------------------------------------------------------------------
# configuration plumbing


def parse_axis(spec: str):
    """'start:step:stop' (inclusive) or comma-separated values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"axis must be start:step:stop, got {spec!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ConfigurationError(f"axis start, step and stop must be finite, got {spec!r}")
        if step <= 0 or stop < start:
            raise ConfigurationError(f"bad axis {spec!r}")
        n = (stop - start) / step
        # round(n) + 1 points, within the limit exactly when n < limit - 1/2
        # (an overflowing span is inf and fails too)
        if not n < MAX_AXIS_POINTS - 0.5:
            raise ConfigurationError(f"axis {spec!r} has more than {MAX_AXIS_POINTS} points")
        return [start + i * step for i in range(round(n) + 1)]
    return [float(v) for v in spec.split(",")]


def per_user_values(spec, k: int, name: str) -> list:
    """One value per user from a comma list, or all ones when `spec` is None."""
    values = [1.0] * k if spec is None else [float(v) for v in spec.split(",")]
    if len(values) != k:
        raise ConfigurationError(f"{name} needs one value per user (k = {k}), got {spec!r}")
    return values


def resolve_policy(name: str, k: int) -> AllocationPolicy:
    """A PolicyKind value in any case, or an alias: 'non-coordinated' for
    'noncoord', and 'coord' for the natural coordinated policy for K users,
    the random split at K = 3, else round-robin (full coordination at K = 2)."""
    name = name.lower()
    value = {"non-coordinated": "noncoord",
             "coord": "random-split" if k == 3 else "round-robin"}.get(name, name)
    if value not in {kind.value for kind in PolicyKind}:
        raise ConfigurationError(f"unknown policy {name!r}")
    if value == "random-split" and k != 3:
        raise ConfigurationError(f"policy 'random-split' needs k = 3, got k = {k}")
    return AllocationPolicy(PolicyKind(value))


def _output_path(path: str) -> str:
    """The CSV path, refused before any simulation runs if it names a
    directory or lies in a directory that does not exist."""
    if os.path.isdir(path):
        raise ConfigurationError(f"cannot write {path!r}: it is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigurationError(f"cannot write {path!r}: no such directory")
    return path


def build_config(scheme: str, k: int, m: int, lambdas, rates, snr_db: float,
                 u: int = 1, v: int = 1) -> ProtocolConfig:
    profile = FadingProfile(lambdas=tuple(lambdas), tx_antennas=u, rx_antennas=v)
    return ProtocolConfig(profile=profile, rates=tuple(rates),
                          power=db_to_linear(snr_db),
                          scheme=Scheme(scheme.lower()), max_rounds=m)


# ---------------------------------------------------------------------------
# rate optimization


def grid_throughputs(config_template: ProtocolConfig, policy: AllocationPolicy,
                     rate_grid, n_trials: int = 100_000, master_seed: int = 1,
                     n_jobs: int = 1) -> list:
    """Long-run throughput of every (R_A, R_B) pair of `rate_grid` at the
    template's SNR, in grid order.

    One `montecarlo.grid_tables` stack, reduced by one
    `analytic.throughput_closed` call. In closed form each user's resolve
    table is built once per distinct rate (a G x G grid builds 2G of them,
    not 2G^2), and each pair's throughput equals the value
    `analytic_counterparts` reports for it. Otherwise the Monte Carlo count
    tables share their draws, and each pair's throughput equals a separate
    estimate with the same trials and seed.
    """
    rate_grid = [tuple(pair) for pair in rate_grid]
    tables, packets = grid_tables(config_template, policy, rate_grid, n_trials, master_seed,
                                  n_jobs)
    return analytic.throughput_closed(tables, *zip(*rate_grid), packets=packets).tolist()


# Relative throughput gap below which optimize_rates takes two pairs as tied.
_TIE = 1e-12


def optimize_rates(config_template: ProtocolConfig, policy: AllocationPolicy,
                   rate_grid, n_trials: int = 100_000, master_seed: int = 1,
                   n_jobs: int = 1):
    """Exhaustive throughput maximization over (R_A, R_B) pairs at fixed SNR:
    the best pair of grid_throughputs and its own throughput. Pairs within
    _TIE of the largest throughput, relative to it, tie: a closed form
    evaluates mirror pairs of a symmetric setup to within an ulp or two,
    and rounding must not pick among them. Ties go to the smaller
    R_A + R_B, then to the pair listed first."""
    rate_grid = [tuple(pair) for pair in rate_grid]
    etas = grid_throughputs(config_template, policy, rate_grid, n_trials, master_seed, n_jobs)
    best = max(etas)
    _, i = min((sum(pair), i) for i, (pair, eta) in enumerate(zip(rate_grid, etas))
               if best - eta <= _TIE * best)
    return rate_grid[i], etas[i]


# ---------------------------------------------------------------------------
# presets


def _sweep_rows(result, scheme, policy_name, k, m, seed,
                metrics=("outage_user", "throughput", "fairness", "gamma")):
    rows = []
    for i, snr_db in enumerate(result.snr_db):
        est = result.estimates[i]
        ana = result.analytic[i]
        for key, e in est.items():
            if not any(key.startswith(mpfx) for mpfx in metrics):
                continue
            _, per_user, index = key.rpartition("user")
            user = _USER_NAMES[int(index)] if per_user else ""
            rows.append(ResultRow(
                snr_db=snr_db, scheme=scheme, policy=policy_name, k=k, m=m,
                user=user, metric=key, mc_value=e.point, mc_ci95=e.half_width_95,
                analytic_value=ana.get(key, math.nan),
                trials=result.n_trials[i], seed=seed))
    return rows


def preset_fig1a(trials: int, seed: int, n_jobs: int = 1):
    """Two-user outage vs SNR, coordinated vs non-coordinated, M in {2, 3}."""
    rows = []
    axis = [float(s) for s in range(0, 32, 2)]
    for m, scheme, policy_name in itertools.product((2, 3), ("inr",), ("coord", "noncoord")):
        cfg = build_config(scheme, 2, m, (1.0, 1.0), (1.0, 1.0), 0.0)
        pol = resolve_policy(policy_name, 2)
        res = sweep(cfg, pol, axis, trials, seed, n_jobs=n_jobs)
        rows += _sweep_rows(res, scheme, policy_name, 2, m, seed,
                            metrics=("outage_user", "outage_packet", "gamma"))
    return rows


def preset_fig1b(trials: int, seed: int, n_jobs: int = 1):
    """Fairness ratio at 10 dB vs the second user's fading parameter."""
    rows = []
    for lam2 in (1.0, 2.0, 4.0, 8.0):
        for scheme, policy_name in itertools.product(("rtd", "inr"), ("coord", "noncoord")):
            cfg = build_config(scheme, 2, 2, (1.0, lam2), (1.0, 1.0), 10.0)
            pol = resolve_policy(policy_name, 2)
            est = estimate(cfg, pol, trials, seed, n_jobs=n_jobs)
            ana = analytic_counterparts(cfg, pol)
            e = est["fairness"]
            rows.append(ResultRow(
                snr_db=10.0, scheme=scheme, policy=policy_name, k=2, m=2,
                metric=f"fairness_lambda2={lam2:g}", mc_value=e.point,
                mc_ci95=e.half_width_95, analytic_value=ana.get("fairness", math.nan),
                trials=trials, seed=seed))
    return rows


def preset_fig1c(trials: int, seed: int, n_jobs: int = 1):
    """Throughput with exhaustively optimized rates vs SNR.

    SISO curves are evaluated analytically; the 2x2 MIMO curves by Monte
    Carlo over a symmetric-rate grid (the setup is user-symmetric).
    """
    rows = []
    axis = [float(s) for s in range(0, 33, 3)]
    rates = [0.5 * i for i in range(1, 17)]
    grid = [(ra, rb) for ra in rates for rb in rates]
    for scheme, policy_name in itertools.product(("rtd", "inr"), ("coord", "noncoord")):
        pol = resolve_policy(policy_name, 2)
        for snr_db in axis:
            cfg = build_config(scheme, 2, 2, (1.0, 1.0), (1.0, 1.0), snr_db)
            pair, eta = optimize_rates(cfg, pol, grid)
            for metric, value in (("throughput_optimized", eta), ("rate_sum_optimal", sum(pair))):
                rows.append(ResultRow(snr_db=snr_db, scheme=scheme, policy=policy_name, k=2,
                                      m=2, metric=metric, analytic_value=value, seed=seed))
    sym_grid = [(0.5 * i, 0.5 * i) for i in range(1, 33)]
    mimo_trials = min(trials, 20_000)
    for scheme, policy_name in itertools.product(("rtd", "inr"), ("coord", "noncoord")):
        pol = resolve_policy(policy_name, 2)
        for snr_db in axis:
            cfg = build_config(scheme, 2, 2, (1.0, 1.0), (1.0, 1.0), snr_db, u=2, v=2)
            pair, eta = optimize_rates(cfg, pol, sym_grid, n_trials=mimo_trials,
                                       master_seed=seed, n_jobs=n_jobs)
            rows.append(ResultRow(
                snr_db=snr_db, scheme=scheme, policy=policy_name, k=2, m=2,
                metric="throughput_optimized_mimo2x2", mc_value=eta,
                trials=mimo_trials, seed=seed))
    return rows


def preset_fig2(trials: int, seed: int, n_jobs: int = 1):
    """Three-user outage vs SNR, random-split coordination vs none, R in {1, 2}."""
    rows = []
    axis = [float(s) for s in range(0, 32, 2)]
    for rate, scheme, policy_name in itertools.product(
            (1.0, 2.0), ("rtd", "inr"), ("coord", "noncoord")):
        cfg = build_config(scheme, 3, 2, (1.0, 1.0, 1.0), (rate, rate, rate), 0.0)
        pol = resolve_policy(policy_name, 3)
        res = sweep(cfg, pol, axis, trials, seed, n_jobs=n_jobs)
        rows += [dataclasses.replace(row, metric=f"outage_R={rate:g}")
                 for row in _sweep_rows(res, scheme, policy_name, 3, 2, seed, ("outage_user",))]
    return rows


PRESETS = {
    "fig1a": preset_fig1a,
    "fig1b": preset_fig1b,
    "fig1c": preset_fig1c,
    "fig2": preset_fig2,
}


# ---------------------------------------------------------------------------
# argument parsing and commands


def _add_common(p):
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)


def _add_setup(p):
    """The link setup options that `sweep` and `optimize` share."""
    p.add_argument("--scheme", default="rtd", choices=["rtd", "inr"])
    p.add_argument("--policy", default="coord")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--lambdas", default=None, help="comma-separated, default all 1")
    p.add_argument("--tx", type=int, default=1)
    p.add_argument("--rx", type=int, default=1)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigurationError, so it ends in
    one `config error:` line and exit code 2 like any other bad input."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser():
    p = _Parser(prog="coharq", description="Coordinated HARQ analytics and simulation")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a named experiment preset or a config file")
    source = pr.add_mutually_exclusive_group()
    source.add_argument("--preset", default=None, choices=sorted(PRESETS))
    source.add_argument("--config", default=None, help="INI file with one section per run")
    pr.add_argument("--out", default=None)
    _add_common(pr)

    ps = sub.add_parser("sweep", help="outage/throughput sweep over an SNR axis")
    _add_setup(ps)
    ps.add_argument("--k", type=int, default=2)
    ps.add_argument("--rates", default=None, help="comma-separated, default all 1")
    ps.add_argument("--snr-db", default="0:2:30")
    ps.add_argument("--out", default=None)
    _add_common(ps)

    po = sub.add_parser("optimize", help="exhaustive rate search at one SNR")
    _add_setup(po)
    po.add_argument("--grid", default="0.25:0.25:8")
    po.add_argument("--snr-db", type=float, default=10.0)
    _add_common(po)

    pa = sub.add_parser("analytic", help="evaluate a formula directly")
    pa.add_argument("--op", required=True,
                    choices=["cdf-rtd", "cdf-inr", "phi", "events", "diversity"])
    pa.add_argument("--n", type=int, default=1)
    pa.add_argument("--m", type=int, default=1)
    pa.add_argument("--lambdas", default="1,2")
    pa.add_argument("--power", type=float, default=1.0)
    pa.add_argument("--x", type=float, default=1.0)
    pa.add_argument("--scheme", default="rtd", choices=["rtd", "inr"])
    pa.add_argument("--rate-a", type=float, default=1.0)
    pa.add_argument("--rate-b", type=float, default=1.0)
    pa.add_argument("--max-rounds", type=int, default=2)
    pa.add_argument("--helpers", type=int, default=1)
    return p


def _plan_sweep(opts: dict):
    """Check one sweep run and return a function of n_jobs that runs it and
    returns its CSV rows. `opts` holds every `sweep` option but --out and
    --jobs, from the command line or from a `run --config` section."""
    k, m, seed = opts["k"], opts["m"], opts["seed"]
    cfg = build_config(opts["scheme"], k, m, per_user_values(opts["lambdas"], k, "lambdas"),
                       per_user_values(opts["rates"], k, "rates"), 0.0,
                       u=opts["tx"], v=opts["rx"])
    pol = resolve_policy(opts["policy"], k)
    axis = parse_axis(opts["snr_db"])

    def run(n_jobs):
        res = sweep(cfg, pol, axis, opts["trials"], seed, n_jobs=n_jobs)
        return _sweep_rows(res, opts["scheme"], opts["policy"], k, m, seed)
    return run


def _section_options(section, args) -> dict:
    """A config section's keys over the `sweep` defaults and `run`'s flags."""
    opts = vars(_build_parser().parse_args(["sweep"]))
    del opts["command"], opts["out"], opts["jobs"]
    opts.update(trials=args.trials, seed=args.seed)
    for key, value in section.items():
        if key not in opts:
            raise ConfigurationError(f"unknown key {key!r} in section [{section.name}]; "
                                     f"keys are {', '.join(opts)}")
        opts[key] = int(value) if isinstance(opts[key], int) else value
    check_seed(opts["seed"])
    return opts


def _write(rows, out) -> int:
    """Write `rows` to `out`, checked by _output_path before they were made."""
    emit_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_run(args) -> int:
    if args.preset:
        out = _output_path(args.out or f"{args.preset}.csv")
        return _write(PRESETS[args.preset](args.trials, args.seed, n_jobs=args.jobs), out)
    if args.config:
        cp = configparser.ConfigParser()
        if not cp.read(args.config):
            raise ConfigurationError(f"cannot read config file {args.config!r}")
        runs = [_plan_sweep(_section_options(cp[name], args)) for name in cp.sections()]
        out = _output_path(args.out or "results.csv")
        return _write([row for run in runs for row in run(args.jobs)], out)
    raise ConfigurationError("run needs --preset or --config")


def _cmd_sweep(args) -> int:
    run = _plan_sweep(vars(args))
    out = _output_path(args.out or "sweep.csv")
    return _write(run(args.jobs), out)


def _cmd_optimize(args) -> int:
    # the rate grid holds (R_A, R_B) pairs: two users
    cfg = build_config(args.scheme, 2, args.m, per_user_values(args.lambdas, 2, "lambdas"),
                       [1.0, 1.0], args.snr_db, u=args.tx, v=args.rx)
    pol = resolve_policy(args.policy, 2)
    vals = parse_axis(args.grid)
    grid = [(ra, rb) for ra in vals for rb in vals]
    pair, eta = optimize_rates(cfg, pol, grid, n_trials=args.trials, master_seed=args.seed,
                               n_jobs=args.jobs)
    print(f"best rates: {pair}, throughput {eta:.6f} npcu")
    return 0


def _cmd_analytic(args) -> int:
    profile = FadingProfile(lambdas=[float(v) for v in args.lambdas.split(",")])
    if profile.n_bands != 2:
        raise ConfigurationError(f"--lambdas needs two values, got {args.lambdas!r}")
    if not math.isfinite(args.x):
        raise ConfigurationError(f"--x must be finite, got {args.x}")
    # the power, rates and rounds are checked as a two-user link's
    ProtocolConfig(profile, (args.rate_a, args.rate_b), args.power, Scheme(args.scheme),
                   args.max_rounds)
    lambdas = profile.lambdas
    if args.op == "cdf-rtd":
        print(analytic.cdf_rtd_sum(args.n, args.m, lambdas, args.power, args.x))
    elif args.op == "cdf-inr":
        print(analytic.cdf_inr_sum(args.n, args.m, lambdas, args.power, args.x))
    elif args.op == "phi":
        # user B still short after the coordinated slot: two own-band
        # copies and one donated copy below its gain threshold
        print(analytic.gain_sum_cdf(1, 2, lambdas, analytic._gain_threshold(args.rate_b,
                                                                              args.power)))
    elif args.op == "events":
        table = analytic.event_table(Scheme(args.scheme), args.max_rounds, lambdas,
                                     args.power, args.rate_a, args.rate_b)
        probs = {analytic.event_label(i, j): p
                 for i, row in enumerate(table.tolist()) for j, p in enumerate(row)}
        for lbl in sorted(probs):
            print(f"{lbl} {probs[lbl]!r}")
        print(f"gamma {analytic.packets_per_slot(table)!r}")
    elif args.op == "diversity":
        print(analytic.diversity_gain(args.helpers, args.max_rounds))
    return 0


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "optimize": _cmd_optimize,
             "analytic": _cmd_analytic}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command != "analytic":
            check_seed(args.seed)
            for name in ("trials", "jobs"):
                value = getattr(args, name)
                if value < 1:
                    raise ConfigurationError(f"--{name} must be at least 1, got {value}")
        return _COMMANDS[args.command](args)
    except (ConfigurationError, ValueError, configparser.Error) as exc:
        # configparser messages span several lines
        print("config error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
