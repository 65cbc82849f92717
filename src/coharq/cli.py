"""Command-line front end: presets, sweeps, rate optimization, CSV output.

Presets reproduce the headline experiments: outage vs SNR for coordinated
vs non-coordinated HARQ (fig1a), the fairness ratio vs the second user's
fading parameter (fig1b), throughput with exhaustively optimized rates
(fig1c), and the three-user outage curves (fig2). All output is plot-ready
CSV; plotting itself is out of process.

Exit codes: 0 success, 2 configuration error, 3 fit/range error.
"""

import argparse
import configparser
import csv
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, montecarlo
from .fading import ConfigurationError, FadingProfile
from .montecarlo import (AllocationPolicy, FitWindowError, RangeError,
                         analytic_counterparts, db_to_linear, estimate, sweep)
from .protocol import PolicyKind, ProtocolConfig
from .rates import Scheme

CSV_HEADER = ["snr_db", "scheme", "policy", "k", "m", "user", "metric",
              "mc_value", "mc_ci95", "analytic_value", "trials", "seed"]

_USER_NAMES = "ABCDEFGH"


@dataclass(frozen=True)
class ResultRow:
    snr_db: float
    scheme: str
    policy: str
    k: int
    m: int
    user: str           # "A", "B", ... or "" for system-level metrics
    metric: str
    mc_value: float     # NaN when analytic-only
    mc_ci95: float
    analytic_value: float  # NaN when Monte Carlo only
    trials: int
    seed: int


def emit_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow([_fmt(r.snr_db), r.scheme, r.policy, r.k, r.m, r.user, r.metric,
                        _fmt(r.mc_value), _fmt(r.mc_ci95), _fmt(r.analytic_value),
                        r.trials, r.seed])


def parse_csv(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise ConfigurationError(f"unexpected CSV header in {path}")
        for rec in reader:
            rows.append(ResultRow(
                snr_db=float(rec["snr_db"]), scheme=rec["scheme"], policy=rec["policy"],
                k=int(rec["k"]), m=int(rec["m"]), user=rec["user"], metric=rec["metric"],
                mc_value=float(rec["mc_value"]), mc_ci95=float(rec["mc_ci95"]),
                analytic_value=float(rec["analytic_value"]),
                trials=int(rec["trials"]), seed=int(rec["seed"])))
    return rows


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
        if step <= 0 or stop < start:
            raise ConfigurationError(f"bad axis {spec!r}")
        n = int(round((stop - start) / step))
        return [start + i * step for i in range(n + 1)]
    return [float(v) for v in spec.split(",")]


def resolve_policy(name: str, k: int) -> AllocationPolicy:
    """'coord' selects the natural coordinated policy for K users."""
    name = name.lower()
    if name in ("noncoord", "non-coordinated"):
        return AllocationPolicy(PolicyKind.NON_COORDINATED)
    if name == "coord":
        if k == 2:
            return AllocationPolicy(PolicyKind.FULL_COORDINATION_K2)
        if k == 3:
            return AllocationPolicy(PolicyKind.RANDOM_SPLIT_K3)
        return AllocationPolicy(PolicyKind.ROUND_ROBIN_GENERAL)
    if name == "random-split":
        return AllocationPolicy(PolicyKind.RANDOM_SPLIT_K3)
    if name == "round-robin":
        return AllocationPolicy(PolicyKind.ROUND_ROBIN_GENERAL)
    raise ConfigurationError(f"unknown policy {name!r}")


def build_config(scheme: str, k: int, m: int, lambdas, rates, snr_db: float,
                 u: int = 1, v: int = 1) -> ProtocolConfig:
    profile = FadingProfile(lambdas=tuple(lambdas), tx_antennas=u, rx_antennas=v)
    return ProtocolConfig(profile=profile, rates=tuple(rates),
                          power=db_to_linear(snr_db),
                          scheme=Scheme(scheme.lower()), max_rounds=m)


# ---------------------------------------------------------------------------
# rate optimization


def optimize_rates(config_template: ProtocolConfig, policy: AllocationPolicy,
                   rate_grid, n_trials: int = 100_000, master_seed: int = 1):
    """Exhaustive throughput maximization over (R_A, R_B) pairs at fixed SNR.

    Analytic evaluation for two-user SISO (both policies); Monte Carlo
    otherwise. Ties go to the smaller R_A + R_B.
    """
    rate_grid = list(rate_grid)
    if not rate_grid:
        raise ConfigurationError("empty rate grid")
    use_analytic = config_template.n_users == 2 and config_template.profile.is_siso \
        and policy.kind in (PolicyKind.FULL_COORDINATION_K2, PolicyKind.NON_COORDINATED)
    best_pair, best_eta = None, -1.0
    for pair in rate_grid:
        cfg = replace(config_template, rates=tuple(pair))
        if use_analytic:
            eta = analytic_counterparts(cfg, policy)["throughput"]
        else:
            eta = estimate(cfg, policy, n_trials, master_seed)["throughput"].point
        if eta > best_eta or (eta == best_eta and sum(pair) < sum(best_pair)):
            best_pair, best_eta = tuple(pair), eta
    return best_pair, best_eta


# ---------------------------------------------------------------------------
# presets


def _sweep_rows(result, scheme, policy_name, k, m, seed, metrics=("outage",)):
    rows = []
    for i, snr_db in enumerate(result.snr_db):
        est = result.estimates[i]
        ana = result.analytic[i]
        for key, e in est.items():
            if not any(key.startswith(mpfx) for mpfx in metrics):
                continue
            user = ""
            if key.endswith(tuple(f"user{j}" for j in range(k))):
                user = _USER_NAMES[int(key[-1])]
            rows.append(ResultRow(
                snr_db=snr_db, scheme=scheme, policy=policy_name, k=k, m=m,
                user=user, metric=key, mc_value=e.point, mc_ci95=e.half_width_95,
                analytic_value=ana.get(key, float("nan")),
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
                snr_db=10.0, scheme=scheme, policy=policy_name, k=2, m=2, user="",
                metric=f"fairness_lambda2={lam2:g}", mc_value=e.point,
                mc_ci95=e.half_width_95,
                analytic_value=ana.get("fairness", float("nan")),
                trials=trials, seed=seed))
    return rows


def default_rate_grid(step: float = 0.25, stop: float = 8.0):
    n = int(round(stop / step))
    vals = [step * i for i in range(1, n + 1)]
    return [(ra, rb) for ra in vals for rb in vals]


def preset_fig1c(trials: int, seed: int, n_jobs: int = 1, include_mimo: bool = True,
                 grid_step: float = 0.5):
    """Throughput with exhaustively optimized rates vs SNR.

    SISO curves are evaluated analytically; the 2x2 MIMO curves by Monte
    Carlo over a symmetric-rate grid (the setup is user-symmetric).
    """
    rows = []
    axis = [float(s) for s in range(0, 33, 3)]
    grid = default_rate_grid(step=grid_step)
    for scheme, policy_name in itertools.product(("rtd", "inr"), ("coord", "noncoord")):
        pol = resolve_policy(policy_name, 2)
        for snr_db in axis:
            cfg = build_config(scheme, 2, 2, (1.0, 1.0), (1.0, 1.0), snr_db)
            pair, eta = optimize_rates(cfg, pol, grid)
            rows.append(ResultRow(
                snr_db=snr_db, scheme=scheme, policy=policy_name, k=2, m=2, user="",
                metric="throughput_optimized", mc_value=float("nan"), mc_ci95=float("nan"),
                analytic_value=eta, trials=0, seed=seed))
            rows.append(ResultRow(
                snr_db=snr_db, scheme=scheme, policy=policy_name, k=2, m=2, user="",
                metric="rate_sum_optimal", mc_value=float("nan"), mc_ci95=float("nan"),
                analytic_value=pair[0] + pair[1], trials=0, seed=seed))
    if include_mimo:
        sym_grid = [(r, r) for r in
                    [grid_step * i for i in range(1, int(round(16.0 / grid_step)) + 1)]]
        mimo_trials = min(trials, 20_000)
        for scheme, policy_name in itertools.product(("rtd", "inr"), ("coord", "noncoord")):
            pol = resolve_policy(policy_name, 2)
            for snr_db in axis:
                cfg = build_config(scheme, 2, 2, (1.0, 1.0), (1.0, 1.0), snr_db, u=2, v=2)
                pair, eta = optimize_rates(cfg, pol, sym_grid,
                                           n_trials=mimo_trials, master_seed=seed)
                rows.append(ResultRow(
                    snr_db=snr_db, scheme=scheme, policy=policy_name, k=2, m=2, user="",
                    metric="throughput_optimized_mimo2x2", mc_value=eta,
                    mc_ci95=float("nan"), analytic_value=float("nan"),
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
        for i, snr_db in enumerate(res.snr_db):
            for u in range(3):
                e = res.estimates[i][f"outage_user{u}"]
                rows.append(ResultRow(
                    snr_db=snr_db, scheme=scheme, policy=policy_name, k=3, m=2,
                    user=_USER_NAMES[u], metric=f"outage_R={rate:g}",
                    mc_value=e.point, mc_ci95=e.half_width_95,
                    analytic_value=float("nan"), trials=trials, seed=seed))
    return rows


PRESETS = {
    "fig1a": preset_fig1a,
    "fig1b": preset_fig1b,
    "fig1c": preset_fig1c,
    "fig2": preset_fig2,
}


def run_preset(name: str, trials: int, seed: int, out_path, n_jobs: int = 1):
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    rows = PRESETS[name](trials, seed, n_jobs=n_jobs)
    emit_csv(rows, out_path)
    return rows


# ---------------------------------------------------------------------------
# argument parsing and commands


def _add_common(p):
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)


def _build_parser():
    p = argparse.ArgumentParser(prog="coharq",
                                description="Coordinated HARQ analytics and simulation")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a named experiment preset or a config file")
    pr.add_argument("--preset", default=None, choices=sorted(PRESETS))
    pr.add_argument("--config", default=None, help="INI file with one section per run")
    _add_common(pr)

    ps = sub.add_parser("sweep", help="outage/throughput sweep over an SNR axis")
    ps.add_argument("--scheme", default="rtd", choices=["rtd", "inr"])
    ps.add_argument("--policy", default="coord")
    ps.add_argument("--k", type=int, default=2)
    ps.add_argument("--m", type=int, default=2)
    ps.add_argument("--lambdas", default=None, help="comma-separated, default all 1")
    ps.add_argument("--rates", default=None, help="comma-separated, default all 1")
    ps.add_argument("--snr-db", default="0:2:30")
    ps.add_argument("--tx", type=int, default=1)
    ps.add_argument("--rx", type=int, default=1)
    _add_common(ps)

    po = sub.add_parser("optimize", help="exhaustive rate search at one SNR")
    po.add_argument("--grid", default="0.25:0.25:8")
    po.add_argument("--scheme", default="rtd", choices=["rtd", "inr"])
    po.add_argument("--policy", default="coord")
    po.add_argument("--k", type=int, default=2)
    po.add_argument("--m", type=int, default=2)
    po.add_argument("--lambdas", default=None)
    po.add_argument("--snr-db", type=float, default=10.0)
    po.add_argument("--tx", type=int, default=1)
    po.add_argument("--rx", type=int, default=1)
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


def _cmd_run(args) -> int:
    if args.preset:
        rows = run_preset(args.preset, args.trials, args.seed,
                          args.out or f"{args.preset}.csv", n_jobs=args.jobs)
        print(f"wrote {len(rows)} rows to {args.out or args.preset + '.csv'}")
        return 0
    if args.config:
        cp = configparser.ConfigParser()
        if not cp.read(args.config):
            raise ConfigurationError(f"cannot read config file {args.config!r}")
        all_rows = []
        for section in cp.sections():
            s = cp[section]
            k = s.getint("k", 2)
            lambdas = [float(v) for v in s.get("lambdas", ",".join(["1"] * k)).split(",")]
            rates = [float(v) for v in s.get("rates", ",".join(["1"] * k)).split(",")]
            cfg = build_config(s.get("scheme", "rtd"), k, s.getint("m", 2),
                               lambdas, rates, 0.0,
                               u=s.getint("tx", 1), v=s.getint("rx", 1))
            pol = resolve_policy(s.get("policy", "coord"), k)
            axis = parse_axis(s.get("snr_db", "0:2:30"))
            res = sweep(cfg, pol, axis, s.getint("trials", args.trials),
                        s.getint("seed", args.seed), n_jobs=args.jobs)
            all_rows += _sweep_rows(res, s.get("scheme", "rtd"), s.get("policy", "coord"),
                                    k, s.getint("m", 2), s.getint("seed", args.seed),
                                    metrics=("outage_user", "throughput", "fairness", "gamma"))
        out = args.out or "results.csv"
        emit_csv(all_rows, out)
        print(f"wrote {len(all_rows)} rows to {out}")
        return 0
    raise ConfigurationError("run needs --preset or --config")


def _cmd_sweep(args) -> int:
    k = args.k
    lambdas = [float(v) for v in args.lambdas.split(",")] if args.lambdas else [1.0] * k
    rates = [float(v) for v in args.rates.split(",")] if args.rates else [1.0] * k
    cfg = build_config(args.scheme, k, args.m, lambdas, rates, 0.0, u=args.tx, v=args.rx)
    pol = resolve_policy(args.policy, k)
    axis = parse_axis(args.snr_db)
    res = sweep(cfg, pol, axis, args.trials, args.seed, n_jobs=args.jobs)
    rows = _sweep_rows(res, args.scheme, args.policy, k, args.m, args.seed,
                       metrics=("outage_user", "throughput", "fairness", "gamma"))
    out = args.out or "sweep.csv"
    emit_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_optimize(args) -> int:
    k = args.k
    lambdas = [float(v) for v in args.lambdas.split(",")] if args.lambdas else [1.0] * k
    cfg = build_config(args.scheme, k, args.m, lambdas, [1.0] * k, args.snr_db,
                       u=args.tx, v=args.rx)
    pol = resolve_policy(args.policy, k)
    vals = parse_axis(args.grid)
    grid = [(ra, rb) for ra in vals for rb in vals]
    pair, eta = optimize_rates(cfg, pol, grid, n_trials=args.trials, master_seed=args.seed)
    print(f"best rates: {pair}, throughput {eta:.6f} npcu")
    return 0


def _cmd_analytic(args) -> int:
    lambdas = FadingProfile(lambdas=[float(v) for v in args.lambdas.split(",")]).lambdas
    if len(lambdas) != 2:
        raise ConfigurationError(f"--lambdas needs two values, got {args.lambdas!r}")
    for name in ("x", "power", "rate_a", "rate_b"):
        if not math.isfinite(getattr(args, name)):
            raise ConfigurationError(f"--{name.replace('_', '-')} must be finite, "
                                     f"got {getattr(args, name)}")
    if not args.power > 0:
        raise ConfigurationError(f"--power must be positive, got {args.power}")
    if args.max_rounds < 1:
        raise ConfigurationError(f"--max-rounds must be at least 1, got {args.max_rounds}")
    if args.rate_a < 0 or args.rate_b < 0:
        raise ConfigurationError("--rate-a and --rate-b must be nonnegative")
    if args.op == "cdf-rtd":
        print(analytic.cdf_rtd_sum(args.n, args.m, lambdas, args.power, args.x))
    elif args.op == "cdf-inr":
        print(analytic.cdf_inr_sum(args.n, args.m, lambdas, args.power, args.x))
    elif args.op == "phi":
        tp = analytic.ThresholdPair.from_rates(args.rate_a, args.rate_b, args.power)
        print(analytic.phi_coordinated(tp, lambdas))
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "analytic":
            return _cmd_analytic(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FitWindowError, RangeError) as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
