"""The three benchmark workloads and the checks on their outputs.

Each workload is a reduced, seedable form of a computation users run:

- outage_sweep_k2: acceptance criterion 4 (two-user outage vs SNR, RTD and
  INR, coordinated and not), trials per point sized from the closed form;
- energy_gap_k3: acceptance criterion 5 (three-user INR, random split vs
  non-coordinated, SNR gap at outage 1e-4);
- rate_optimize: the fig1c/fig1b exhaustive rate search, closed-form SISO
  grids plus the Monte Carlo 2x2 MIMO symmetric-rate search.

A workload runs in repetitions. Every repetition draws its own master seed
and a small SNR offset from the benchmark seed; the offset keeps values
cached by an earlier repetition from serving a later one, as they would not
across separate `coharq` commands. Each call into coharq is one timed
operation; the checks run after the repetition and are not timed.
"""

import math
import random
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.signal import fftconvolve
from scipy.stats import binom

from coharq import cli, montecarlo, protocol
from coharq.fading import Substream

# Family-wise false-alarm rate of the closed-form agreement checks within one
# repetition, split over its comparisons (Bonferroni).
FAMILY_ALPHA = 1e-4

# Absolute accuracy that analytic.cdf_inr_sum documents for its convolution;
# the agreement checks give every closed-form outage this much slack.
CLOSED_FORM_TOL = 1e-6

# Trials per simulated config that the scalar protocol re-runs as an oracle.
ORACLE_TRIALS = 32
MIMO_ORACLE_TRIALS = 8

# The relative 95% half-width that time_to_ci10_s projects to.
CI_TARGET = 0.10

# Operation kinds. SIM amounts are packets, TABLE amounts event tables; CI
# operations are timed after the repetition and feed time_to_ci10_s only.
SIM, TABLE, IO, CI = "sim", "table", "io", "ci"


def agrees(outages: int, trials: int, p: float, comparisons: int) -> bool:
    """Exact two-sided binomial test at FAMILY_ALPHA / comparisons: the
    outage count is plausible for some outage probability within
    CLOSED_FORM_TOL of the closed form p."""
    gate = FAMILY_ALPHA / (2.0 * comparisons)
    too_many = binom.sf(outages - 1, trials, min(p + CLOSED_FORM_TOL, 1.0)) < gate
    too_few = binom.cdf(outages, trials, max(p - CLOSED_FORM_TOL, 0.0)) < gate
    return not (too_many or too_few)


def outage_count(est, user: int) -> int:
    e = est[f"outage_packet_user{user}"]
    return round(e.point * e.trials)


def ci_factor(estimate) -> float:
    """(relative half-width / CI_TARGET)^2: the factor by which the trials,
    and so the seconds, must grow for a CI_TARGET relative half-width."""
    return (estimate.half_width_95 / estimate.point / CI_TARGET) ** 2


@dataclass
class Tally:
    """Checked operations: attempted, failed, and the failures that belong
    to the known closed-form defect (RTD event tables for near-equal fading
    parameters, where the partial fractions cancel)."""

    attempted: int = 0
    failed: int = 0
    known_defect: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, what: str, known_defect: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if known_defect:
                self.known_defect += 1
            else:
                self.messages.append(what)


# The machine this benchmark was tuned on (2-vCPU Xeon VM, 2.1 GHz) runs
# CPU-bound code up to 1.8x slower for seconds to minutes at a time, with no
# steal time and CPU time equal to wall time, so a whole run can fall in a
# slow phase. Each operation is therefore timed between two runs of a fixed
# reference loop and reported at the reference's nominal speed: its seconds
# times REF_NOMINAL_S over the mean of the two reference times (README.md
# has the figures).
REF_NOMINAL_S = 1.5e-3
_REF_ARRAY = np.linspace(0.1, 1.0, 2048)
_REF_KERNEL = np.linspace(0.0, 1.0, 500)


def reference_seconds() -> float:
    """Seconds the reference loop takes now. It mixes what coharq runs:
    interpreter work, small cache-resident numpy calls and the small FFT
    convolutions of the INR closed form."""
    t = perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i & 7
    for _ in range(30):
        np.exp(_REF_ARRAY).sum()
    for _ in range(10):
        fftconvolve(_REF_KERNEL, _REF_KERNEL)
    return perf_counter() - t


def at_nominal_speed(seconds: float, ref_seconds: float) -> float:
    return seconds * REF_NOMINAL_S / ref_seconds


@dataclass
class Rep:
    """One repetition's timed operations, key -> (kind, seconds at nominal
    speed, amount), their measured seconds, and the CI factor of each
    operation whose point clears the outage floor. Keys name the same
    operation in every repetition."""

    ops: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    ci: dict = field(default_factory=dict)

    def run(self, tracer, key, kind: str, amount: int, fn, *args, **kwargs):
        before = reference_seconds()
        with tracer.operation(kind):
            t = perf_counter()
            out = fn(*args, **kwargs)
            seconds = perf_counter() - t
        ref = 0.5 * (before + reference_seconds())
        self.measured[key] = seconds
        self.ops[key] = (kind, at_nominal_speed(seconds, ref), amount)
        return out

    @property
    def wall_s(self) -> float:
        return sum(s for kind, s, _ in self.ops.values() if kind != CI)

    @property
    def measured_wall_s(self) -> float:
        return sum(s for k, s in self.measured.items() if self.ops[k][0] != CI)


def summarize(reps) -> dict:
    """End-to-end timings, {name: (value, unit)}, from each operation's
    median time at nominal speed over the repetitions."""
    ops = reps[0].ops
    typical = {k: statistics.median(r.ops[k][1] for r in reps) for k in ops}

    def seconds(kind):
        return sum(typical[k] for k, (kd, _, _) in ops.items() if kd == kind)

    def amount(kind):
        return sum(a for kd, _, a in ops.values() if kd == kind)

    ci10 = 0.0
    for k in ops:
        factors = [r.ci[k] for r in reps if k in r.ci]
        if 2 * len(factors) >= len(reps):
            ci10 += typical[k] * statistics.median(factors)
    return {
        "wall_s": (sum(typical[k] for k, (kd, _, _) in ops.items() if kd != CI), "s"),
        "packets_per_s": (amount(SIM) / seconds(SIM), "packets/s"),
        "time_to_ci10_s": (ci10, "s"),
        "evals_per_s": (amount(TABLE) / seconds(TABLE), "tables/s"),
    }


@dataclass(frozen=True)
class RepInputs:
    master_seed: int
    snr_offset_db: float


def rep_inputs(seed: int):
    """Endless, seed-determined sequence of repetition inputs."""
    rng = random.Random(seed)
    while True:
        yield RepInputs(master_seed=rng.getrandbits(31), snr_offset_db=rng.uniform(0.0, 0.01))


def oracle_check(cfg, pol, master_seed: int, n: int, tally: Tally, tracer) -> None:
    """The scalar protocol must reproduce the engine's decode rounds exactly
    on trials [0, n)."""
    with tracer.operation("oracle"):
        rounds = montecarlo.simulate_rounds(cfg, pol, n, master_seed)
        mismatches = 0
        for trial in range(n):
            out = protocol.run_packet(cfg, pol, Substream(master_seed, trial=trial))
            expect = [0 if r < 0 else r for r in out.decode_round]
            mismatches += list(rounds[trial]) != expect
    tracer.count("oracle_mismatches", mismatches)
    tally.check(mismatches == 0,
                f"scalar oracle differs on {mismatches}/{n} trials: {cfg.scheme.value} "
                f"{pol.kind.value} K={cfg.n_users} P={cfg.power:.4g} rates={cfg.rates}")


class OutageSweepK2:
    name = "outage_sweep_k2"
    # typical seconds per repetition, checks included (2-vCPU Xeon, 2.1 GHz)
    rep_seconds = 3.0
    axis_db = [4.0 + 2.0 * i for i in range(15)]
    curves = [(s, p) for s in ("rtd", "inr") for p in ("noncoord", "coord")]
    # Trials per point: enough for target_outages expected outages by the
    # closed form, within [min_trials, cap]. The outage floor of
    # time_to_ci10_s is the same target: points the cap keeps below it are
    # left out.
    target_outages = 20
    min_trials = 2_000
    cap = 200_000

    def __init__(self):
        self.oracle_configs = []

    def run_rep(self, inp: RepInputs, tally: Tally, tracer) -> Rep:
        rep = Rep()
        points = []
        with tracer.installed():
            for c, (scheme, pname) in enumerate(self.curves):
                pol = cli.resolve_policy(pname, 2)
                for i, snr in enumerate(self.axis_db):
                    snr += inp.snr_offset_db
                    cfg = cli.build_config(scheme, 2, 2, (1.0, 1.0), (1.0, 1.0), snr)
                    p = rep.run(tracer, ("closed", c, i), TABLE, 1,
                                montecarlo.analytic_counterparts, cfg, pol)["outage_user1"]
                    n = math.ceil(min(max(self.target_outages / max(p, 1e-12),
                                          self.min_trials), self.cap))
                    res = rep.run(tracer, ("sweep", c, i), SIM, n, montecarlo.sweep,
                                  cfg, pol, [snr], [n], inp.master_seed)
                    points.append((("sweep", c, i), cfg, pol, n, p, res))

        for key, cfg, pol, n, p, res in points:
            est, ana = res.estimates[0], res.analytic[0]
            counts = [outage_count(est, u) for u in range(2)]
            closed = [ana[f"outage_packet_user{u}"] for u in range(2)]
            tally.check(all(agrees(k, n, q, 2 * len(points)) for k, q in zip(counts, closed)),
                        f"outage counts {counts} in {n} trials disagree with closed form "
                        f"{closed}: {cfg.scheme.value} {pol.kind.value} P={cfg.power:.4g}")
            if n * p >= 0.999 * self.target_outages and est["outage_user1"].point > 0:
                rep.ci[key] = ci_factor(est["outage_user1"])
        if not self.oracle_configs:
            self.oracle_configs = [(cfg, pol, inp.master_seed) for _, cfg, pol, *_ in points]
        return rep

    def finish(self, tally: Tally, tracer) -> None:
        for cfg, pol, master_seed in self.oracle_configs:
            oracle_check(cfg, pol, master_seed, ORACLE_TRIALS, tally, tracer)


class EnergyGapK3:
    name = "energy_gap_k3"
    # typical seconds per repetition, checks included (2-vCPU Xeon, 2.1 GHz)
    rep_seconds = 2.5
    axis_db = [10.0 + 2.0 * i for i in range(9)]
    policies = ("noncoord", "coord")
    trials = 200_000
    epsilon = 1e-4
    # There is no closed form for the coordinated K=3 curve, so the outage
    # floor of time_to_ci10_s is on the per-packet estimate. The points
    # nearest to it (14 dB non-coordinated, 10 dB coordinated) sit a factor
    # 1.4 above it, five standard errors at the trial count per repetition.
    ci_floor = 1e-3

    def __init__(self):
        self.oracle_configs = []
        # per (policy, point): [snr sum, repetitions, outages, slots, trials]
        self.pooled = {}

    def run_rep(self, inp: RepInputs, tally: Tally, tracer) -> Rep:
        rep = Rep()
        closed, sims = [], []
        noncoord2 = cli.resolve_policy("noncoord", 2)
        with tracer.installed():
            # Non-coordinated users are independent single-user HARQ links, so
            # each K=3 user's per-packet outage is the K=2 closed form's.
            for i, snr in enumerate(self.axis_db):
                cfg2 = cli.build_config("inr", 2, 2, (1.0, 1.0), (1.0, 1.0),
                                        snr + inp.snr_offset_db)
                closed.append(rep.run(tracer, ("closed", i), TABLE, 1,
                                      montecarlo.analytic_counterparts,
                                      cfg2, noncoord2)["outage_packet_user0"])
            for pi, pname in enumerate(self.policies):
                pol = cli.resolve_policy(pname, 3)
                for i, snr in enumerate(self.axis_db):
                    snr += inp.snr_offset_db
                    cfg = cli.build_config("inr", 3, 2, (1.0,) * 3, (1.0,) * 3, snr)
                    res = rep.run(tracer, ("sweep", pi, i), SIM, self.trials, montecarlo.sweep,
                                  cfg, pol, [snr], [self.trials], inp.master_seed)
                    sims.append((("sweep", pi, i), pname, i, snr, cfg, pol, res))

        for key, pname, i, snr, cfg, pol, res in sims:
            est = res.estimates[0]
            if pname == "noncoord":
                counts = [outage_count(est, u) for u in range(3)]
                tally.check(all(agrees(k, self.trials, closed[i], 3 * len(self.axis_db))
                                for k in counts),
                            f"K=3 non-coordinated outage counts {counts} in {self.trials} "
                            f"trials disagree with the single-user closed form {closed[i]} "
                            f"at P={cfg.power:.4g}")
            if est["outage_packet_user0"].point >= self.ci_floor:
                rep.ci[key] = ci_factor(est["outage_packet_user0"])
            pool = self.pooled.setdefault((pname, i), [0.0, 0, 0, 0, 0])
            pool[0] += snr
            pool[1] += 1
            pool[2] += round(est["outage_packet_user0"].point * self.trials)
            pool[3] += round(self.trials / est["gamma"].point)
            pool[4] += self.trials
        if not self.oracle_configs:
            self.oracle_configs = [(cfg, pol, inp.master_seed) for *_, cfg, pol, _ in sims]
        return rep

    def _pooled_sweep(self, pname: str):
        est, snr, trials = [], [], []
        for i in range(len(self.axis_db)):
            snr_sum, reps, outages, slots, n = self.pooled[(pname, i)]
            snr.append(snr_sum / reps)
            trials.append(n)
            est.append({"outage_user0": montecarlo.EstimateWithCI(
                outages / slots, n, 0.0, "outage_user0")})
        return montecarlo.SweepResult(snr_db=snr, estimates=est, analytic=[{}] * len(snr),
                                      n_trials=trials, master_seed=0)

    def finish(self, tally: Tally, tracer) -> None:
        # The gap is read from the per-slot outage curves pooled over all
        # repetitions (each with its own master seed), so its resolution grows
        # with the run rather than resting on one repetition's ~20 outages at
        # 1e-4.
        gap = montecarlo.energy_gain_at_outage(
            self._pooled_sweep("noncoord"), self._pooled_sweep("coord"), self.epsilon)
        print(f"pooled K=3 energy gap: {gap:.3f} dB", file=sys.stderr)
        tally.check(abs(gap - 6.0) <= 1.0, f"K=3 energy gap {gap:.2f} dB outside 6 +/- 1 dB")
        for cfg, pol, master_seed in self.oracle_configs:
            oracle_check(cfg, pol, master_seed, ORACLE_TRIALS, tally, tracer)


class RateOptimize:
    name = "rate_optimize"
    # typical seconds per repetition, checks included (2-vCPU Xeon, 2.1 GHz)
    rep_seconds = 3.0
    # (lambdas, max rounds); lambdas (1, 1.001) at M=3 is where the RTD
    # partial-fraction closed form cancels badly and yields negative event
    # probabilities, which the event-table checks count as failures.
    siso_profiles = [((1.0, 1.0), 2), ((1.0, 2.0), 3), ((1.0, 1.001), 3)]
    siso_snr_db = (5.0, 15.0)
    siso_grid = [(0.5 * a, 0.5 * b) for a in range(1, 9) for b in range(1, 9)]
    mimo_snr_db = 10.0
    mimo_grid = [(float(r), float(r)) for r in range(2, 8)]
    mimo_trials = 20_000
    configs = [(s, p) for s in ("rtd", "inr") for p in ("coord", "noncoord")]

    def __init__(self, out_dir: Path):
        self.csv_path = out_dir / "rate_optimize.csv"
        self.oracle_configs = []

    @staticmethod
    def _near_equal(lambdas) -> bool:
        return abs(lambdas[0] - lambdas[1]) < 1e-2 * max(lambdas)

    @staticmethod
    def _row(snr, cfg, pname, metric, mc=math.nan, analytic=math.nan, trials=0, seed=0):
        return cli.ResultRow(snr_db=snr, scheme=cfg.scheme.value, policy=pname, k=2,
                             m=cfg.max_rounds, user="", metric=metric, mc_value=mc,
                             mc_ci95=math.nan, analytic_value=analytic, trials=trials,
                             seed=seed)

    def run_rep(self, inp: RepInputs, tally: Tally, tracer) -> Rep:
        rep = Rep()
        siso, mimo, rows = [], [], []
        with tracer.installed():
            for f, (lambdas, m) in enumerate(self.siso_profiles):
                for j, snr in enumerate(self.siso_snr_db):
                    snr += inp.snr_offset_db
                    for c, (scheme, pname) in enumerate(self.configs):
                        cfg = cli.build_config(scheme, 2, m, lambdas, (1.0, 1.0), snr)
                        pol = cli.resolve_policy(pname, 2)
                        pair, eta = rep.run(tracer, ("siso", f, j, c), TABLE, len(self.siso_grid),
                                            cli.optimize_rates, cfg, pol, self.siso_grid)
                        siso.append((cfg, pol))
                        rows.append(self._row(snr, cfg, pname, "throughput_optimized",
                                              analytic=eta))
            snr = self.mimo_snr_db + inp.snr_offset_db
            for c, (scheme, pname) in enumerate(self.configs):
                cfg = cli.build_config(scheme, 2, 2, (1.0, 1.0), (1.0, 1.0), snr, u=2, v=2)
                pol = cli.resolve_policy(pname, 2)
                pair, eta = rep.run(tracer, ("mimo", c), SIM,
                                    self.mimo_trials * len(self.mimo_grid),
                                    cli.optimize_rates, cfg, pol, self.mimo_grid,
                                    n_trials=self.mimo_trials, master_seed=inp.master_seed)
                mimo.append((("ci", c), cfg, pol, pair, eta))
                rows.append(self._row(snr, cfg, pname, "throughput_optimized_mimo2x2", mc=eta,
                                      trials=self.mimo_trials, seed=inp.master_seed))
            rep.run(tracer, ("csv",), IO, len(rows), cli.emit_csv, rows, self.csv_path)

        for cfg, pol in siso:
            known = cfg.scheme.value == "rtd" and self._near_equal(cfg.profile.lambdas)
            for pair in self.siso_grid:
                ana = montecarlo.analytic_counterparts(replace(cfg, rates=pair), pol)
                probs = [v for k, v in ana.items() if k.startswith("event_")]
                ok = all(0.0 <= q <= 1.0 for q in probs) and abs(sum(probs) - 1.0) <= 1e-6
                tally.check(ok, f"event table out of [0, 1] or not summing to 1: "
                                f"{cfg.scheme.value} {pol.kind.value} M={cfg.max_rounds} "
                                f"lambdas={cfg.profile.lambdas} P={cfg.power:.4g} R={pair}",
                            known_defect=known)
        for key, cfg, pol, pair, eta in mimo:
            # re-estimating the chosen pair reproduces the optimizer's value
            # (same seed) and gives the CI the optimizer does not return
            e = rep.run(tracer, key, CI, self.mimo_trials, montecarlo.estimate,
                        replace(cfg, rates=pair), pol, self.mimo_trials,
                        inp.master_seed)["throughput"]
            tally.check(math.isfinite(eta) and eta > 0 and e.point == eta,
                        f"MIMO optimized throughput {eta!r} (re-estimate {e.point!r}) "
                        f"not finite, positive and reproducible: {cfg.scheme.value} "
                        f"{pol.kind.value}")
            rep.ci[key] = ci_factor(e)
        if not self.oracle_configs:
            self.oracle_configs = [(replace(cfg, rates=pair), pol, inp.master_seed)
                                   for _, cfg, pol, *_ in mimo for pair in self.mimo_grid]
        return rep

    def finish(self, tally: Tally, tracer) -> None:
        for cfg, pol, master_seed in self.oracle_configs:
            oracle_check(cfg, pol, master_seed, MIMO_ORACLE_TRIALS, tally, tracer)


def make(name: str, out_dir: Path):
    if name == OutageSweepK2.name:
        return OutageSweepK2()
    if name == EnergyGapK3.name:
        return EnergyGapK3()
    if name == RateOptimize.name:
        return RateOptimize(out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (OutageSweepK2.name, EnergyGapK3.name, RateOptimize.name)
