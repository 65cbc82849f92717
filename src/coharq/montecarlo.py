"""Trial orchestration and statistics for the coordinated-HARQ simulator.

Runs many independent packets with the protocol vectorized over trials,
estimates outage / throughput / fairness / event probabilities with
confidence intervals, and fits diversity slopes. Results are bit-identical
for a given master seed regardless of chunking or worker count, because all
randomness is keyed by (master_seed, trial, slot, band) and the statistics
merged across chunks are integer counts.

Conventions: event frequencies are per packet (they sum to one exactly);
outage and throughput are additionally reported per slot (multiplied by the
empirical packets-per-slot rate gamma), which is the convention of the
closed-form expressions.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analytic
from .fading import POLICY_BAND, gain_block, matrix_block, uniform_block
from .protocol import AllocationPolicy, PolicyKind, ProtocolConfig, policy_allocate
from .rates import Scheme, hermitian_gram, log_det_eye_plus

DEFAULT_CHUNK = 1_000_000


class FitWindowError(RuntimeError):
    """Not enough resolvable points to fit a slope; raise the trial count."""


class RangeError(RuntimeError):
    """Requested level is outside the simulated curve."""


# ---------------------------------------------------------------------------
# vectorized protocol engine


def _assignment_matrix(active: np.ndarray, rows: np.ndarray, policy: AllocationPolicy,
                       slot: int, master_seed: int, start_trial: int,
                       n_trials: int) -> np.ndarray:
    """Band -> user map, shape (K, len(rows)); -1 marks an idle band.

    `active` is (K, len(rows)): user u is still active in column j, trial
    offset rows[j] in [0, n_trials); every column has an active user. Each
    column gets protocol.policy_allocate's map for its activity pattern and,
    for the random K=3 split, its trial's policy uniform from slot - 1
    (`slot` >= 1 is the slot entered), with -1 for a band handed back to a
    resolved owner. policy_allocate runs once per run of equal keys.
    """
    k, n = active.shape
    keys = list(active)
    u = None
    if policy.kind is PolicyKind.RANDOM_SPLIT_K3:
        u = uniform_block(master_seed, slot - 1, POLICY_BAND, start_trial, n_trials)[rows, 0]
        keys.append(u < 0.5)
    order = np.lexsort(keys)
    new_run = np.zeros(n, dtype=bool)
    new_run[0] = True
    # one key at a time: 1-D gathers beat a column gather of the 2-D array
    for key in keys:
        ranked = key[order]
        new_run[1:] |= ranked[1:] != ranked[:-1]
    maps = []
    for j in order[new_run].tolist():
        failed = set(np.flatnonzero(active[:, j]).tolist())
        mapping = policy_allocate(failed, set(range(k)) - failed, policy, k,
                                  uniform=None if u is None else u[j])
        maps.append([mapping[b] if mapping[b] in failed else -1 for b in range(k)])
    run = np.empty(n, dtype=np.intp)
    run[order] = np.cumsum(new_run) - 1
    return np.take(np.array(maps, dtype=np.int64).T, run, axis=1)


def simulate_rounds(config: ProtocolConfig, policy: AllocationPolicy,
                    n_trials: int, master_seed: int, start_trial: int = 0) -> np.ndarray:
    """Decode rounds for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, K): round in 1..M, or 0 for outage. One trial is
    one packet; randomness is keyed so the same trial index always sees the
    same channel, under any policy or chunking.

    Slot 0 runs on every trial. From slot 1 on, the engine keeps only the
    trials in which some user is still active, and transforms, assigns,
    accumulates and checks copies for those trials alone.
    """
    profile = config.profile
    k, m_max, power = config.n_users, config.max_rounds, config.power
    rtd = config.scheme is Scheme.RTD
    siso = profile.is_siso
    u_tx = profile.tx_antennas
    rates = np.asarray(config.rates)[:, None]
    users = np.arange(k)

    # user-major layout: one contiguous row per user, one column per trial;
    # MIMO RTD sums each user's Grams in a (u, u, K, n) array, packed as in
    # rates.hermitian_gram
    rounds = np.zeros((k, n_trials), dtype=np.int16)
    active = np.ones((k, n_trials), dtype=bool)
    acc = np.zeros((k, n_trials) if siso or not rtd else (u_tx, u_tx, k, n_trials))
    q = power / u_tx
    rows = None  # trial offsets of the columns still in play; None while all are

    for s in range(m_max):
        if s:
            keep = np.flatnonzero(active.any(axis=0))
            if keep.size == 0:
                break
            rows = keep if rows is None else rows[keep]
            active, acc = active[:, keep], acc[..., keep]
            assign = _assignment_matrix(active, rows, policy, s, master_seed,
                                        start_trial, n_trials)
        for b in range(k):
            if s and (assign[b] < 0).all():
                continue
            if siso:
                g = gain_block(profile, b, s, master_seed, start_trial, n_trials, rows=rows)
                contrib = g * power if rtd else np.log1p(g * power)
            else:
                h = matrix_block(profile, b, s, master_seed, start_trial, n_trials, rows=rows)
                contrib = hermitian_gram(h)
                if not rtd:
                    contrib = log_det_eye_plus(q, contrib)
            if s == 0:
                # first copy: every user transmits on its own band
                acc[..., b, :] = contrib
            else:
                acc += np.where(users[:, None] == assign[b], contrib[..., None, :], 0.0)
        if not rtd:
            nats = acc
        elif siso:
            nats = np.log1p(acc)
        else:
            nats = log_det_eye_plus(q, acc)
        won = active & (nats >= rates)
        for u in range(k):
            hit = np.flatnonzero(won[u])
            rounds[u, hit if rows is None else rows[hit]] = s + 1
        active &= ~won
    return rounds.T


@dataclass
class BatchStats:
    """Sufficient statistics aggregated over simulated packets.

    Every field is an integer count, so merging chunks is exact: any chunk
    size or worker count gives identical statistics.
    """

    n_trials: int = 0
    total_slots: int = 0                # slots summed over packets
    slots_sq_sum: int = 0               # squared slots summed over packets
    decoded: np.ndarray = None          # (K,) decode counts
    round_hist: np.ndarray = None       # (K, M+1): index 0 = outage
    joint_counts: np.ndarray = None     # (M+1, M+1) for K = 2, else None
    co_decoded: np.ndarray = None       # (K, K) packets in which both users decoded
    decoded_slots: np.ndarray = None    # (K,) slots summed over each user's decoded packets

    def merge(self, other: "BatchStats") -> "BatchStats":
        if self.n_trials == 0:
            return other
        return BatchStats(**{
            f.name: None if getattr(self, f.name) is None
            else getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)})


def _stats_from_rounds(rounds: np.ndarray, config: ProtocolConfig) -> BatchStats:
    n, k = rounds.shape
    m_max = config.max_rounds
    # simulate_rounds returns a view of a user-major array: no copy there
    by_user = np.ascontiguousarray(rounds.T)
    dec = by_user > 0
    # a packet holds the channel until its last user resolves: M slots if
    # some user ends in outage
    slots = np.where(dec.all(axis=0), by_user.max(axis=0), m_max).astype(np.int64)
    hist = np.array([[np.count_nonzero(r == m) for m in range(m_max + 1)] for r in by_user])
    joint = None
    if k == 2:
        cells = by_user[0].astype(np.int64) * (m_max + 1) + by_user[1]
        joint = np.bincount(cells, minlength=(m_max + 1) ** 2).reshape(m_max + 1, m_max + 1)
    return BatchStats(
        n_trials=n,
        total_slots=int(slots.sum()),
        slots_sq_sum=int(slots @ slots),
        decoded=n - hist[:, 0],
        round_hist=hist,
        joint_counts=joint,
        co_decoded=np.array([[np.count_nonzero(dec[u] & dec[v]) for v in range(k)]
                             for u in range(k)]),
        decoded_slots=dec @ slots,
    )


def _chunk_ranges(n_trials: int, chunk: int):
    start = 0
    while start < n_trials:
        yield start, min(chunk, n_trials - start)
        start += chunk


def _batch_worker(args):
    config, policy, start, count, master_seed = args
    rounds = simulate_rounds(config, policy, count, master_seed, start_trial=start)
    return _stats_from_rounds(rounds, config)


def simulate_batch(config: ProtocolConfig, policy: AllocationPolicy, n_trials: int,
                   master_seed: int, chunk: int = DEFAULT_CHUNK, n_jobs: int = 1) -> BatchStats:
    """Run n_trials independent packets and aggregate sufficient statistics."""
    for name, value in (("n_trials", n_trials), ("chunk", chunk), ("n_jobs", n_jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    tasks = [(config, policy, start, count, master_seed)
             for start, count in _chunk_ranges(n_trials, chunk)]
    stats = BatchStats()
    if n_jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for st in pool.map(_batch_worker, tasks):
                stats = stats.merge(st)
    else:
        for task in tasks:
            stats = stats.merge(_batch_worker(task))
    return stats


# ---------------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    trials: int
    half_width_95: float
    target: str


def _bernoulli_ci(successes: int, trials: int) -> float:
    p = successes / trials
    if successes < 30 or trials - successes < 30:
        # Wilson interval half-width for small counts
        z = 1.96
        denom = 1.0 + z * z / trials
        half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
        return half
    return 1.96 * math.sqrt(p * (1.0 - p) / trials)


def estimate(config: ProtocolConfig, policy: AllocationPolicy, n_trials: int,
             master_seed: int, chunk: int = DEFAULT_CHUNK, n_jobs: int = 1) -> dict:
    """Point estimates with 95% confidence half-widths.

    Targets: per-user outage (per-slot, i.e. gamma-weighted, plus a
    `_packet` variant), throughput in npcu, fairness (ratio of the two
    users' throughputs, K=2), gamma, and for K=2 all per-packet terminal
    event frequencies keyed `event_<label>`.
    """
    stats = simulate_batch(config, policy, n_trials, master_seed, chunk=chunk, n_jobs=n_jobs)
    return estimates_from_stats(stats, config)


def estimates_from_stats(stats: BatchStats, config: ProtocolConfig) -> dict:
    n = stats.n_trials
    k = config.n_users
    rates = config.rates
    gamma_hat = n / stats.total_slots
    out = {}
    out["gamma"] = EstimateWithCI(gamma_hat, n, 0.0, "gamma")
    for u in range(k):
        fails = n - int(stats.decoded[u])
        p_pkt = fails / n
        half = _bernoulli_ci(fails, n)
        out[f"outage_packet_user{u}"] = EstimateWithCI(p_pkt, n, half, f"outage_packet_user{u}")
        out[f"outage_user{u}"] = EstimateWithCI(gamma_hat * p_pkt, n, gamma_hat * half,
                                                f"outage_user{u}")
    # throughput: delivered nats per slot, CI via renewal-reward linearization
    r = np.asarray(rates)
    nats_sum = float(r @ stats.decoded)
    nats_sq_sum = float(r @ stats.co_decoded @ r)
    nats_slots_sum = float(r @ stats.decoded_slots)
    eta = nats_sum / stats.total_slots
    mean_slots = stats.total_slots / n
    resid_var = (nats_sq_sum - 2 * eta * nats_slots_sum
                 + eta * eta * stats.slots_sq_sum) / n
    eta_half = 1.96 * math.sqrt(max(resid_var, 0.0) / n) / mean_slots
    out["throughput"] = EstimateWithCI(eta, n, eta_half, "throughput")
    if k == 2:
        eta_u = [gamma_hat * rates[u] * (stats.decoded[u] / n) for u in range(2)]
        if stats.decoded[1] == 0:
            out["fairness"] = EstimateWithCI(float("nan"), n, float("inf"), "fairness")
        else:
            delta = eta_u[0] / eta_u[1]
            rel = 0.0
            for u in range(2):
                p = stats.decoded[u] / n
                rel += (1 - p) / (p * n)
            out["fairness"] = EstimateWithCI(delta, n, 1.96 * delta * math.sqrt(rel), "fairness")
        m_max = config.max_rounds
        for ra in range(m_max + 1):
            for rb in range(m_max + 1):
                c = int(stats.joint_counts[ra, rb])
                lbl = analytic.event_label(ra, rb)
                out[f"event_{lbl}"] = EstimateWithCI(c / n, n, _bernoulli_ci(c, n),
                                                     f"event_{lbl}")
    return out


def analytic_counterparts(config: ProtocolConfig, policy: AllocationPolicy) -> dict:
    """Closed-form / semi-numerical values matching the estimate() targets.

    Available for K = 2 SISO under any policy defined for two users;
    returns {} otherwise (those cases are Monte Carlo only).
    """
    if config.n_users != 2 or not config.profile.is_siso:
        return {}
    # the two-user tables cover both rules policy_allocate can apply to a
    # lone failing user: it receives the free band, or keeps only its own
    coordinated = policy_allocate({0}, {1}, policy, 2)[1] == 0
    ra, rb = config.rates
    table = analytic.event_table(config.scheme, config.max_rounds, config.profile.lambdas,
                                 config.power, ra, rb, coordinated=coordinated)
    gamma = analytic.packets_per_slot(table)
    # each user's resolve-round distribution, index 0 = outage
    rounds_a, rounds_b = table.sum(axis=1).tolist(), table.sum(axis=0).tolist()
    vals = {
        "gamma": gamma,
        "outage_packet_user0": rounds_a[0],
        "outage_packet_user1": rounds_b[0],
        "outage_user0": gamma * rounds_a[0],
        "outage_user1": gamma * rounds_b[0],
        "throughput": analytic.throughput_closed(table, ra, rb),
    }
    eta_a, eta_b = ra * sum(rounds_a[1:]), rb * sum(rounds_b[1:])
    if eta_b > 0:
        vals["fairness"] = eta_a / eta_b
    for i, row in enumerate(table.tolist()):
        for j, p in enumerate(row):
            vals[f"event_{analytic.event_label(i, j)}"] = p
    return vals


# ---------------------------------------------------------------------------
# sweeps, slopes, energy gain


@dataclass
class SweepResult:
    snr_db: list
    estimates: list         # one dict of EstimateWithCI per axis point
    analytic: list          # one dict of floats per axis point (may be empty)
    n_trials: list
    master_seed: int

    def outage_curve(self, user: int, per_packet: bool = False):
        key = f"outage_{'packet_' if per_packet else ''}user{user}"
        return np.array([pt[key].point for pt in self.estimates])


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def sweep(config_template: ProtocolConfig, policy: AllocationPolicy, snr_points_db,
          n_trials, master_seed: int, chunk: int = DEFAULT_CHUNK, n_jobs: int = 1) -> SweepResult:
    """Estimate bundle per SNR point. `n_trials` may be a scalar or one count
    per point; results are deterministic given the master seed."""
    snr_points_db = list(snr_points_db)
    if any(b <= a for a, b in zip(snr_points_db, snr_points_db[1:])):
        raise ValueError("SNR axis must be strictly increasing")
    if np.isscalar(n_trials):
        n_trials = [int(n_trials)] * len(snr_points_db)
    estimates, analytic_vals = [], []
    for snr_db, trials in zip(snr_points_db, n_trials):
        cfg = replace(config_template, power=db_to_linear(snr_db))
        estimates.append(estimate(cfg, policy, trials, master_seed, chunk=chunk, n_jobs=n_jobs))
        analytic_vals.append(analytic_counterparts(cfg, policy))
    return SweepResult(snr_db=snr_points_db, estimates=estimates,
                       analytic=analytic_vals, n_trials=list(n_trials),
                       master_seed=master_seed)


def fit_diversity_slope(sweep_result: SweepResult, user: int,
                        top_decades: float = 2.0) -> float:
    """Least-squares slope of log10(outage) vs log10(P) over the deepest
    `top_decades` decades of resolvable outage.

    Points need at least 10 observed outages to enter the fit (below that
    the relative CI explodes); among the reliable points, the window keeps
    those within a factor 10^top_decades of the smallest outage, i.e. the
    highest-SNR region where the slope has converged."""
    snr_db = np.asarray(sweep_result.snr_db, dtype=float)
    outage = sweep_result.outage_curve(user)
    trials = np.asarray(sweep_result.n_trials, dtype=float)
    reliable = outage >= 10.0 / trials
    if reliable.sum() < 3:
        raise FitWindowError("fewer than 3 SNR points clear the 10-outage floor; "
                             "raise the trial count")
    log_p = snr_db / 10.0
    floor = outage[reliable].min()
    window = reliable & (outage <= floor * 10.0 ** top_decades)
    if window.sum() < 3:
        raise FitWindowError("fewer than 3 reliable points in the fit window; "
                             "raise the trial count or widen the window")
    slope = np.polyfit(log_p[window], np.log10(outage[window]), 1)[0]
    return float(slope)


def snr_at_outage(sweep_result: SweepResult, user: int, epsilon: float) -> float:
    """SNR (dB) at which the outage curve crosses epsilon, by log-linear
    interpolation. The curve must bracket epsilon."""
    snr_db = np.asarray(sweep_result.snr_db, dtype=float)
    outage = sweep_result.outage_curve(user)
    good = outage > 0
    log_out = np.log10(outage[good])
    x = snr_db[good]
    target = math.log10(epsilon)
    if target > log_out.max() or target < log_out.min():
        raise RangeError(f"outage level {epsilon} is outside the simulated curve")
    # outage decreases with SNR: interpolate SNR as a function of log-outage
    order = np.argsort(log_out)
    return float(np.interp(target, log_out[order], x[order]))


def energy_gain_at_outage(sweep_a: SweepResult, sweep_b: SweepResult,
                          epsilon: float, user: int = 0) -> float:
    """SNR_a(eps) - SNR_b(eps) in dB: how much less power curve b needs to
    reach the same outage level."""
    return snr_at_outage(sweep_a, user, epsilon) - snr_at_outage(sweep_b, user, epsilon)


def dominance_violations(config: ProtocolConfig, coordinated_policy: AllocationPolicy,
                         n_trials: int, master_seed: int,
                         chunk: int = DEFAULT_CHUNK) -> int:
    """Paired-seed check: count trials where a user decodes without
    coordination but not with it, on identical fading draws. Coordination
    only ever adds copies, so the count must be zero."""
    noncoord = AllocationPolicy(PolicyKind.NON_COORDINATED)
    violations = 0
    for start, count in _chunk_ranges(n_trials, chunk):
        r_nc = simulate_rounds(config, noncoord, count, master_seed, start_trial=start)
        r_co = simulate_rounds(config, coordinated_policy, count, master_seed, start_trial=start)
        violations += int(((r_nc > 0) & (r_co == 0)).sum())
    return violations
