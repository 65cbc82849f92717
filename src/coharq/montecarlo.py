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
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import analytic
from .fading import POLICY_BAND, gain_block, matrix_block, uniform_block
from .protocol import AllocationPolicy, PolicyKind, ProtocolConfig, policy_allocate
from .rates import Scheme, hermitian_gram, log_det_eye_plus

DEFAULT_CHUNK = 1_000_000
# Cells of the (M+1)^K table that Monte Carlo statistics count packets in;
# simulate_rounds itself serves any K.
MAX_TABLE_CELLS = 1 << 16


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


def _grid_rounds(config: ProtocolConfig, policy: AllocationPolicy, rate_grid,
                 n_trials: int, master_seed: int, start_trial: int = 0) -> np.ndarray:
    """Decode rounds of trials [start_trial, start_trial + n_trials) for each
    rate vector of `rate_grid` (shape (G, K)), all on the same draws.

    Returns shape (G, n_trials, K): round in 1..M, or 0 for outage. Row g
    equals simulate_rounds of `config` with rates rate_grid[g].

    Slot 0 draws and transforms every trial once; only the decode check
    sees the rates. From slot 1 on, the live columns are the (rate vector,
    trial) pairs with an unresolved user: each (slot, band) draw covers the
    union of their trials and is gathered to the columns.
    """
    profile = config.profile
    k, m_max, power = config.n_users, config.max_rounds, config.power
    rtd = config.scheme is Scheme.RTD
    siso = profile.is_siso
    u_tx = profile.tx_antennas
    q = power / u_tx
    rates = np.asarray(rate_grid, dtype=float).T       # (K, G)
    n_vec = rates.shape[1]
    users = np.arange(k)

    def copy_info(b, s, rows):
        # what one copy on band b at slot s carries, for trial offsets rows
        if siso:
            g = gain_block(profile, b, s, master_seed, start_trial, n_trials, rows=rows)
            return g * power if rtd else np.log1p(g * power)
        h = matrix_block(profile, b, s, master_seed, start_trial, n_trials, rows=rows)
        return hermitian_gram(h) if rtd else log_det_eye_plus(q, hermitian_gram(h))

    def decoded_nats(acc):
        if not rtd:
            return acc
        return np.log1p(acc) if siso else log_det_eye_plus(q, acc)

    # slot 0: every user sends its first copy on its own band. acc is
    # user-major, one column per trial; MIMO RTD sums each user's Grams in a
    # (u, u, K, n) array, packed as in rates.hermitian_gram
    acc = np.empty((k, n_trials) if siso or not rtd else (u_tx, u_tx, k, n_trials))
    for b in range(k):
        acc[..., b, :] = copy_info(b, 0, None)
    won = decoded_nats(acc)[:, None, :] >= rates[:, :, None]
    # rounds[u, g, t]; column c = g * n_trials + t is trial t under rate vector g
    rounds = won.astype(np.int16, order="C")
    flat_rounds = rounds.reshape(k, -1)     # a view: rounds is C-ordered
    active = ~won.reshape(k, -1)
    cols = None     # the live columns from slot 1 on
    for s in range(1, m_max):
        keep = np.flatnonzero(active.any(axis=0))
        if keep.size == 0:
            break
        active = active[:, keep]
        if cols is None:
            cols = keep
            trials = keep % n_trials if n_vec > 1 else keep
            acc = acc[..., trials]
            col_rates = rates[:, keep // n_trials] if n_vec > 1 else rates
        else:
            cols, trials, acc = cols[keep], trials[keep], acc[..., keep]
            if n_vec > 1:
                col_rates = col_rates[:, keep]
        if n_vec > 1:
            # draw each live trial once, then gather its draws to its columns
            drawn = np.zeros(n_trials, dtype=bool)
            drawn[trials] = True
            rows = np.flatnonzero(drawn)
            gather = (np.cumsum(drawn) - 1)[trials]
        else:
            rows, gather = trials, None
        assign = _assignment_matrix(active, trials, policy, s, master_seed,
                                    start_trial, n_trials)
        for b in range(k):
            if (assign[b] < 0).all():
                continue
            contrib = copy_info(b, s, rows)
            if gather is not None:
                contrib = contrib[..., gather]
            acc += np.where(users[:, None] == assign[b], contrib[..., None, :], 0.0)
        won = active & (decoded_nats(acc) >= col_rates)
        for u in range(k):
            flat_rounds[u, cols[np.flatnonzero(won[u])]] = s + 1
        active &= ~won
    return rounds.transpose(1, 2, 0)


def simulate_rounds(config: ProtocolConfig, policy: AllocationPolicy,
                    n_trials: int, master_seed: int, start_trial: int = 0) -> np.ndarray:
    """Decode rounds for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, K): round in 1..M, or 0 for outage. One trial is
    one packet; randomness is keyed so the same trial index always sees the
    same channel, under any policy, rates or chunking.

    The one-vector case of the grid engine: slot 0 runs on every trial, and
    from slot 1 on the engine transforms, assigns, accumulates and checks
    copies only for the trials in which some user is still active.
    """
    return _grid_rounds(config, policy, [config.rates], n_trials, master_seed, start_trial)[0]


@dataclass(frozen=True)
class BatchStats:
    """Packets counted by the users' resolve rounds.

    `counts` has shape (M+1,)*K: cell [r_0, ..., r_{K-1}] counts the packets
    in which user u resolved at round r_u, index 0 meaning outage; K = 2
    indexes it like `analytic.event_table`. Every statistic is a function
    of this table (`analytic.reduce_table`). Merging adds counts, so any
    chunk size or worker count gives an identical table.
    """

    counts: np.ndarray

    @property
    def n_trials(self) -> int:
        return int(self.counts.sum())

    def merge(self, other: "BatchStats") -> "BatchStats":
        return BatchStats(self.counts + other.counts)


def _stats_from_rounds(rounds: np.ndarray, config: ProtocolConfig) -> BatchStats:
    radix = config.max_rounds + 1
    # simulate_rounds returns a view of a user-major array: rows without a copy
    code = np.zeros(len(rounds), dtype=np.intp)
    for r in rounds.T:
        code *= radix
        code += r
    k = config.n_users
    return BatchStats(np.bincount(code, minlength=radix ** k).reshape((radix,) * k))


def _chunk_ranges(n_trials: int, chunk: int):
    start = 0
    while start < n_trials:
        yield start, min(chunk, n_trials - start)
        start += chunk


def _batch_worker(args):
    config, policy, start, count, master_seed = args
    rounds = simulate_rounds(config, policy, count, master_seed, start_trial=start)
    return _stats_from_rounds(rounds, config)


def _grid_worker(args):
    config, policy, rate_grid, start, count, master_seed = args
    rounds = _grid_rounds(config, policy, rate_grid, count, master_seed, start_trial=start)
    return [_stats_from_rounds(r, config) for r in rounds]


def _check_batch(config: ProtocolConfig, n_trials: int, chunk: int, n_jobs: int) -> None:
    for name, value in (("n_trials", n_trials), ("chunk", chunk), ("n_jobs", n_jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    cells = (config.max_rounds + 1) ** config.n_users
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"statistics need (M+1)^K = {cells} cells, more than "
                         f"{MAX_TABLE_CELLS}; lower the number of users or rounds")


def _map_chunks(worker, tasks, n_jobs: int):
    """The worker's results on the chunk tasks, in task order."""
    if n_jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(worker, tasks))
    return map(worker, tasks)


def simulate_batch(config: ProtocolConfig, policy: AllocationPolicy, n_trials: int,
                   master_seed: int, chunk: int = DEFAULT_CHUNK, n_jobs: int = 1) -> BatchStats:
    """Run n_trials independent packets and count them by resolve rounds."""
    _check_batch(config, n_trials, chunk, n_jobs)
    tasks = [(config, policy, start, count, master_seed)
             for start, count in _chunk_ranges(n_trials, chunk)]
    return reduce(BatchStats.merge, _map_chunks(_batch_worker, tasks, n_jobs))


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
    event frequencies keyed `event_<label>`. The points are
    `analytic.reduce_table` of the packet-count table, the same reduction
    that `analytic_counterparts` applies to the closed-form table; the
    half-widths come from the same counts. Needs (M+1)^K <= MAX_TABLE_CELLS.
    """
    stats = simulate_batch(config, policy, n_trials, master_seed, chunk=chunk, n_jobs=n_jobs)
    return estimates_from_stats(stats, config)


def estimate_grid(config: ProtocolConfig, policy: AllocationPolicy, rate_grid,
                  n_trials: int, master_seed: int, chunk: int = DEFAULT_CHUNK,
                  n_jobs: int = 1) -> list:
    """estimate() for every rate vector of `rate_grid`, on shared draws.

    Returns one dict per vector, in grid order, equal to estimate() of
    `config` with that vector as its rates and the same other arguments.
    Draws are keyed by (seed, trial, slot, band), never by the rates, so
    the vectors share them (common random numbers): each trial's channels
    are drawn and transformed once for the whole grid. A chunk runs
    ceil(min(chunk, n_trials) / G) trials of all G vectors, so it holds
    about as many (vector, trial) columns as a one-vector chunk.
    """
    configs = [replace(config, rates=tuple(rates)) for rates in rate_grid]
    if not configs:
        raise ValueError("rate grid is empty")
    _check_batch(config, n_trials, chunk, n_jobs)
    grid = np.array([cfg.rates for cfg in configs])
    per_chunk = -(-min(chunk, n_trials) // len(configs))
    tasks = [(config, policy, grid, start, count, master_seed)
             for start, count in _chunk_ranges(n_trials, per_chunk)]
    stats = reduce(lambda a, b: list(map(BatchStats.merge, a, b)),
                   _map_chunks(_grid_worker, tasks, n_jobs))
    return [estimates_from_stats(s, cfg) for s, cfg in zip(stats, configs)]


def estimates_from_stats(stats: BatchStats, config: ProtocolConfig) -> dict:
    counts, n = stats.counts, stats.n_trials
    vals = analytic.reduce_table(counts, config.rates, packets=n)
    gamma = vals["gamma"]
    half = {"gamma": 0.0,
            "throughput": _throughput_half_width(counts, n, config.rates, vals["throughput"],
                                                 gamma)}
    p_decoded = []
    for u, fails in enumerate(analytic.user_masses(counts)[0].tolist()):
        half[f"outage_packet_user{u}"] = _bernoulli_ci(fails, n)
        half[f"outage_user{u}"] = gamma * half[f"outage_packet_user{u}"]
        p_decoded.append((n - fails) / n)
    if config.n_users == 2:
        fairness = vals["fairness"]
        if 0 in p_decoded or math.isnan(fairness):
            half["fairness"] = math.inf
        else:
            rel = sum((1 - p) / (p * n) for p in p_decoded)
            half["fairness"] = 1.96 * fairness * math.sqrt(rel)
        for i, row in enumerate(counts.tolist()):
            for j, c in enumerate(row):
                half[f"event_{analytic.event_label(i, j)}"] = _bernoulli_ci(c, n)
    return {key: EstimateWithCI(v, n, half[key], key) for key, v in vals.items()}


def _throughput_half_width(counts: np.ndarray, n: int, rates, eta: float,
                           gamma: float) -> float:
    """95% half-width of the throughput by renewal-reward linearization:
    the variance of nats minus eta times slots per packet, from the count
    table's integer moments."""
    flat, dec, slots = analytic.table_cells(counts.shape[0] - 1, counts.ndim)
    c = counts.ravel()[flat]
    r = np.asarray(rates)
    nats_sq = float(r @ ((dec * c) @ dec.T) @ r)   # (K, K): packets both users decoded
    nats_slots = float(r @ (dec @ (c * slots)))
    sq_slots = int(c @ (slots * slots))
    resid_var = (nats_sq - 2 * eta * nats_slots + eta * eta * sq_slots) / n
    return 1.96 * math.sqrt(max(resid_var, 0.0) / n) * gamma


def has_closed_form(config: ProtocolConfig) -> bool:
    """Whether analytic_counterparts has closed forms for this setup; the
    rates, power and policy do not enter."""
    return config.n_users == 2 and config.profile.is_siso


def closed_form_table(config: ProtocolConfig, policy: AllocationPolicy) -> np.ndarray | None:
    """The closed-form terminal-event table (`analytic.event_table`) of a
    setup that has one (has_closed_form), else None."""
    if not has_closed_form(config):
        return None
    # the two-user tables cover both rules policy_allocate can apply to a
    # lone failing user: it receives the free band, or keeps only its own
    coordinated = policy_allocate({0}, {1}, policy, 2)[1] == 0
    return analytic.event_table(config.scheme, config.max_rounds, config.profile.lambdas,
                                config.power, *config.rates, coordinated=coordinated)


def analytic_counterparts(config: ProtocolConfig, policy: AllocationPolicy) -> dict:
    """Closed-form / semi-numerical values matching the estimate() targets:
    `analytic.reduce_table` of the closed-form table.

    Available for K = 2 SISO under any policy defined for two users
    (has_closed_form); returns {} otherwise (those cases are Monte Carlo
    only).
    """
    table = closed_form_table(config, policy)
    return {} if table is None else analytic.reduce_table(table, config.rates)


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
