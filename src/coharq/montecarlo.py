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
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .fading import POLICY_BAND, gain_block, matrix_block, uniform_block
from .protocol import (AllocationPolicy, PolicyKind, ProtocolConfig, check_rates,
                       policy_allocate)
from .rates import Scheme, hermitian_gram, log_det_eye_plus

# Trials a chunk plan runs at a time (see _batch_stats), and the trials of
# each dominance_violations step.
CHUNK = 1_000_000
# Cells of the (M+1)^K table that Monte Carlo statistics count packets in;
# simulate_rounds itself serves any K.
MAX_TABLE_CELLS = 1 << 16


class FitWindowError(RuntimeError):
    """Not enough resolvable points to fit a slope; raise the trial count."""


class RangeError(RuntimeError):
    """Requested level is outside the simulated curve."""


# ---------------------------------------------------------------------------
# vectorized protocol engine


class _DrawMemo:
    """Whole draw blocks of one master seed, kept across engine calls.

    A block holds, batch last, one kind of draw of one slot over trials
    [start, start + n): the SISO gains of ("gain", band, lambda), the packed
    Grams (rates.hermitian_gram) of ("gram", band, lambda, tx, rx), or the
    K=3 split's coin u < 0.5 of ("coin",), one byte per trial, kept under
    (what, slot, start). A block is read-only and serves its first n or
    fewer trials, whole or at the live rows a read asks for: `fading` draws
    whole ranges of trials only, so a range is drawn once and every read of
    its rows takes them from the block, kept or not. A call on another seed
    drops every block; a block that would take the memo past CAP_BYTES is
    returned but not kept (nothing is evicted). Worker processes fill their
    own memo, which ends with the call's pool, and the scalar oracle reads
    one-trial blocks of `fading` and never reads the memo.
    """

    CAP_BYTES = 32 << 20

    def __init__(self):
        self.clear()

    def clear(self, master_seed=None) -> None:
        self.seed, self.blocks, self.nbytes = master_seed, {}, 0

    def read(self, what: tuple, slot: int, master_seed: int, start_trial: int,
             n_trials: int, rows, draw):
        """The block `what` of `slot` over trials [start_trial, start_trial +
        n_trials) at the trial offsets `rows`, or all of them when None.
        `draw(first, count)` makes trials [first, first + count).

        A kept block that covers the range serves it. Otherwise the read
        draws the range, or the trials past a shorter block kept at
        start_trial (draws are keyed by trial, so the two join bit for
        bit), and keeps it if it fits under CAP_BYTES.
        """
        if master_seed != self.seed:
            self.clear(master_seed)
        key = (what, slot, start_trial)
        block = self.blocks.get(key)
        have = 0 if block is None else block.shape[-1]
        if have < n_trials:
            kept = block
            block = draw(start_trial + have, n_trials - have)
            if kept is not None:
                block = np.concatenate([kept, block], axis=-1)
            size = sys.getsizeof(block) - (0 if kept is None else sys.getsizeof(kept))
            if self.nbytes + size <= self.CAP_BYTES:
                block.flags.writeable = False
                self.nbytes += size
                self.blocks[key] = block
        return block[..., :n_trials] if rows is None else np.take(block, rows, axis=-1)


_DRAWS = _DrawMemo()


def _coin(slot: int, master_seed: int, start_trial: int, n_trials: int,
          rows: np.ndarray) -> np.ndarray:
    """The K=3 split's coin u < 0.5 from `slot`'s policy uniform for the
    trial offsets `rows` of [start_trial, start_trial + n_trials), read
    through the memo of this seed's draws (_DRAWS)."""
    def draw(first, count):
        return uniform_block(master_seed, slot, POLICY_BAND, first, count)[:, 0] < 0.5
    return _DRAWS.read(("coin",), slot, master_seed, start_trial, n_trials, rows, draw)


def _assignment_matrix(active: np.ndarray, rows: np.ndarray, policy: AllocationPolicy,
                       slot: int, master_seed: int, start_trial: int,
                       n_trials: int) -> np.ndarray:
    """Band -> user map, shape (K, len(rows)); -1 marks an idle band.

    `active` is (K, len(rows)): user u is still active in column j, trial
    offset rows[j] in [0, n_trials); every column has an active user. Each
    column gets protocol.policy_allocate's map for its activity pattern and,
    for the random K=3 split, its trial's coin from the policy uniform of
    slot - 1 (`slot` >= 1 is the slot entered), with -1 for a band handed
    back to a resolved owner. policy_allocate runs once per run of equal keys.
    """
    k, n = active.shape
    keys = list(active)
    coin = None
    if policy.kind is PolicyKind.RANDOM_SPLIT_K3:
        coin = _coin(slot - 1, master_seed, start_trial, n_trials, rows)
        keys.append(coin)
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
                                  coin=None if coin is None else bool(coin[j]))
        maps.append([mapping[b] if mapping[b] in failed else -1 for b in range(k)])
    run = np.empty(n, dtype=np.intp)
    run[order] = np.cumsum(new_run) - 1
    return np.take(np.array(maps, dtype=np.int64).T, run, axis=1)


def _distinct(index: np.ndarray, size: int):
    """The sorted distinct values of `index` (each in [0, size)) and, for
    each entry, its position among them."""
    seen = np.zeros(size, dtype=bool)
    seen[index] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[index]


# Relative half-width of the band around a SISO slot-0 threshold inside
# which _first_copy_decodes checks a gain with the exact expression: far
# wider than the few ulps by which the compare and the expression can part.
_THRESHOLD_GUARD = 1e-12
_TINY = np.finfo(float).tiny


def _first_copy_decodes(gains: np.ndarray, rates: np.ndarray,
                        powers: np.ndarray) -> np.ndarray:
    """Whether a SISO user decodes its first copy, log1p(g * P) >= R, for
    each gain g of `gains` and each pair (R, P) of `rates` and `powers`:
    shape (len(rates), len(gains)), equal to that expression bit for bit.

    One compare with the threshold C = expm1(R) / P, g >= C (1 + guard),
    decides a gain. Gains in [C (1 - guard), C (1 + guard)) are decided by
    the exact expression, and so is every gain of a pair whose expm1(R) or
    C is not a normal finite float (a zero rate, a rate whose expm1
    overflows, a threshold past float range), where the compare's relative
    error has no bound.
    """
    with np.errstate(over="ignore"):
        head = np.expm1(rates)
        c = head / powers
        fast = (head >= _TINY) & (c >= _TINY) & np.isfinite(c)
        won = gains >= np.where(fast, c * (1 + _THRESHOLD_GUARD), np.inf)[:, None]
        near = gains >= np.where(fast, c * (1 - _THRESHOLD_GUARD), np.inf)[:, None]
        if np.count_nonzero(near) != np.count_nonzero(won):
            pair, t = np.nonzero(near & ~won)
            won[pair, t] = np.log1p(gains[t] * powers[pair]) >= rates[pair]
        slow = np.flatnonzero(~fast)
        if slow.size:
            won[slow] = np.log1p(gains * powers[slow, None]) >= rates[slow, None]
    return won


def _live_rounds(configs, policy: AllocationPolicy, n_trials: int, master_seed: int,
                 start_trial: int = 0):
    """Decode rounds of trials [start_trial, start_trial + n_trials) for each
    of `configs`, which differ only in rates and power, on the same draws,
    held for the live columns alone.

    Column c = g * n_trials + t is trial t of configs[g]; it is live when
    some user does not decode its slot-0 copy. Returns (cols, rounds): the
    live columns, ascending, and their rounds, shape (K, len(cols)), round
    in 1..M or 0 for outage. Every other column resolves every user at
    round 1.

    Every (slot, band) block of gains or Grams, and every K=3 coin, is read
    through the memo of this seed's draws (_DRAWS), so calls on one seed
    draw each block once. A SISO user's slot-0 decision is a compare of its
    gain with a threshold (_first_copy_decodes); MIMO works out every
    (power, trial) pair's copy. From there on only live columns are worked
    on: each (slot, band) read covers the union of their trials, and its
    copy is worked out once per live (power, trial) pair (columns that
    share a power share pairs); only the decode check sees the rates. With
    one power the pairs are the trials and the power stays a float.
    """
    config = configs[0]
    profile = config.profile
    k, m_max = config.n_users, config.max_rounds
    rtd = config.scheme is Scheme.RTD
    siso = profile.is_siso
    u_tx, v_rx = profile.tx_antennas, profile.rx_antennas
    rates = np.array([c.rates for c in configs], dtype=float).T      # (K, G)
    n_cfg = rates.shape[1]
    powers = list(dict.fromkeys(c.power for c in configs))     # distinct, in order
    power_of = np.array([powers.index(c.power) for c in configs])
    n_pow, powers = len(powers), np.array(powers, dtype=float)
    users = np.arange(k)

    def draw(b, s, rows):
        # the power-free part of one copy on band b at slot s, for trial offsets
        # rows (all trials when None), read through the memo of this seed's draws
        def make(first, count):
            if siso:
                return gain_block(profile, b, s, master_seed, first, count)
            return hermitian_gram(matrix_block(profile, b, s, master_seed, first, count))
        lam = profile.lambdas[b]
        what = ("gain", b, lam) if siso else ("gram", b, lam, u_tx, v_rx)
        return _DRAWS.read(what, s, master_seed, start_trial, n_trials, rows, make)

    def carried(x, power):
        # what that copy adds to the accumulator at `power`
        if siso:
            return x * power if rtd else np.log1p(x * power)
        return x if rtd else log_det_eye_plus(power / u_tx, x)

    def decoded_nats(acc, power):
        if not rtd:
            return acc
        return np.log1p(acc) if siso else log_det_eye_plus(power / u_tx, acc)

    def plan(pairs):
        # the distinct (power, trial) pairs of the columns, the trials they draw
        # and their power
        live, to_col = _distinct(pairs, n_pow * n_trials) if n_pow < n_cfg else (pairs, None)
        rows, to_pair = _distinct(live % n_trials, n_trials) if n_pow > 1 else (live, None)
        return rows, to_pair, config.power if n_pow == 1 else powers[live // n_trials], to_col

    def copies(b, s, planned):
        # band b's copy at slot s for each column of the plan, drawn once per
        # trial and worked out once per pair
        rows, to_pair, power, to_col = planned
        # slot 0's block is in hand, also when the memo had no room to keep it
        x = np.take(first[b], rows, axis=-1) if s == 0 else draw(b, s, rows)
        if to_pair is not None:
            x = np.take(x, to_pair, axis=-1)
        x = carried(x, power)
        return x if to_col is None else np.take(x, to_col, axis=-1)

    # slot 0: every user sends its first copy on its own band; won[u, g, t]
    first = [draw(b, 0, None) for b in range(k)]
    if siso:
        col_powers = powers[power_of]
        won = np.stack([_first_copy_decodes(x, r, col_powers) for x, r in zip(first, rates)])
    else:
        # acc is user-major, then (power, trial); RTD sums each user's Grams in
        # a (u, u, K, ...) array, packed as in rates.hermitian_gram
        power = config.power if n_pow == 1 else powers[:, None]
        acc = np.empty(((k,) if not rtd else (u_tx, u_tx, k)) + (n_pow, n_trials))
        for b in range(k):
            acc[..., b, :, :] = carried(first[b][..., None, :], power)
        at_power = power_of if n_pow > 1 else slice(None)
        won = decoded_nats(acc, power)[:, at_power] >= rates[:, :, None]
        acc = acc.reshape(acc.shape[:-2] + (-1,))
    won = won.reshape(k, -1)
    cols = np.flatnonzero(~np.logical_and.reduce(won, axis=0))
    # np.take keeps the gathered columns C-ordered, where fancy indexing of a
    # trailing axis does not and slows every later pass over them
    won = np.take(won, cols, axis=1)
    rounds = won.astype(np.int16)
    active = ~won
    pairs, col_rates = cols, rates
    if n_cfg > 1:
        col_cfg = cols // n_trials
        pairs, col_rates = cols % n_trials, np.take(rates, col_cfg, axis=1)
        if n_pow > 1:
            pairs += power_of[col_cfg] * n_trials
    if siso:
        planned = plan(pairs)
        acc = np.stack([copies(b, 0, planned) for b in range(k)])
    else:
        acc = np.take(acc, pairs, axis=-1)
    at = np.arange(len(cols))     # where the working columns sit in rounds
    for s in range(1, m_max):
        keep = np.flatnonzero(active.any(axis=0))
        if keep.size == 0:
            break
        if keep.size < at.size:
            at, pairs = at[keep], pairs[keep]
            active, acc = np.take(active, keep, axis=1), np.take(acc, keep, axis=-1)
            if n_cfg > 1:
                col_rates = np.take(col_rates, keep, axis=1)
        planned = plan(pairs)
        assign = _assignment_matrix(active, pairs % n_trials if n_pow > 1 else pairs, policy,
                                    s, master_seed, start_trial, n_trials)
        for b in range(k):
            if (assign[b] < 0).all():
                continue
            acc += np.where(users[:, None] == assign[b], copies(b, s, planned)[..., None, :],
                            0.0)
        col_power = config.power if n_pow == 1 else powers[pairs // n_trials]
        won = active & (decoded_nats(acc, col_power) >= col_rates)
        for u in range(k):
            rounds[u, at[won[u]]] = s + 1
        active &= ~won
    return cols, rounds


def _grid_rounds(configs, policy: AllocationPolicy, n_trials: int, master_seed: int,
                 start_trial: int = 0) -> np.ndarray:
    """Decode rounds of trials [start_trial, start_trial + n_trials) for each
    of `configs`, which differ only in rates and power, on the same draws.

    Returns shape (G, n_trials, K): round in 1..M, or 0 for outage. Row g
    equals simulate_rounds of configs[g]. The rounds of _live_rounds, with
    every column it leaves out filled in as resolved at round 1.
    """
    cols, live = _live_rounds(configs, policy, n_trials, master_seed, start_trial)
    k = configs[0].n_users
    rounds = np.ones((k, len(configs) * n_trials), dtype=np.int16)
    rounds[:, cols] = live
    return rounds.reshape(k, len(configs), n_trials).transpose(1, 2, 0)


def simulate_rounds(config: ProtocolConfig, policy: AllocationPolicy,
                    n_trials: int, master_seed: int, start_trial: int = 0) -> np.ndarray:
    """Decode rounds for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, K): round in 1..M, or 0 for outage. One trial is
    one packet; randomness is keyed so the same trial index always sees the
    same channel, under any policy, rates, power or chunking. The
    one-configuration case of the grid engine (_grid_rounds), every trial
    filled in; the count tables read the engine's live columns directly.
    """
    return _grid_rounds([config], policy, n_trials, master_seed, start_trial)[0]


def _chunk_stats(task) -> list:
    """The count tables of one chunk's trials, one per configuration.

    A table has shape (M+1,)*K: cell [r_0, ..., r_{K-1}] counts the packets
    in which user u resolved at round r_u, index 0 meaning outage; K = 2
    indexes it like `analytic.event_table`. Every statistic is a function
    of this table (`analytic.reduce_table`). Tables merge by adding, so any
    chunk size or worker count gives an identical table. One bincount over
    the live columns (_live_rounds) makes every table, with the
    configuration as the top digit; the other packets go to each table's
    [1, ..., 1] cell.
    """
    configs, policy, start, count, master_seed = task
    cols, rounds = _live_rounds(configs, policy, count, master_seed, start_trial=start)
    k, radix, n_cfg = configs[0].n_users, configs[0].max_rounds + 1, len(configs)
    code = np.zeros(len(cols), dtype=np.intp)
    for r in rounds:
        code *= radix
        code += r
    live = len(cols)
    if n_cfg > 1:
        cfg = cols // count
        code += cfg * radix ** k
        live = np.bincount(cfg, minlength=n_cfg)
    tables = np.bincount(code, minlength=n_cfg * radix ** k).reshape((n_cfg,) + (radix,) * k)
    tables[(slice(None),) + (1,) * k] += count - live
    return list(tables)


def _batch_stats(configs, policy: AllocationPolicy, n_trials, master_seed: int,
                 n_jobs: int) -> list:
    """The count tables (_chunk_stats) of trials [0, n_trials[g]) of each
    of `configs` (as in _live_rounds). A chunk runs ceil(min(CHUNK, max
    n_trials) / G) trials of the G configurations short of their count, or
    fewer where one of them reaches it and so leaves the plan: it holds
    about as many columns as a one-configuration chunk. Tables add integer
    counts, so any chunk size or worker count gives identical tables."""
    for name, value in (*(("n_trials", n) for n in n_trials), ("n_jobs", n_jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    cells = (configs[0].max_rounds + 1) ** configs[0].n_users
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"statistics need (M+1)^K = {cells} cells, more than "
                         f"{MAX_TABLE_CELLS}; lower the number of users or rounds")
    per_chunk = min(CHUNK, max(n_trials, default=0))
    plan, tasks, start = [], [], 0
    live = list(range(len(configs)))
    while live:
        count = min(-(-per_chunk // len(live)), min(n_trials[g] for g in live) - start)
        plan.append(live)
        tasks.append(([configs[g] for g in live], policy, start, count, master_seed))
        start += count
        live = [g for g in live if n_trials[g] > start]
    if n_jobs > 1 and len(tasks) > 1:
        # the pool starts all its workers at once: no more than the chunks
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
            results = list(pool.map(_chunk_stats, tasks))
    else:
        results = map(_chunk_stats, tasks)
    totals = [None] * len(configs)
    for live, tables in zip(plan, results):
        for g, t in zip(live, tables):
            totals[g] = t if totals[g] is None else totals[g] + t
    return totals


def simulate_batch(config: ProtocolConfig, policy: AllocationPolicy, n_trials: int,
                   master_seed: int, n_jobs: int = 1) -> np.ndarray:
    """Run n_trials independent packets and count them by resolve rounds:
    the one-configuration case of the chunk plan that estimate_grid and
    sweep run on."""
    return _batch_stats([config], policy, [n_trials], master_seed, n_jobs)[0]


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
             master_seed: int, n_jobs: int = 1) -> dict:
    """Point estimates with 95% confidence half-widths.

    Targets: per-user outage (per-slot, i.e. gamma-weighted, plus a
    `_packet` variant), throughput in npcu, fairness (ratio of the two
    users' throughputs, K=2), gamma, and for K=2 all per-packet terminal
    event frequencies keyed `event_<label>`. The points are
    `analytic.reduce_table` of the packet-count table, the same reduction
    that `analytic_counterparts` applies to the closed-form table; the
    half-widths come from the same counts. Needs (M+1)^K <= MAX_TABLE_CELLS.
    """
    counts = simulate_batch(config, policy, n_trials, master_seed, n_jobs=n_jobs)
    return estimates_from_stats(counts, config)


def estimate_grid(config: ProtocolConfig, policy: AllocationPolicy, rate_grid,
                  n_trials: int, master_seed: int, n_jobs: int = 1) -> list:
    """estimate() for every rate vector of `rate_grid`, on shared draws.

    Returns one dict per vector, in grid order, equal to estimate() of
    `config` with that vector as its rates and the same other arguments.
    Draws are keyed by (seed, trial, slot, band), never by the rates, so
    the vectors share them (common random numbers): each trial's channels
    are drawn and transformed once for the whole grid. It shares the chunk
    plan of simulate_batch and sweep: a chunk runs ceil(min(CHUNK,
    n_trials) / G) trials of all G vectors, about as many columns as a
    one-vector chunk.
    """
    configs = [replace(config, rates=tuple(rates)) for rates in rate_grid]
    if not configs:
        raise ValueError("rate grid is empty")
    tables = _batch_stats(configs, policy, [n_trials] * len(configs), master_seed, n_jobs)
    return [estimates_from_stats(t, cfg) for t, cfg in zip(tables, configs)]


def estimates_from_stats(counts: np.ndarray, config: ProtocolConfig) -> dict:
    n = int(counts.sum())
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


def closed_form_tables(config: ProtocolConfig, policy: AllocationPolicy,
                       rate_grid) -> list | None:
    """The closed-form terminal-event table (`analytic.event_table`) of
    `config` at each rate vector of `rate_grid`, for a setup that has them
    (has_closed_form), else None. The vectors are checked as
    ProtocolConfig checks its rates; the policy's rule is decided once."""
    if not has_closed_form(config):
        return None
    grid = [check_rates(rates, config.n_users) for rates in rate_grid]
    # the two-user tables cover both rules policy_allocate can apply to a
    # lone failing user: it receives the free band, or keeps only its own
    coordinated = policy_allocate({0}, {1}, policy, 2)[1] == 0
    return [analytic.event_table(config.scheme, config.max_rounds, config.profile.lambdas,
                                 config.power, *rates, coordinated=coordinated)
            for rates in grid]


def analytic_counterparts(config: ProtocolConfig, policy: AllocationPolicy) -> dict:
    """Closed-form / semi-numerical values matching the estimate() targets:
    `analytic.reduce_table` of the closed-form table.

    Available for K = 2 SISO under any policy defined for two users
    (has_closed_form); returns {} otherwise, and where the closed form
    refuses the parameters (analytic.ClosedFormRangeError): those cases
    are Monte Carlo only.
    """
    try:
        tables = closed_form_tables(config, policy, [config.rates])
    except analytic.ClosedFormRangeError:
        return {}
    return {} if tables is None else analytic.reduce_table(tables[0], config.rates)


# ---------------------------------------------------------------------------
# sweeps, slopes, energy gain


@dataclass
class SweepResult:
    snr_db: list
    estimates: list         # one dict of EstimateWithCI per axis point
    analytic: list          # one dict of floats per axis point (may be empty)
    n_trials: list
    master_seed: int

    def outage_curve(self, user: int):
        return np.array([pt[f"outage_user{user}"].point for pt in self.estimates])


def db_to_linear(snr_db: float) -> float:
    # the power overflows a float past ~3083 dB; ProtocolConfig refuses the inf
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def sweep(config_template: ProtocolConfig, policy: AllocationPolicy, snr_points_db,
          n_trials, master_seed: int, n_jobs: int = 1) -> SweepResult:
    """estimate() and analytic_counterparts() at each SNR point, on shared
    draws. `n_trials` may be a scalar or one count per point; point i
    equals estimate() of the template at power db_to_linear(snr) with its
    count and the other arguments. Draws are keyed by (seed, trial, slot,
    band), never by the power, so a trial is drawn once for every point."""
    snr_points_db = list(snr_points_db)
    if any(b <= a for a, b in zip(snr_points_db, snr_points_db[1:])):
        raise ValueError("SNR axis must be strictly increasing")
    n_trials = [int(n_trials)] * len(snr_points_db) if np.isscalar(n_trials) else list(n_trials)
    if len(n_trials) != len(snr_points_db):
        raise ValueError(f"need one trial count per SNR point, got {len(n_trials)}")
    configs = [replace(config_template, power=db_to_linear(snr_db)) for snr_db in snr_points_db]
    tables = _batch_stats(configs, policy, n_trials, master_seed, n_jobs)
    return SweepResult(snr_db=snr_points_db,
                       estimates=[estimates_from_stats(t, cfg) for t, cfg in zip(tables, configs)],
                       analytic=[analytic_counterparts(cfg, policy) for cfg in configs],
                       n_trials=n_trials, master_seed=master_seed)


def fit_diversity_slope(sweep_result: SweepResult, user: int) -> float:
    """Least-squares slope of log10(outage) vs log10(P) over the deepest
    two decades of resolvable outage.

    Points need at least 10 observed outages to enter the fit (below that
    the relative CI explodes); among the reliable points, the window keeps
    those within a factor 100 of the smallest outage, i.e. the highest-SNR
    region where the slope has converged."""
    snr_db = np.asarray(sweep_result.snr_db, dtype=float)
    outage = sweep_result.outage_curve(user)
    trials = np.asarray(sweep_result.n_trials, dtype=float)
    reliable = outage >= 10.0 / trials
    if reliable.sum() < 3:
        raise FitWindowError("fewer than 3 SNR points clear the 10-outage floor; "
                             "raise the trial count")
    log_p = snr_db / 10.0
    floor = outage[reliable].min()
    window = reliable & (outage <= floor * 100.0)
    if window.sum() < 3:
        raise FitWindowError("fewer than 3 reliable points in the fit window; "
                             "raise the trial count")
    slope = np.polyfit(log_p[window], np.log10(outage[window]), 1)[0]
    return float(slope)


def snr_at_outage(sweep_result: SweepResult, user: int, epsilon: float) -> float:
    """SNR (dB) at which the outage curve crosses epsilon, by log-linear
    interpolation. The curve must bracket epsilon."""
    snr_db = np.asarray(sweep_result.snr_db, dtype=float)
    outage = sweep_result.outage_curve(user)
    good = outage > 0
    if not good.any():
        raise RangeError(f"outage level {epsilon} is outside the simulated curve: "
                         "no point has a positive outage")
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
                         n_trials: int, master_seed: int) -> int:
    """Paired-seed check: count user-trials whose decode round is later with
    coordination than without, on identical fading draws, outage read as
    round M+1. A failed user keeps its own band under every policy and
    coordination only hands it more copies, so the count must be zero for
    any K and policy."""
    noncoord = AllocationPolicy(PolicyKind.NON_COORDINATED)
    outage = config.max_rounds + 1
    violations = 0
    for start in range(0, n_trials, CHUNK):
        count = min(CHUNK, n_trials - start)
        r_nc, r_co = (simulate_rounds(config, policy, count, master_seed, start_trial=start)
                      for policy in (noncoord, coordinated_policy))
        violations += int(np.count_nonzero(np.where(r_co == 0, outage, r_co) >
                                           np.where(r_nc == 0, outage, r_nc)))
    return violations
