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
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import analytic
from .fading import POLICY_BAND, gain_block, matrix_block, uniform_block
from .protocol import (AllocationPolicy, PolicyKind, ProtocolConfig, check_rates,
                       policy_allocate)
from .rates import Scheme, log_det_eye_plus

# Trials a chunk plan runs at a time (see _batch_stats).
CHUNK = 1_000_000
# Cells of the (M+1)^K table that Monte Carlo statistics count packets in;
# the engine refuses larger shapes too (_check_shape), so K <= 16.
MAX_TABLE_CELLS = 1 << 16


class FitWindowError(RuntimeError):
    """Not enough resolvable points to fit a slope; raise the trial count."""


class RangeError(RuntimeError):
    """Requested level is outside the simulated curve."""


# ---------------------------------------------------------------------------
# vectorized protocol engine


class _DrawMemo(threading.local):
    """Whole draw blocks of one master seed, in buffers the memo owns, and
    the slot-0 outcomes decided from them.

    A block holds, batch last, one kind of draw of one slot over trials
    [start, start + n): the SISO gains of ("gain", band, lambda), the packed
    Grams (fading.matrix_block) of ("gram", band, lambda, tx, rx), or the
    K=3 split's coin u < 0.5 of ("coin",), one byte per trial, under the
    key (what, slot, start). `fading` draws whole ranges of trials only,
    so a range is drawn once and every read of its rows takes them from
    the block. A read returns a read-only view of the block or a copy of
    some of its rows.

    - Kept: `blocks` maps a key to its buffer and the trials drawn into it
      so far. A longer read draws the missing trials into the buffer's
      tail (draws are keyed by trial, so the two join bit for bit); the
      buffer is reallocated only to grow.
    - Outcomes: `outcomes` keeps each SISO or MIMO configuration's slot-0
      outcome (`first_outcome`), keyed by the whole fading profile, rates
      and power, which no scheme or policy changes, for the trials decided
      so far; it goes, not to `spare`, on a seed switch.
    - Recycled: a call on another seed forgets the values and moves the
      buffers to `spare`, so the new seed's block for a key is drawn into
      the memory of the old one. Kept and spare buffers and kept outcomes
      together hold at most CAP_BYTES (`nbytes`, counted once a draw has
      landed); the memo releases spare buffers, oldest first, when that
      makes room.
    - Scratch: a block that does not fit, even with every spare buffer
      released, is drawn into a reused buffer and not kept: one per slot-0
      band, which the engine reads whole and holds for its call, and one
      for reads of rows, which take them at once. Scratch grows to the
      largest such block and lives for one chunk plan (`plan`).

    Each thread fills a memo of its own (a worker's ends with the call's
    pool); the scalar oracle reads one-trial blocks of `fading`, never the memo.
    """

    CAP_BYTES = 32 << 20

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Release every buffer."""
        self.seed, self.blocks, self.spare, self.nbytes = None, {}, {}, 0
        self.outcomes, self.scratch = {}, {}

    @contextmanager
    def plan(self):
        """Scratch for the reads of one chunk plan, released when it ends."""
        try:
            yield
        finally:
            self.scratch = {}

    def _switch(self, master_seed: int) -> None:
        """Forget the values of another seed: blocks go to `spare`,
        outcomes go."""
        if master_seed != self.seed:
            self.spare.update((key, buf) for key, (buf, _) in self.blocks.items())
            self.nbytes -= sum(t.nbytes + won.nbytes for t, won, _ in self.outcomes.values())
            self.seed, self.blocks, self.outcomes = master_seed, {}, {}

    def _room(self, need: int) -> bool:
        """Whether `need` more bytes fit under CAP_BYTES once enough spare
        buffers are released, oldest first; releases them only then."""
        if self.nbytes - sum(spare.nbytes for spare in self.spare.values()) + need \
                > self.CAP_BYTES:
            return False
        while self.nbytes + need > self.CAP_BYTES:
            self.nbytes -= self.spare.pop(next(iter(self.spare))).nbytes
        return True

    def read(self, what: tuple, slot: int, master_seed: int, start_trial: int,
             n_trials: int, rows, draw, lead: tuple = (), dtype=np.float64):
        """The block `what` of `slot` over trials [start_trial, start_trial +
        n_trials) at the trial offsets `rows`, or all of them when None.
        A block has shape lead + (trials,) and `dtype`; `draw(first, count,
        out)` draws trials [first, first + count) into `out`.
        """
        self._switch(master_seed)
        key = (what, slot, start_trial)
        kept, have = self.blocks.get(key, (None, 0))
        buf = kept
        if have < n_trials:
            keep = True
            if kept is None or kept.shape[-1] < n_trials:
                buf, keep = self._buffer(key, kept, have, lead + (n_trials,), np.dtype(dtype),
                                         what if rows is None else None)
            draw(start_trial + have, n_trials - have, buf[..., have:n_trials])
            if keep:
                if buf is not kept:
                    self.nbytes += buf.nbytes - (0 if kept is None else kept.nbytes)
                self.blocks[key] = (buf, n_trials)
        if rows is not None:
            return np.take(buf, rows, axis=-1)
        block = buf[..., :n_trials]
        block.flags.writeable = False
        return block

    def _buffer(self, key, kept, have: int, shape: tuple, dtype, role):
        """A buffer of `shape` to draw `key`'s block into, holding the first
        `have` trials of `kept` (the key's kept buffer, too short, or None),
        and whether the memo keeps it: the key's spare buffer if long enough,
        else a new one if it fits under CAP_BYTES once enough spare buffers
        are released, oldest first, else the scratch of `role`. A spare taken
        or released stops counting; `read` counts a kept buffer once its draw
        has landed."""
        if kept is None and key in self.spare:
            spare = self.spare.pop(key)
            self.nbytes -= spare.nbytes
            if spare.shape[-1] >= shape[-1]:
                return spare, True
        size = math.prod(shape) * dtype.itemsize
        keep = self._room(size - (0 if kept is None else kept.nbytes))
        if keep:
            buf = np.empty(shape, dtype)
        else:
            raw = self.scratch.get(role)
            if raw is None or raw.nbytes < size:
                raw = self.scratch[role] = np.empty(size, np.uint8)
            buf = raw[:size].view(dtype).reshape(shape)
        if have:
            buf[..., :have] = kept[..., :have]
        return buf, keep

    def first_outcome(self, keys, master_seed: int, start_trial: int, n_trials: int,
                      decide) -> list:
        """The read-only slot-0 outcome (offsets, won) over trials
        [start_trial, start_trial + n_trials) of each configuration keys[g]
        (profile, rates, power): the columns and flags of _first_copies or
        _first_log_dets, offsets counted from start_trial. A shorter count
        takes a kept outcome's prefix; `decide(group, first)` gives the
        outcomes of the trials from start_trial + first on of keys[group],
        offsets counted from there, which join the kept ones."""
        self._switch(master_seed)
        out, todo, kept = [None] * len(keys), {}, [None] * len(keys)
        for g, key in enumerate(keys):
            kept[g] = self.outcomes.get((key, start_trial))
            have = 0 if kept[g] is None else kept[g][2]
            if have >= n_trials:
                t, won, _ = kept[g]
                j = np.searchsorted(t, n_trials)
                out[g] = t[:j], won[:, :j]
            else:
                todo.setdefault(have, []).append(g)
        for have, group in todo.items():
            for g, (t, won) in zip(group, decide(group, have)):
                if have:
                    t, won = np.concatenate((kept[g][0], t + have)), np.hstack((kept[g][1], won))
                t.flags.writeable = won.flags.writeable = False
                out[g] = t, won
                key = (keys[g], start_trial)
                now = self.outcomes.get(key)    # kept[g], or this call's twin of keys[g]
                held = 0 if now is None else now[0].nbytes + now[1].nbytes
                if self._room(t.nbytes + won.nbytes - held):
                    self.nbytes += t.nbytes + won.nbytes - held
                    self.outcomes[key] = t, won, n_trials
        return out


_DRAWS = _DrawMemo()


def _coin(slot: int, master_seed: int, start_trial: int, n_trials: int,
          rows: np.ndarray) -> np.ndarray:
    """The K=3 split's coin u < 0.5 from `slot`'s policy uniform for the
    trial offsets `rows` of [start_trial, start_trial + n_trials), read
    through the memo of this seed's draws (_DRAWS)."""
    def draw(first, count, out):
        np.less(uniform_block(master_seed, slot, POLICY_BAND, first, count)[:, 0], 0.5, out=out)
    return _DRAWS.read(("coin",), slot, master_seed, start_trial, n_trials, rows, draw,
                       dtype=bool)


def _assignment_matrix(active: np.ndarray, rows: np.ndarray, policy: AllocationPolicy,
                       slot: int, master_seed: int, start_trial: int, n_trials: int):
    """Band -> user map, shape (K, len(rows)), -1 marking an idle band, and
    for each band the users it goes to in some column, ascending.

    `active` is (K, len(rows)): user u is still active in column j, trial
    offset rows[j] in [0, n_trials); every column has an active user. Each
    column gets protocol.policy_allocate's map for its activity pattern and,
    for the random K=3 split, its trial's coin from the policy uniform of
    slot - 1 (`slot` >= 1 is the slot entered), with -1 for a band handed
    back to a resolved owner.

    A column's code is its activity code (_activity_code) with bit K set by
    the coin; one np.take reads every column's map from a table of every
    code's map (_band_maps).
    """
    k, n = active.shape
    code = _activity_code(active)
    if policy.kind is PolicyKind.RANDOM_SPLIT_K3:
        code |= _coin(slot - 1, master_seed, start_trial, n_trials, rows).astype(np.uint16) << k
    table = _band_maps(policy, k)
    seen = np.zeros(table.shape[1], dtype=bool)
    seen[code] = True
    receivers = [sorted(set(row) - {-1}) for row in table[:, seen].tolist()]
    return np.take(table, code, axis=1), receivers


def _activity_code(active: np.ndarray) -> np.ndarray:
    """Each column's activity code: bit u set while user u is active. A
    shape the engine admits (_check_shape) has K <= 16, so a uint16 holds
    it with the K=3 split's coin bit."""
    code = np.zeros(active.shape[1], dtype=np.uint16)
    for key in active[::-1]:    # user 0 last, each key shifted in as the low bit
        code <<= 1
        code |= key
    return code


@lru_cache(maxsize=64)
def _band_maps(policy: AllocationPolicy, k: int) -> np.ndarray:
    """Every activity code's band map (_assignment_matrix) under `policy`
    at K = k, shape (K, codes), -1 marking an idle band; read-only."""
    split = policy.kind is PolicyKind.RANDOM_SPLIT_K3
    table = np.empty((k, 1 << (k + split)), dtype=np.min_scalar_type(-k))
    for c in range(table.shape[1]):
        failed = {u for u in range(k) if c >> u & 1}
        mapping = policy_allocate(failed, set(range(k)) - failed, policy, k,
                                  coin=bool(c >> k & 1) if split else None)
        table[:, c] = [mapping[b] if mapping[b] in failed else -1 for b in range(k)]
    table.flags.writeable = False
    return table


def _distinct(index: np.ndarray, size: int):
    """The sorted distinct values of `index` (each in [0, size)) and, for
    each entry, its position among them: from a table of `size` flags, or
    by sorting where that table would be more than four times `index`."""
    if size > 4 * len(index):
        return np.unique(index, return_inverse=True)
    seen = np.zeros(size, dtype=bool)
    seen[index] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[index]


# Relative half-width of the band around a SISO slot-0 threshold inside
# which _first_copies checks a gain with the exact expression: far wider
# than the few ulps by which the compare and the expression can part.
_THRESHOLD_GUARD = 1e-12
_TINY = np.finfo(float).tiny


def _first_copies(gains, rates: np.ndarray, powers: np.ndarray) -> list:
    """SISO slot 0 of G configurations on the same trials, where user u
    decodes its first copy, gain gains[u][t], when log1p(g * P) >= R at
    R = rates[u, c], P = powers[c]: for each configuration, (trials, won),
    the trials where some user does not decode, ascending, and each user's
    outcome there, equal to that expression bit for bit.

    Only a gain below the upper edge of its threshold C = expm1(R) / P's
    guard band, C (1 + guard), may miss, and one in [C (1 - guard),
    C (1 + guard)) is decided by the exact expression. So is every gain of
    a pair whose expm1(R) or C is not a normal finite float (a zero rate, a
    rate whose expm1 overflows, a threshold past float range), where the
    compare's relative error has no bound: its band is (-inf, inf).
    """
    with np.errstate(over="ignore"):
        head = np.expm1(rates)
        c = head / powers
        fast = (head >= _TINY) & (c >= _TINY) & np.isfinite(c)
        upper = np.where(fast, c * (1 + _THRESHOLD_GUARD), np.inf)
        lower = np.where(fast, c * (1 - _THRESHOLD_GUARD), -np.inf)
    live, below = np.empty((2, len(gains[0])), dtype=bool)
    out = []
    for g, power in enumerate(powers):
        for u, x in enumerate(gains):
            np.less(x, upper[u, g], out=below if u else live)
            if u:
                live |= below
        t = np.flatnonzero(live)
        won = np.empty((len(gains), len(t)), dtype=bool)
        rechecked = False
        for u, x in enumerate(gains):
            x = np.take(x, t)
            np.greater_equal(x, upper[u, g], out=won[u])
            near = np.flatnonzero((x >= lower[u, g]) & ~won[u])
            if len(near):
                with np.errstate(over="ignore"):
                    won[u, near] = np.log1p(x[near] * power) >= rates[u, g]
                rechecked = True
        if rechecked:
            # a trial whose users all pass the exact check is not live
            keep = np.flatnonzero(~won.all(axis=0))
            t, won = t[keep], np.take(won, keep, axis=1)
        out.append((t, won))
    return out


def _first_log_dets(grams, rates: np.ndarray, powers: np.ndarray) -> list:
    """MIMO slot 0 as _first_copies gives SISO's: user u decodes its first
    copy, packed Gram grams[u][..., t], when log_det_eye_plus(P / u, G) >= R,
    as RTD and INR both read one copy. Each log-det is taken once a power,
    and one compare decides the group: won[g, u, t]."""
    at = {p: i for i, p in enumerate(dict.fromkeys(powers.tolist()))}
    nats = np.array([[log_det_eye_plus(p / len(grams[0]), x) for x in grams] for p in at])
    won = (nats if len(at) == 1 else nats[[at[p] for p in powers.tolist()]]) >= rates.T[:, :, None]
    live = [np.flatnonzero(w) for w in ~won.all(axis=1)]
    return [(t, np.take(w, t, axis=1)) for t, w in zip(live, won)]


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
    draw each block once. Slot 0 is decided from the first copies alone:
    SISO by one compare of each gain with its threshold (_first_copies),
    MIMO by each user's log-det once per power (_first_log_dets). The
    outcome is kept in the memo beside the draws, so a later call on the
    seed with the same profile, rates and power, under any scheme or
    policy, decides only trials no call decided (_DrawMemo.first_outcome).
    From there on only live columns are worked on, and the engine state is
    held per row. Under RTD, where columns share a (power, trial) pair, a
    row holds the columns of one pair whose active sets agreed at every
    slot so far: they got the same band maps, so their accumulators are
    bit-identical and only their rates differ. Slot 0's rows are the
    distinct pairs; each later slot splits a row by the active set each of
    its columns enters the slot with, keyed by (row, index of the distinct
    set), so no table grows with rows times 2^K. The band maps, the
    accumulator adds and the decode's log1p or log-det run per row, and
    one take gives each column its row's nats for the decode check, the
    only step that sees the rates. Everywhere else the rows are the
    columns: INR decodes on the accumulators as they are, so a row would
    save only the adds, which cost less than splitting the rows (on a
    2-vCPU Xeon, 2x2 MIMO INR grid chunks ran 5-19% slower with rows).
    Each (slot, band) read takes each pair's trial from the block and its
    copy is worked out once per pair. With one power the pairs are the
    trials and the power stays a float.

    Each slot from 1 on reads its band maps and, for each band, the users
    it goes to in some row from _assignment_matrix. Band b's copy is added
    only into those users' accumulators, zero in the rows where another
    user or nobody gets it; bands go in ascending order, so every
    accumulator adds its copies in the scalar oracle's order.
    """
    config = configs[0]
    _check_shape(config)
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
    block = gain_block if siso else matrix_block

    def draw(b, s, rows):
        # the power-free part of one copy on band b at slot s, for trial offsets
        # rows (all trials when None), read through the memo of this seed's draws
        lam = profile.lambdas[b]
        what, lead = (("gain", b, lam), ()) if siso else (("gram", b, lam, u_tx, v_rx),
                                                          (u_tx, u_tx))
        return _DRAWS.read(what, s, master_seed, start_trial, n_trials, rows,
                           partial(block, profile, b, s, master_seed), lead)

    def plan(pairs):
        # the distinct (power, trial) pairs of the rows, the trial and the
        # power of each, and each row's position among them, None where no
        # two rows share a pair; with one power the pairs are the trials and
        # the power stays a float
        to_row = None
        if n_pow < n_cfg:
            live, to_row = _distinct(pairs, n_pow * n_trials)
            pairs, to_row = (live, to_row) if len(live) < len(pairs) else (pairs, None)
        if n_pow == 1:
            return pairs, config.power, to_row
        return pairs % n_trials, powers[pairs // n_trials], to_row

    def copies(b, s, planned):
        # what band b's copy at slot s adds to the accumulator of each row,
        # worked out once per pair
        rows, power, to_row = planned
        # slot 0's block is in hand, also when the memo had no room to keep it
        x = np.take(first[b], rows, axis=-1) if s == 0 else draw(b, s, rows)
        if siso:    # a gathered array of its own, worked out in place
            np.multiply(x, power, out=x)
            x = x if rtd else np.log1p(x, out=x)
        elif not rtd:
            x = log_det_eye_plus(power / u_tx, x)
        return x if to_row is None else np.take(x, to_row, axis=-1)

    # slot 0: every user sends its first copy on its own band
    first = [draw(b, 0, None) for b in range(k)]
    decide_first = _first_copies if siso else _first_log_dets

    def decide(group, start):
        # the outcomes of trials [start, n_trials) of configs[group]
        return decide_first([x[..., start:] for x in first], rates[:, group],
                            powers[power_of[group]])
    keys = [(profile, c.rates, c.power) for c in configs]
    outcome = _DRAWS.first_outcome(keys, master_seed, start_trial, n_trials, decide)
    cols = np.concatenate([t + g * n_trials for g, (t, _) in enumerate(outcome)])
    won = np.hstack([w for _, w in outcome])
    rounds = won.astype(np.int16)
    active = ~won
    pairs, col_rates = cols, rates
    if n_cfg > 1:
        col_cfg = cols // n_trials
        pairs, col_rates = cols % n_trials, np.take(rates, col_cfg, axis=1)
        if n_pow > 1:
            pairs += power_of[col_cfg] * n_trials
    # pairs[r] is row r's (power, trial) pair and row_of[j] column j's row,
    # None where the rows are the columns
    row_of = None
    if n_pow < n_cfg and rtd:
        pairs, row_of = _distinct(pairs, n_pow * n_trials)
    planned = plan(pairs)
    # acc is user-major; RTD sums each MIMO user's Grams in a (u, u, K, ...)
    # array, packed as fading.matrix_block packs them
    acc = np.empty(((k,) if siso or not rtd else (u_tx, u_tx, k)) + (len(pairs),))
    for b in range(k):
        acc[..., b, :] = copies(b, 0, planned)
    at = None     # where the working columns sit in rounds, when not all of them
    for s in range(1, m_max):
        working = active.any(axis=0)
        n_work = np.count_nonzero(working)
        if n_work == 0:
            break
        if n_work < active.shape[1]:
            keep = np.flatnonzero(working)
            at, active = keep if at is None else at[keep], np.take(active, keep, axis=1)
            if n_cfg > 1:
                col_rates = np.take(col_rates, keep, axis=1)
            if row_of is None:
                pairs, acc = pairs[keep], np.take(acc, keep, axis=-1)
                planned = plan(pairs)
            else:
                row_of = row_of[keep]
        row_active = active
        if row_of is not None:
            # each row splits by the active sets its columns enter slot s with
            codes, which = _distinct(_activity_code(active), 1 << k)
            split, row_of = _distinct(row_of * len(codes) + which, len(pairs) * len(codes))
            old = split // len(codes)
            which = split - old * len(codes)
            pairs, acc = pairs[old], np.take(acc, old, axis=-1)
            planned = plan(pairs)
            row_active = np.take((codes & (1 << np.arange(k))[:, None]) != 0, which, axis=1)
        assign, receivers = _assignment_matrix(row_active, pairs % n_trials if n_pow > 1 else pairs,
                                               policy, s, master_seed, start_trial, n_trials)
        for b, to in enumerate(receivers):
            if to:
                x = copies(b, s, planned)
                for u in to:
                    acc[..., u, :] += np.where(assign[b] == u, x, 0.0)
        nats = acc
        if rtd:     # decoded on the summed gains or Grams
            row_power = config.power if n_pow == 1 else powers[pairs // n_trials]
            nats = np.log1p(acc) if siso else log_det_eye_plus(row_power / u_tx, acc)
        if row_of is not None:
            nats = np.take(nats, row_of, axis=-1)
        won = active & (nats >= col_rates)
        # an active column's rounds are 0, so one add records them (at repeats no column)
        rounds[:, slice(None) if at is None else at] += won * np.int16(s + 1)
        active &= ~won
    return cols, rounds


def _check_shape(config: ProtocolConfig) -> None:
    """Refuse K and M whose (M+1)^K table passes MAX_TABLE_CELLS."""
    cells = (config.max_rounds + 1) ** config.n_users
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"statistics need (M+1)^K = {cells} cells, more than "
                         f"{MAX_TABLE_CELLS}; lower the number of users or rounds")


def _grid_rounds(configs, policy: AllocationPolicy, n_trials: int, master_seed: int,
                 start_trial: int = 0) -> np.ndarray:
    """Decode rounds of trials [start_trial, start_trial + n_trials) for each
    of `configs`, which differ only in rates and power, on the same draws.

    Returns shape (G, n_trials, K): round in 1..M, or 0 for outage. Row g
    equals simulate_rounds of configs[g]. The rounds of _live_rounds, with
    every column it leaves out filled in as resolved at round 1. Refuses
    the shapes the count tables refuse (_check_shape).
    """
    with _DRAWS.plan():
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
    A call keeps its slot-0 outcome in the memo of this seed's draws, and a
    later call with the same profile, rates and power reads it.
    """
    return _grid_rounds([config], policy, n_trials, master_seed, start_trial)[0]


def _chunk_stats(configs, policy: AllocationPolicy, start: int, count: int,
                 master_seed: int) -> list:
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
    cols, rounds = _live_rounds(configs, policy, count, master_seed, start_trial=start)
    k, radix, n_cfg = configs[0].n_users, configs[0].max_rounds + 1, len(configs)
    code = cols // count
    live = np.bincount(code, minlength=n_cfg)
    for r in rounds:
        code *= radix
        code += r
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
    for name, value in (("the number of configurations", len(configs)),
                        *(("n_trials", n) for n in n_trials), ("n_jobs", n_jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    per_chunk = min(CHUNK, max(n_trials))
    plan, tasks, start = [], [], 0
    live = list(range(len(configs)))
    while live:
        count = min(-(-per_chunk // len(live)), min(n_trials[g] for g in live) - start)
        plan.append(live)
        tasks.append(([configs[g] for g in live], policy, start, count, master_seed))
        start += count
        live = [g for g in live if n_trials[g] > start]
    totals = [None] * len(configs)
    with _DRAWS.plan():
        if n_jobs > 1 and len(tasks) > 1:
            # imported here so runs without a pool skip it; each thread fills its own memo
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
                results = list(pool.map(_chunk_stats, *zip(*tasks)))
        else:
            results = map(_chunk_stats, *zip(*tasks))
        for live, tables in zip(plan, results):
            for g, t in zip(live, tables):
                totals[g] = t if totals[g] is None else totals[g] + t
    return totals


def simulate_batch(config: ProtocolConfig, policy: AllocationPolicy, n_trials: int,
                   master_seed: int, n_jobs: int = 1) -> np.ndarray:
    """Run n_trials independent packets and count them by resolve rounds:
    the one-configuration case of the chunk plan that grid_tables and
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


def estimates_from_stats(counts: np.ndarray, config: ProtocolConfig) -> dict:
    n = int(counts.sum())
    sums = analytic.table_sums(counts)
    vals = analytic.reduce_table(counts, config.rates, packets=n, sums=sums)
    gamma = vals["gamma"]
    half = {"gamma": 0.0,
            "throughput": _throughput_half_width(counts, n, config.rates, vals["throughput"],
                                                 gamma)}
    p_decoded = []
    for u, fails in enumerate(sums[0].tolist()):
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
        for key, c in zip(analytic.event_keys(config.max_rounds), counts.ravel().tolist()):
            half[key] = _bernoulli_ci(c, n)
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


def _coordinated(config: ProtocolConfig, policy: AllocationPolicy) -> bool | None:
    """Whether the closed-form tables of `config` give a lone failing user
    the free band, or None for a setup that has none: the tables cover two
    SISO users, whatever the rates, power and policy. They cover both rules
    policy_allocate can apply to a lone failing user: it receives the free
    band, or keeps only its own."""
    if config.n_users != 2 or not config.profile.is_siso:
        return None
    return policy_allocate({0}, {1}, policy, 2)[1] == 0


def grid_tables(config: ProtocolConfig, policy: AllocationPolicy, rate_grid, n_trials: int,
                master_seed: int, n_jobs: int = 1) -> tuple:
    """(tables, packets): the terminal-event tables of `config` at the rate
    vectors of `rate_grid`, stacked in grid order, and the packets each
    table counts, for `analytic.throughput_closed` and the other
    reductions.

    Closed form wherever _coordinated has tables: one analytic.event_table
    call builds the probability stack (packets 1), each user's resolve
    table once per distinct rate. Otherwise the Monte Carlo count tables
    (packets n_trials), each equal to simulate_batch of `config` with that
    vector as its rates and the same other arguments. Draws are keyed by
    (seed, trial, slot, band), never by the rates, so the vectors share
    them (common random numbers), and a chunk runs ceil(min(CHUNK,
    n_trials) / G) trials of all G vectors (_batch_stats). The vectors are
    checked as ProtocolConfig checks its rates, each distinct rate once.
    """
    grid = [tuple(map(float, rates)) for rates in rate_grid]
    if not grid:
        raise ValueError("rate grid is empty")
    good = {r for r in set().union(*grid) if math.isfinite(r) and r >= 0}
    for rates in grid:
        if len(rates) != config.n_users or not good.issuperset(rates):
            check_rates(rates, config.n_users)  # raises its ConfigurationError
    coordinated = _coordinated(config, policy)
    if coordinated is not None:
        return analytic.event_table(config.scheme, config.max_rounds, config.profile.lambdas,
                                    config.power, *zip(*grid), coordinated=coordinated), 1
    configs = [replace(config, rates=rates) for rates in grid]
    return np.array(_batch_stats(configs, policy, [n_trials] * len(configs), master_seed,
                                 n_jobs)), n_trials


def analytic_counterparts(config: ProtocolConfig, policy: AllocationPolicy) -> dict:
    """Closed-form / semi-numerical values matching the estimate() targets:
    `analytic.reduce_table` of the closed-form table, the one-pair case of
    grid_tables.

    Available for K = 2 SISO under any policy defined for two users
    (_coordinated); returns {} otherwise, and where the closed form
    refuses the parameters (analytic.ClosedFormRangeError): those cases
    are Monte Carlo only.
    """
    coordinated = _coordinated(config, policy)
    if coordinated is None:
        return {}
    try:
        table = analytic.event_table(config.scheme, config.max_rounds, config.profile.lambdas,
                                     config.power, *config.rates, coordinated=coordinated)
    except analytic.ClosedFormRangeError:
        return {}
    return analytic.reduce_table(table, config.rates)


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
    if not snr_points_db:
        raise ValueError("SNR axis is empty")
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
