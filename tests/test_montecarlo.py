import concurrent.futures
import itertools
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from coharq import analytic, montecarlo
from coharq.analytic import packets_per_slot
from coharq.cli import grid_throughputs
from coharq.fading import (POLICY_BAND, ConfigurationError, FadingProfile, gain_block,
                           matrix_block, uniform_block)
from coharq.montecarlo import (EstimateWithCI, FitWindowError, RangeError, SweepResult, _assignment_matrix,
                               _first_copies, _grid_rounds, analytic_counterparts,
                               db_to_linear, energy_gain_at_outage, estimate,
                               estimates_from_stats,
                               fit_diversity_slope, grid_tables, simulate_batch,
                               simulate_rounds, snr_at_outage, sweep)
from coharq.protocol import (AllocationPolicy, PolicyKind, ProtocolConfig,
                             policy_allocate, run_packet)
from coharq.fading import Substream
from coharq.rates import Scheme
from test_pathwise import later

SEED = 20260826
COORD = AllocationPolicy(PolicyKind.ROUND_ROBIN_GENERAL)
NONCOORD = AllocationPolicy(PolicyKind.NON_COORDINATED)
SPLIT = AllocationPolicy(PolicyKind.RANDOM_SPLIT_K3)
ROBIN = AllocationPolicy(PolicyKind.ROUND_ROBIN_GENERAL)


def make_config(rates=(1.0, 1.0), lambdas=(1.0, 1.0), power=1.0,
                scheme=Scheme.RTD, max_rounds=2):
    return ProtocolConfig(profile=FadingProfile(lambdas=lambdas), rates=rates,
                          power=power, scheme=scheme, max_rounds=max_rounds)


# ---------------------------------------------------------------------------
# vectorized engine against the scalar protocol


def assert_engine_matches_oracle(cfg, policy, n):
    """simulate_rounds rows equal run_packet's decode rounds (0 for outage in
    both), trial by trial; returns the engine's rounds."""
    rounds = simulate_rounds(cfg, policy, n, SEED)
    for trial in range(n):
        out = run_packet(cfg, policy, Substream(SEED, trial=trial))
        assert tuple(rounds[trial].tolist()) == out.decode_round, trial
    return rounds


# Deep-SNR setups (30-35 dB): fewer than one trial in 64 has a user that
# misses slot 0, so slot >= 1 reads few live rows of each block.
DEEP_TRIALS = 5000
DEEP_SNR = [
    *[pytest.param(policy, dict(scheme=scheme, lambdas=(1.0, 2.0), power=power, max_rounds=3),
                   id=f"deep-k2-{scheme.value}-{name}")
      for scheme, power in ((Scheme.RTD, 1e3), (Scheme.INR, 10 ** 3.5))
      for name, policy in (("coord", COORD), ("noncoord", NONCOORD))],
    pytest.param(SPLIT, dict(rates=(1.0, 0.7, 1.3), lambdas=(1.0, 2.0, 0.5), power=1e3,
                             scheme=Scheme.INR, max_rounds=3), id="deep-k3-inr-split"),
]


def deep_cases():
    """DEEP_SNR as (policy, config) parameters."""
    return [pytest.param(p.values[0], make_config(**p.values[1]), id=p.id) for p in DEEP_SNR]


# INR setups whose slots >= 1 deal bands in the two ways the engine tells
# apart: K=3 non-coordinated, where no band ever moves, and K=4 round-robin
# at M=4, where one band reaches several receivers in one slot
MOVES = [
    pytest.param(NONCOORD, dict(scheme=Scheme.INR, rates=(1.0, 0.7, 1.3), lambdas=(1.0, 2.0, 0.5),
                                power=1.5, max_rounds=3), id="k3-inr-noncoord-m3"),
    pytest.param(ROBIN, dict(scheme=Scheme.INR, rates=(1.0, 0.6, 1.2, 0.9),
                             lambdas=(1.0, 2.0, 0.5, 1.0), power=2.0, max_rounds=4),
                 id="k4-inr-robin-m4"),
]


@pytest.mark.parametrize("policy,cfg_kwargs", [
    (COORD, dict(scheme=Scheme.RTD, max_rounds=2, lambdas=(1.0, 2.0), power=2.0)),
    (NONCOORD, dict(scheme=Scheme.INR, max_rounds=3, rates=(0.8, 1.4))),
    (ROBIN, dict(scheme=Scheme.RTD, max_rounds=3)),
    *MOVES,
    *DEEP_SNR,
])
def test_vectorized_matches_scalar(policy, cfg_kwargs):
    cfg = make_config(**cfg_kwargs)
    assert_engine_matches_oracle(cfg, policy, DEEP_TRIALS if cfg.power >= 1e3 else 400)


@pytest.mark.parametrize("policy,cfg_kwargs", DEEP_SNR)
def test_deep_snr_draws_live_rows_alone(policy, cfg_kwargs, memo, monkeypatch):
    """At deep SNR slot >= 1 works on the few live rows alone, read from the
    blocks a cold call keeps; rounds equal the oracle, and rounds and tables
    equal those of a memo with no room, which draws each range anew and
    takes its rows."""
    cfg = make_config(**cfg_kwargs)
    n = DEEP_TRIALS
    rounds = assert_engine_matches_oracle(cfg, policy, n)
    assert 0 < np.count_nonzero((rounds != 1).any(axis=1)) < n / 64
    assert {slot for _, slot, *_ in kept_blocks(memo)} >= {0, 1}
    monkeypatch.setattr(montecarlo, "CHUNK", n // 2)
    counts = simulate_batch(cfg, policy, n, SEED)
    memo.clear()
    monkeypatch.setattr(memo, "CAP_BYTES", 0)
    assert np.array_equal(simulate_rounds(cfg, policy, n, SEED), rounds)
    assert np.array_equal(simulate_batch(cfg, policy, n, SEED), counts)
    assert not memo.blocks


def test_split_coin_of_a_later_slot_is_drawn_for_its_rows_alone(memo, monkeypatch):
    """The K=3 split's coin of slot >= 1 for few columns among many trials
    equals the full draw's coin, read from the kept block or, with no room
    to keep it, drawn for that read alone."""
    patterns = [p for p in itertools.product((False, True), repeat=3) if sum(p) == 2]
    active = np.array(patterns * 4).T
    n = DEEP_TRIALS
    rows = np.random.default_rng(SEED).choice(n, size=active.shape[1])
    assign = _assignment_matrix(active, rows, SPLIT, 2, SEED, 5, n)
    assert list(memo.blocks) == [(("coin",), 1, 5)]
    coins = uniform_block(SEED, 1, POLICY_BAND, 5, n)[rows, 0] < 0.5
    for j, coin in enumerate(coins.tolist()):
        failed = set(np.flatnonzero(active[:, j]).tolist())
        mapping = policy_allocate(failed, {0, 1, 2} - failed, SPLIT, 3, coin=coin)
        assert assign[:, j].tolist() == [mapping[b] if mapping[b] in failed else -1
                                         for b in range(3)]
    assert coins.any() and not coins.all()
    memo.clear()
    monkeypatch.setattr(memo, "CAP_BYTES", 0)
    assert np.array_equal(_assignment_matrix(active, rows, SPLIT, 2, SEED, 5, n), assign)
    assert not memo.blocks


def ulp_steps(x, steps=8):
    """x and the floats up to `steps` ulps below and above it."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def test_first_copy_decision_is_exact_at_its_threshold():
    """Slot 0's live columns and won flags equal log1p(g * P) >= R for gains
    stepped ulp by ulp around C = expm1(R) / P and around the guard band's
    edges, for normal thresholds and for subnormal, zero and infinite ones:
    all pairs in one call, and each pair alone. Two users see the same
    gains in opposite trial orders, so columns mix users that decode with
    users that do not."""
    guard = montecarlo._THRESHOLD_GUARD
    pairs = list(itertools.product((1e-9, 1.0, 50.0, 700.0), (1e-3, 1.0, 1e6, 1e30)))
    # a subnormal threshold, a zero one (zero rate), expm1 overflowing, a
    # threshold past float range, a subnormal expm1 under a normal threshold
    pairs += [(1e-300, 1e10), (0.0, 1.0), (710.0, 1.0), (700.0, 1e-300), (1e-310, 1e-20)]
    gains = [0.0, 1.0, 5e-324, np.finfo(float).max]
    with np.errstate(over="ignore"):
        for rate, power in pairs:
            c = math.expm1(rate) / power if rate < 709 else math.inf
            for center in (c, c * (1 - guard), c * (1 + guard)):
                if 0 < center < math.inf:
                    gains += ulp_steps(center)
        gains = np.array(gains)
        users = [gains, gains[::-1].copy()]
        rates, powers = (np.array(v) for v in zip(*pairs))
        # want[u, pair, trial]
        want = np.stack([np.log1p(x * powers[:, None]) >= rates[:, None] for x in users])
    for at in [slice(None)] + [slice(c, c + 1) for c in range(len(pairs))]:
        got = _first_copies(users, np.stack([rates[at]] * 2), powers[at])
        assert len(got) == len(powers[at])
        for expected, (t, won) in zip(want[:, at].transpose(1, 0, 2), got):
            assert np.array_equal(t, np.flatnonzero(~expected.all(axis=0)))
            assert won.shape == (2, len(t)) and np.array_equal(won, expected[:, t])
    assert len(gains) > 16 * 3 * 17
    # every normal threshold splits its steps, and columns mix the users
    assert want[0, :16].any(axis=1).all() and not want[0, :16].all(axis=1).any()
    assert (want[0] & ~want[1]).any() and (want[1] & ~want[0]).any()
    # end to end: a rate at a drawn slot-0 gain's boundary decides as the oracle
    g = float(gain_block(FadingProfile(lambdas=(1.0, 2.0)), 0, 0, SEED, 0, 1)[0])
    for scheme in (Scheme.RTD, Scheme.INR):
        exact = float(np.log1p(g * 3.0))
        for rate in (np.nextafter(exact, 0.0), exact, np.nextafter(exact, np.inf)):
            cfg = make_config(rates=(float(rate), 1.0), power=3.0, scheme=scheme)
            rounds = assert_engine_matches_oracle(cfg, COORD, 8)
            assert (rounds[0, 0] == 1) == (rate <= exact)


def test_vectorized_matches_scalar_k3_split():
    profile = FadingProfile(lambdas=(1.0, 2.0, 0.5))
    cfg = ProtocolConfig(profile=profile, rates=(1.0, 0.7, 1.3), power=1.5,
                         scheme=Scheme.INR, max_rounds=2)
    assert_engine_matches_oracle(cfg, SPLIT, 500)


def test_vectorized_matches_scalar_at_the_largest_admitted_shape():
    # K = 10 at M = 2 fills 3^10 of the 2^16 table cells; one more user is
    # refused (test_simulate_batch_rejects_bad_counts)
    k = 10
    cfg = make_config(rates=(1.0,) * k, lambdas=(1.0,) * k, power=3.0)
    assert (cfg.max_rounds + 1) ** (k + 1) > montecarlo.MAX_TABLE_CELLS
    rounds = assert_engine_matches_oracle(cfg, ROBIN, 300)
    assert set(np.unique(rounds).tolist()) == {0, 1, 2}


ASSIGNMENT_CASES = [(COORD, 2), (NONCOORD, 2), (SPLIT, 3), (ROBIN, 5), (NONCOORD, 3),
                    (ROBIN, 3), (ROBIN, 4)]


@pytest.mark.parametrize("policy,k", ASSIGNMENT_CASES,
                         ids=["coord-k2", "noncoord-k2", "split-k3", "robin-k5",
                              "noncoord-k3", "robin-k3", "robin-k4"])
def test_assignment_matrix_matches_policy_allocate(policy, k, memo):
    # every nonempty activity pattern, eight columns each, in a shuffled
    # order and at reversed trial offsets; on a cleared memo and band-map
    # cache, and after every other case has filled its band maps
    patterns = [p for p in itertools.product((False, True), repeat=k) if any(p)]
    active = np.array(patterns * 8).T
    active = active[:, np.random.default_rng(SEED).permutation(active.shape[1])]
    n = active.shape[1]
    rows = np.arange(n)[::-1]
    slot = 2
    uniforms = uniform_block(SEED, slot - 1, POLICY_BAND, 5, n)[rows, 0]
    for filled in (False, True):
        memo.clear()
        montecarlo._band_maps.cache_clear()
        others = [case for case in ASSIGNMENT_CASES if case != (policy, k)] if filled else []
        for other, other_k in others:
            _assignment_matrix(np.ones((other_k, 1), dtype=bool), np.zeros(1, dtype=int),
                               other, slot, SEED, 5, 1)
        assert montecarlo._band_maps.cache_info().currsize == len(others)
        assign = _assignment_matrix(active, rows, policy, slot, SEED, 5, n)
        cached = montecarlo._band_maps.cache_info()
        assert cached.currsize == cached.misses == len(others) + 1
        assert not montecarlo._band_maps(policy, k)[0].flags.writeable
        for j in range(n):
            failed = set(np.flatnonzero(active[:, j]).tolist())
            mapping = policy_allocate(failed, set(range(k)) - failed, policy, k,
                                      coin=bool(uniforms[j] < 0.5))
            expected = [mapping[b] if mapping[b] in failed else -1 for b in range(k)]
            assert assign[:, j].tolist() == expected, (j, sorted(failed))
    if policy is SPLIT:
        # the two-user patterns see the coin land both ways
        pairs = uniforms[active.sum(axis=0) == 2]
        assert (pairs < 0.5).any() and (pairs >= 0.5).any()


@pytest.mark.parametrize("policy,k", ASSIGNMENT_CASES,
                         ids=["coord-k2", "noncoord-k2", "split-k3", "robin-k5",
                              "noncoord-k3", "robin-k3", "robin-k4"])
def test_band_maps_name_the_bands_that_never_move(policy, k):
    """_band_maps' still bands are those policy_allocate never deals to a
    failed user other than their owner, under any activity pattern and
    coin: every band without coordination, none with it. Each lands in
    exactly the columns where its owner is active."""
    table, still = montecarlo._band_maps(policy, k)
    moved = set()
    for failed in itertools.chain.from_iterable(
            itertools.combinations(range(k), n) for n in range(k + 1)):
        for coin in (False, True):
            mapping = policy_allocate(set(failed), set(range(k)) - set(failed), policy, k,
                                      coin=coin)
            moved |= {b for b, u in mapping.items() if u in failed and u != b}
    assert still == frozenset(range(k)) - moved
    assert still == (frozenset(range(k)) if policy is NONCOORD else frozenset())
    codes = np.arange(table.shape[1])
    for b in still:
        assert np.array_equal(table[b] == b, (codes >> b & 1) == 1)
        assert set(table[b].tolist()) == {b, -1}


def mimo_config(tx, rx, scheme, rates=(1.0, 1.0), lambdas=(1.0, 1.0), power=3.0,
                max_rounds=2):
    return ProtocolConfig(profile=FadingProfile(lambdas=lambdas, tx_antennas=tx,
                                                rx_antennas=rx),
                          rates=rates, power=power, scheme=scheme, max_rounds=max_rounds)


@pytest.mark.parametrize("policy", [COORD, NONCOORD], ids=["coord", "noncoord"])
@pytest.mark.parametrize("scheme", [Scheme.RTD, Scheme.INR], ids=["rtd", "inr"])
@pytest.mark.parametrize("tx,rx", [(2, 2), (3, 2), (2, 3), (1, 2)])
def test_vectorized_matches_scalar_mimo(tx, rx, scheme, policy):
    n_streams = min(tx, rx)
    cfg = mimo_config(tx, rx, scheme, rates=(1.2 * n_streams, 1.6 * n_streams),
                      lambdas=(1.0, 2.0), max_rounds=3)
    rounds = assert_engine_matches_oracle(cfg, policy, 200)
    assert len(np.unique(rounds)) >= 3


def assert_same_stats(a, b):
    assert a.dtype == b.dtype and np.array_equal(a, b)


def test_chunking_is_invisible(monkeypatch):
    cfg = make_config(scheme=Scheme.INR, max_rounds=3)
    whole = simulate_batch(cfg, COORD, 5000, SEED)
    monkeypatch.setattr(montecarlo, "CHUNK", 700)
    parts = simulate_batch(cfg, COORD, 5000, SEED)
    assert_same_stats(whole, parts)


def rate_grid(k, streams=1):
    """Rate vectors for grid tests: a repeated vector, a zero rate and a
    50-nat rate, scaled by the number of spatial streams."""
    grid = [(1.0,) * k, (0.0,) + (1.5,) * (k - 1), (1.0,) * k, (50.0,) + (0.8,) * (k - 1),
            tuple(0.5 + 0.3 * u for u in range(k))]
    return [tuple(streams * r if r < 50 else r for r in v) for v in grid]


def assert_same_estimates(a, b):
    """Same keys in the same order; points and half-widths equal with ==,
    NaN matching NaN."""
    assert list(a) == list(b)
    for key in a:
        for x, y in ((a[key].point, b[key].point),
                     (a[key].half_width_95, b[key].half_width_95)):
            assert x == y or (math.isnan(x) and math.isnan(y)), (key, x, y)
        assert a[key].trials == b[key].trials


K3_SPLIT = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 2.0, 0.5)), rates=(1.0, 0.7, 1.3),
                          power=1.5, scheme=Scheme.INR, max_rounds=2)
K4_ROBIN = make_config(rates=(1.0, 0.6, 1.2, 0.9), lambdas=(1.0, 2.0, 0.5, 1.0), power=2.0,
                       max_rounds=3)

GRID_CASES = [
    *[pytest.param(policy, make_config(scheme=scheme, lambdas=(1.0, 2.0), power=3.0,
                                       max_rounds=3),
                   id=f"k2-{scheme.value}-{name}")
      for scheme in (Scheme.RTD, Scheme.INR)
      for name, policy in (("coord", COORD), ("noncoord", NONCOORD), ("robin", ROBIN))],
    pytest.param(SPLIT, K3_SPLIT, id="k3-inr-split"),
    pytest.param(ROBIN, K4_ROBIN, id="k4-rtd-robin"),
    *[pytest.param(policy, mimo_config(2, 2, scheme), id=f"mimo2x2-{scheme.value}-{name}")
      for scheme in (Scheme.RTD, Scheme.INR)
      for name, policy in (("coord", COORD), ("noncoord", NONCOORD))],
    pytest.param(COORD, mimo_config(3, 2, Scheme.RTD, max_rounds=3), id="mimo3x2-rtd-coord"),
]


@pytest.mark.parametrize("policy,cfg", GRID_CASES + [
    pytest.param(policy, mimo_config(tx, 2, scheme, max_rounds=m),
                 id=f"mimo{tx}x2-{scheme.value}-{name}-m{m}")
    for tx, m in ((1, 3), (3, 2)) for scheme in (Scheme.RTD, Scheme.INR)
    for name, policy in (("coord", COORD), ("noncoord", NONCOORD))])
def test_estimate_grid_equals_per_vector_estimates(policy, cfg):
    """A rate grid's tables and throughputs equal those of each vector on
    its own, bit for bit: the Monte Carlo count tables equal
    simulate_batch and the throughputs the estimates with the same trials
    and seed; the closed-form tables equal the one-pair event tables and
    the throughputs the counterparts."""
    grid = rate_grid(cfg.n_users, min(cfg.profile.tx_antennas, cfg.profile.rx_antennas))
    n = 3000 if cfg.profile.is_siso else 1000
    tables, packets = grid_tables(cfg, policy, grid, n, SEED)
    etas = grid_throughputs(cfg, policy, grid, n, SEED)
    assert len(tables) == len(etas) == len(grid)
    coordinated = montecarlo._coordinated(cfg, policy)
    assert packets == (n if coordinated is None else 1)
    for rates, table, eta in zip(grid, tables, etas):
        vector = replace(cfg, rates=rates)
        if coordinated is not None:
            want = analytic.event_table(cfg.scheme, cfg.max_rounds, cfg.profile.lambdas,
                                        cfg.power, *rates, coordinated=coordinated)
            assert eta == analytic_counterparts(vector, policy)["throughput"]
        else:
            want = simulate_batch(vector, policy, n, SEED)
            assert eta == estimate(vector, policy, n, SEED)["throughput"].point
        assert table.dtype == want.dtype and table.tobytes() == want.tobytes()
    # the 50-nat vector never decodes its first user; the zero rate always does
    assert tables[3][1:].sum() == 0 and tables[1][0].sum() == 0


@pytest.mark.parametrize("policy,cfg", [
    (COORD, make_config(scheme=Scheme.INR, lambdas=(1.0, 2.0), max_rounds=3)),
    (NONCOORD, make_config(scheme=Scheme.RTD, lambdas=(1.0, 2.0), max_rounds=3)),
    (SPLIT, K3_SPLIT),
    (ROBIN, make_config(rates=(1.0, 0.6, 1.2, 0.9, 0.8), lambdas=(1.0, 2.0, 0.5, 1.0, 1.5),
                        power=2.0)),
    (COORD, mimo_config(2, 2, Scheme.RTD, rates=(3.0, 3.0))),
    (COORD, mimo_config(2, 2, Scheme.INR, rates=(3.0, 3.0))),
], ids=["k2-inr-coord", "k2-rtd-noncoord", "k3-inr-split", "k5-rtd-robin",
        "mimo2x2-rtd-coord", "mimo2x2-inr-coord"])
def test_grid_rounds_over_rates_and_powers(policy, cfg):
    # two rate vectors at two powers, the powers out of order: each
    # (power, trial) pair serves two columns. At K=5 the columns enter slot
    # 1 with up to 31 active sets, and (row, set) keys past four times the
    # columns are sorted (_distinct), not flagged in a table.
    low = tuple(0.5 * r for r in cfg.rates)
    configs = [replace(cfg, rates=rates, power=power)
               for rates, power in ((cfg.rates, 6.0), (low, 1.5), (cfg.rates, 1.5), (low, 6.0))]
    n = 1500 if cfg.profile.is_siso else 400
    rounds = _grid_rounds(configs, policy, n, SEED, start_trial=300)
    assert rounds.shape == (len(configs), n, cfg.n_users)
    for c, row in zip(configs, rounds):
        assert np.array_equal(row, simulate_rounds(c, policy, n, SEED, start_trial=300))
    assert len(np.unique(rounds)) == cfg.max_rounds + 1


@pytest.mark.parametrize("cfg,a,b", [
    (make_config(power=3.0, max_rounds=3), (1.5, 3.0), (0.3, 3.0)),
    (mimo_config(2, 2, Scheme.RTD, max_rounds=3), (3.0, 6.0), (0.6, 6.0)),
], ids=["k2-rtd-coord", "mimo2x2-rtd-coord"])
def test_grid_rows_follow_the_activity_history(cfg, a, b):
    # under `a` both users often miss slot 0 and user 0 decodes at slot 1;
    # under `b` user 0 decodes at slot 0. Where user 1 is still active, the
    # trial's two columns enter slot 2 with one active set, {1}, after
    # different slot-1 sets, {0, 1} and {1}: user 1 got its own band at
    # slot 1 under `a` and both bands under `b`, so the columns hold
    # different accumulators, and a row keyed by the current set alone
    # would merge them
    configs = [replace(cfg, rates=a), replace(cfg, rates=b)]
    n = 400
    rounds = _grid_rounds(configs, COORD, n, SEED)
    for c, row in zip(configs, rounds):
        assert np.array_equal(row, simulate_rounds(c, COORD, n, SEED))
    (a0, a1), (b0, b1) = rounds.transpose(0, 2, 1)
    rejoined = (a0 == 2) & (b0 == 1) & np.isin(a1, (0, 3)) & np.isin(b1, (0, 3))
    assert rejoined.any()
    # user 1, at one rate under both vectors, ends differently in some of them
    assert (rejoined & (a1 != b1)).any()


def test_distinct_flags_or_sorts_alike():
    # a table of flags up to four times the index, a sort past it
    rng = np.random.default_rng(SEED)
    index = rng.integers(0, 3000, 1000)
    want, inverse = np.unique(index, return_inverse=True)
    for size in (3000, 4000, 4001, 1 << 40):
        values, position = montecarlo._distinct(index, size)
        assert np.array_equal(values, want) and np.array_equal(position, inverse)
    values, position = montecarlo._distinct(index.astype(np.uint16), 4000)
    assert np.array_equal(values, want) and np.array_equal(position, inverse)


def test_grid_tables_rejects_bad_input():
    for cfg, policy in ((make_config(), COORD), (K3_SPLIT, SPLIT)):
        vector = cfg.rates
        with pytest.raises(ValueError):
            grid_tables(cfg, policy, [], 100, SEED)
        for bad in (vector[:-1], vector + (1.0,), (-0.5,) + vector[1:], (math.nan,) + vector[1:],
                    vector[:-1] + (math.inf,)):
            with pytest.raises(ConfigurationError):
                grid_tables(cfg, policy, [vector, bad, vector], 100, SEED)
    with pytest.raises(ValueError):
        grid_tables(K3_SPLIT, SPLIT, [K3_SPLIT.rates], 0, SEED)


@pytest.mark.parametrize("policy,cfg", [
    (COORD, make_config(scheme=Scheme.RTD, power=2.0)),
    (SPLIT, K3_SPLIT),
    (COORD, mimo_config(2, 2, Scheme.RTD, rates=(3.0, 3.0))),
    (NONCOORD, mimo_config(2, 2, Scheme.INR, rates=(3.0, 3.0))),
    (COORD, mimo_config(3, 2, Scheme.RTD, rates=(2.5, 3.0), max_rounds=3)),
    (ROBIN, K4_ROBIN),
    *[(p.values[0], make_config(**p.values[1])) for p in MOVES],
    *deep_cases(),
], ids=["k2-rtd-coord", "k3-inr-split", "mimo2x2-rtd-coord", "mimo2x2-inr-noncoord",
        "mimo3x2-rtd-coord", "k4-rtd-robin", *(p.id for p in MOVES), *(p.id for p in DEEP_SNR)])
def test_chunk_size_and_worker_count_are_invisible(policy, cfg, monkeypatch):
    n = 5000
    monkeypatch.setattr(montecarlo, "CHUNK", n)
    whole = simulate_batch(cfg, policy, n, SEED)
    for chunk in (1, 7):
        monkeypatch.setattr(montecarlo, "CHUNK", chunk)
        assert_same_stats(whole, simulate_batch(cfg, policy, n, SEED))
    monkeypatch.setattr(montecarlo, "CHUNK", 700)
    serial = simulate_batch(cfg, policy, n, SEED)
    assert_same_stats(serial, simulate_batch(cfg, policy, n, SEED, n_jobs=2))
    assert_same_stats(whole, serial)
    # a pooled call on a fresh seed leaves this thread's memo as it was
    kept = memo_state(montecarlo._DRAWS)
    assert kept[0] == SEED and kept[1]
    simulate_batch(cfg, policy, n, SEED + 1, n_jobs=2)
    assert memo_state(montecarlo._DRAWS) == kept
    if policy is SPLIT or cfg.profile.tx_antennas == 2:
        # with no room to keep a block, each of the 8 chunks draws into its
        # thread's scratch: a scratch two threads shared would mix their
        # draws (the K=3 split's coins, 2x2 MIMO's Grams), and a memo they
        # shared would hold no block to serve them once cleared
        montecarlo._DRAWS.clear()
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo._DrawMemo, "CAP_BYTES", 0)
            for n_jobs in (2, 3):
                assert_same_stats(serial, simulate_batch(cfg, policy, n, SEED, n_jobs=n_jobs))
    # a rate grid splits its chunks by the grid size: still invisible.
    # grid_tables takes the closed form where there is one, so there the
    # grid's count tables come from its chunk plan directly
    n = 1000
    grid = [cfg.rates, *rate_grid(cfg.n_users)[1:]]

    def grid_counts(n_jobs):
        if montecarlo._coordinated(cfg, policy) is None:
            return grid_tables(cfg, policy, grid, n, SEED, n_jobs=n_jobs)[0]
        configs = [replace(cfg, rates=rates) for rates in grid]
        return np.array(montecarlo._batch_stats(configs, policy, [n] * len(grid), SEED, n_jobs))

    monkeypatch.setattr(montecarlo, "CHUNK", n)
    tables = grid_counts(1)
    assert_same_stats(tables[0], simulate_batch(cfg, policy, n, SEED))
    for chunk, n_jobs in ((1, 1), (7, 1), (140, 2)):
        monkeypatch.setattr(montecarlo, "CHUNK", chunk)
        assert_same_stats(tables, grid_counts(n_jobs))


def test_worker_pool_is_capped_at_the_chunk_count(monkeypatch):
    """_batch_stats asks its thread pool for no more workers than it has
    chunks, and the pool starts no more threads than it is asked for, so
    n_jobs=5000 starts at most 4 here. A recording pool notes the count
    and which threads ran chunks; _batch_stats imports the pool where it
    starts one, so the recording pool replaces it there."""
    opened, ran = [], set()

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    def chunk_stats(*args, _real=montecarlo._chunk_stats):
        ran.add(threading.get_ident())
        return _real(*args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "CHUNK", 300)
    cfg = make_config()
    serial = simulate_batch(cfg, COORD, 1000, SEED)
    for n_jobs in (5000, 4, 2):
        assert_same_stats(serial, simulate_batch(cfg, COORD, 1000, SEED, n_jobs=n_jobs))
    monkeypatch.setattr(montecarlo, "CHUNK", 500)
    monkeypatch.setattr(montecarlo, "_chunk_stats", chunk_stats)
    sweep(cfg, COORD, [0.0, 10.0], 1000, SEED, n_jobs=5000)
    assert opened == [4, 4, 2, 4]
    # the chunks ran on at most 4 worker threads, none on this one
    assert 0 < len(ran) <= 4 and threading.get_ident() not in ran


@pytest.mark.parametrize("kwargs", [
    dict(n_trials=0), dict(n_jobs=0),
    # 2^17 table cells, past MAX_TABLE_CELLS
    dict(config=make_config(rates=(1.0,) * 17, lambdas=(1.0,) * 17, max_rounds=1),
         policy=ROBIN),
    # no joblib-style "-1 means every core": a worker count is at least 1
    dict(n_jobs=-1),
    # 3^11 cells: the engine refuses the shapes the count tables refuse
    dict(entry=simulate_rounds, policy=ROBIN,
         config=make_config(rates=(1.0,) * 11, lambdas=(1.0,) * 11))])
def test_simulate_batch_rejects_bad_counts(kwargs):
    args = dict(entry=simulate_batch, config=make_config(), policy=COORD, n_trials=100) | kwargs
    entry = args.pop("entry")
    with pytest.raises(ValueError):
        entry(master_seed=SEED, **args)


def test_stats_match_per_packet_reference(monkeypatch):
    """The count table is the histogram of the scalar oracle's decode rounds;
    its slots held and the throughput CI from its moments match the
    oracle's per-packet slots and delivered nats."""
    monkeypatch.setattr(montecarlo, "CHUNK", 700)
    k3 = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 2.0, 0.5)), rates=(1.0, 0.7, 1.3),
                        power=1.5, scheme=Scheme.INR, max_rounds=2)
    k4 = make_config(rates=(1.0, 0.6, 1.2, 0.9), lambdas=(1.0, 2.0, 0.5, 1.0), power=2.0,
                     max_rounds=3)
    n = 2000
    for cfg, policy in ((make_config(rates=(0.8, 1.4), scheme=Scheme.INR, max_rounds=3), COORD),
                        (k3, SPLIT), (k4, ROBIN)):
        counts = simulate_batch(cfg, policy, n, SEED)
        hist = np.zeros((cfg.max_rounds + 1,) * cfg.n_users, dtype=np.int64)
        slots, nats = [], []
        for trial in range(n):
            out = run_packet(cfg, policy, Substream(SEED, trial=trial))
            hist[out.decode_round] += 1
            slots.append(out.slots_consumed)
            nats.append(sum(rate for rate, r in zip(cfg.rates, out.decode_round) if r > 0))
        assert counts.shape == hist.shape
        assert np.array_equal(counts, hist), policy.kind
        slots, nats = np.array(slots), np.array(nats)
        assert packets_per_slot(counts, n) == n / slots.sum()
        # renewal-reward half-width from the per-packet nats and slots
        eta = nats.sum() / slots.sum()
        half = 1.96 * math.sqrt(((nats - eta * slots) ** 2).mean() / n) / slots.mean()
        est = estimates_from_stats(counts, cfg)["throughput"]
        assert est.point == pytest.approx(eta, rel=1e-12)
        assert est.half_width_95 == pytest.approx(half, rel=1e-9)


def test_coordination_share_is_a_table_query():
    """Coordination fires when exactly one user decodes in round 1: the
    cells [1, 0], [1, 2], [0, 1] and [2, 1] of the K = 2, M = 2 table."""
    cfg = make_config(rates=(1.0, 0.8), lambdas=(1.0, 2.0), power=3.0)
    n = 200_000
    counts = simulate_batch(cfg, COORD, n, SEED)
    share = (counts[1, 0] + counts[1, 2] + counts[0, 1] + counts[2, 1]) / n
    # first-round failure probabilities 1 - exp(-l C), C = (e^R - 1) / P
    alpha, beta = (-math.expm1(-lam * math.expm1(rate) / cfg.power)
                   for lam, rate in zip(cfg.profile.lambdas, cfg.rates))
    expected = alpha * (1 - beta) + beta * (1 - alpha)
    assert abs(share - expected) <= 3 * math.sqrt(expected * (1 - expected) / n)


def test_start_trial_offsets_partition_the_stream():
    cfg = make_config()
    full = simulate_rounds(cfg, COORD, 600, SEED)
    head = simulate_rounds(cfg, COORD, 200, SEED, start_trial=0)
    tail = simulate_rounds(cfg, COORD, 400, SEED, start_trial=200)
    assert np.array_equal(full, np.vstack([head, tail]))


# ---------------------------------------------------------------------------
# estimates against closed forms


@pytest.mark.parametrize("scheme", [Scheme.RTD, Scheme.INR])
def test_estimate_matches_analytic_within_3ci(scheme):
    cfg = make_config(rates=(1.0, 0.8), lambdas=(1.0, 2.0), power=3.0,
                      scheme=scheme)
    n = 200_000
    est = estimate(cfg, COORD, n, SEED)
    ana = analytic_counterparts(cfg, COORD)
    for key, target in ana.items():
        e = est[key]
        slack = max(3 * e.half_width_95 / 1.96, 5e-4 if key == "gamma" else 0.0)
        assert abs(e.point - target) <= slack, (key, e.point, target)


def test_estimate_noncoordinated_matches_analytic():
    cfg = make_config(rates=(1.0, 1.0), power=2.0, scheme=Scheme.RTD)
    est = estimate(cfg, NONCOORD, 200_000, SEED)
    ana = analytic_counterparts(cfg, NONCOORD)
    for key in ("outage_packet_user0", "outage_packet_user1", "throughput", "gamma"):
        e = est[key]
        slack = max(3 * e.half_width_95 / 1.96, 5e-4)
        assert abs(e.point - ana[key]) <= slack


def test_event_frequencies_sum_to_one_exactly():
    cfg = make_config(max_rounds=3, scheme=Scheme.INR)
    est = estimate(cfg, COORD, 50_000, SEED)
    total = sum(v.point for k, v in est.items() if k.startswith("event_"))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("policy", [COORD, NONCOORD, ROBIN])
def test_estimate_and_counterparts_name_the_same_events(policy):
    cfg = make_config(max_rounds=3)
    est = {k for k in estimate(cfg, policy, 1000, SEED) if k.startswith("event_")}
    ana = {k for k in analytic_counterparts(cfg, policy) if k.startswith("event_")}
    assert len(est) == 16 and "event_AoutB3" in est
    assert est == ana


def test_outage_is_gamma_weighted_packet_outage():
    cfg = make_config(power=2.0)
    est = estimate(cfg, COORD, 50_000, SEED)
    for u in range(2):
        assert est[f"outage_user{u}"].point == pytest.approx(
            est["gamma"].point * est[f"outage_packet_user{u}"].point, rel=1e-12)


def test_ci_shrinks_like_sqrt_n():
    cfg = make_config(power=1.0)
    small = estimate(cfg, COORD, 20_000, SEED)["outage_packet_user1"]
    large = estimate(cfg, COORD, 80_000, SEED)["outage_packet_user1"]
    ratio = small.half_width_95 / large.half_width_95
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_estimate_is_deterministic(monkeypatch):
    cfg = make_config(scheme=Scheme.INR)
    a = estimate(cfg, COORD, 10_000, SEED)
    monkeypatch.setattr(montecarlo, "CHUNK", 1234)
    b = estimate(cfg, COORD, 10_000, SEED)
    for k in a:
        assert a[k].point == b[k].point or (math.isnan(a[k].point) and math.isnan(b[k].point))


def test_analytic_counterparts_unavailable_cases():
    profile = FadingProfile(lambdas=(1.0, 1.0, 1.0))
    cfg3 = ProtocolConfig(profile=profile, rates=(1.0, 1.0, 1.0), power=1.0,
                          scheme=Scheme.RTD, max_rounds=2)
    assert analytic_counterparts(cfg3, SPLIT) == {}
    mimo = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 1.0), tx_antennas=2,
                                                rx_antennas=2),
                          rates=(1.0, 1.0), power=1.0, scheme=Scheme.RTD, max_rounds=2)
    assert analytic_counterparts(mimo, COORD) == {}


# ---------------------------------------------------------------------------
# dominance


def test_dominance_paired_seeds():
    """On shared draws no user decodes later with coordination than
    without, outage counting as round M+1: K=2, the K=3 split, K=4
    round-robin and 2x2 MIMO."""
    for cfg, policy, n in ((make_config(rates=(1.0, 1.0), power=2.0), COORD, 100_000),
                           (replace(K3_SPLIT, max_rounds=3), SPLIT, 50_000),
                           (K4_ROBIN, ROBIN, 50_000),
                           (replace(K4_ROBIN, scheme=Scheme.INR, power=4.0), ROBIN, 50_000),
                           (mimo_config(2, 2, Scheme.RTD, rates=(3.0, 3.0), max_rounds=3),
                            COORD, 20_000),
                           (mimo_config(2, 2, Scheme.INR, rates=(3.0, 3.0), max_rounds=3),
                            COORD, 20_000)):
        alone, coordinated = (simulate_rounds(cfg, p, n, SEED) for p in (NONCOORD, policy))
        assert later(alone, coordinated, cfg.max_rounds) == 0, (cfg, policy)


# ---------------------------------------------------------------------------
# sweeps, slope fits, energy gain


def synthetic_sweep(snr_db, outage, trials=10**9):
    pts = []
    for p in outage:
        pts.append({"outage_user0": EstimateWithCI(p, trials, 0.0, "outage_user0"),
                    "outage_packet_user0": EstimateWithCI(p, trials, 0.0,
                                                          "outage_packet_user0")})
    return SweepResult(snr_db=list(snr_db), estimates=pts, analytic=[{}] * len(pts),
                       n_trials=[trials] * len(pts), master_seed=SEED)


def test_fit_slope_exact_power_law():
    snr_db = np.arange(0, 32, 2)
    p_lin = 10 ** (snr_db / 10)
    sw = synthetic_sweep(snr_db, 0.5 * p_lin ** -2.0)
    assert fit_diversity_slope(sw, 0) == pytest.approx(-2.0, abs=1e-9)


def test_fit_slope_uses_deep_outage_window():
    # curve bends from slope -1 to slope -3 at high SNR: the window must
    # pick up the deep (high-SNR) part only
    snr_db = np.arange(0, 42, 2)
    p_lin = 10 ** (snr_db / 10)
    outage = 1.0 / (p_lin + 1e-4 * p_lin ** 3) * (1 + p_lin / 1e4) ** 0  # slope -1 then -3
    outage = 1.0 / (p_lin / 0.01 + (p_lin / 10) ** 3)
    sw = synthetic_sweep(snr_db, outage)
    slope = fit_diversity_slope(sw, 0)
    assert slope < -2.5


def test_fit_slope_reliability_floor():
    snr_db = np.arange(0, 32, 2)
    p_lin = 10 ** (snr_db / 10)
    outage = 0.5 * p_lin ** -2.0
    # with too few trials the deep points fall under the 10-outage floor
    sw = synthetic_sweep(snr_db, outage, trials=100)
    with pytest.raises(FitWindowError):
        fit_diversity_slope(sw, 0)


def test_snr_at_outage_interpolation():
    snr_db = np.arange(0, 32, 2)
    p_lin = 10 ** (snr_db / 10)
    sw = synthetic_sweep(snr_db, p_lin ** -1.0)
    # outage = 1e-2 exactly at 20 dB
    assert snr_at_outage(sw, 0, 1e-2) == pytest.approx(20.0, abs=1e-9)
    with pytest.raises(RangeError):
        snr_at_outage(sw, 0, 1e-9)


def test_energy_gain_properties():
    snr_db = np.arange(0, 32, 2)
    p_lin = 10 ** (snr_db / 10)
    base = synthetic_sweep(snr_db, p_lin ** -1.0)
    same = synthetic_sweep(snr_db, p_lin ** -1.0)
    shifted = synthetic_sweep(snr_db, (p_lin / 2.0) ** -1.0)  # needs +3.01 dB
    assert energy_gain_at_outage(base, same, 1e-2) == pytest.approx(0.0, abs=1e-9)
    assert energy_gain_at_outage(shifted, base, 1e-2) == pytest.approx(
        10 * math.log10(2), abs=1e-9)


def test_sweep_real_run_and_axis_validation():
    cfg = make_config(scheme=Scheme.INR)
    sw = sweep(cfg, COORD, [0.0, 5.0, 10.0], 20_000, SEED)
    curve = sw.outage_curve(1)
    assert curve[0] > curve[1] > curve[2] > 0
    for pt, ana in zip(sw.estimates, sw.analytic):
        assert abs(pt["outage_user1"].point - ana["outage_user1"]) <= \
            3 * pt["outage_user1"].half_width_95 / 1.96 + 1e-4
    with pytest.raises(ValueError):
        sweep(cfg, COORD, [0.0, 0.0, 5.0], 100, SEED)
    with pytest.raises(ValueError, match="SNR axis is empty"):
        sweep(cfg, COORD, [], 100, SEED)
    with pytest.raises(ValueError):
        montecarlo._batch_stats([], COORD, [], SEED, 1)
    with pytest.raises(ValueError):
        sweep(cfg, COORD, [0.0, 5.0], [100], SEED)


@pytest.mark.parametrize("policy,cfg", GRID_CASES)
def test_sweep_equals_per_point_estimates(policy, cfg, monkeypatch):
    """Every point of a sweep equals a separate estimate at its power with
    its own trial count, at any chunk size and worker count."""
    snr_db = [0.0, 5.0, 11.0, 20.0]
    n = 600 if cfg.profile.is_siso else 120
    for trials, chunk, n_jobs in (([n, 1, n // 3, n - 5], montecarlo.CHUNK, 1),
                                  ([n, 1, n // 3, n - 5], 7, 1),
                                  ([n, 1, n // 3, n - 5], montecarlo.CHUNK, 2),
                                  ([40, 1, 13, 35], 1, 1)):
        monkeypatch.setattr(montecarlo, "CHUNK", chunk)
        res = sweep(cfg, policy, snr_db, trials, SEED, n_jobs=n_jobs)
        assert res.snr_db == snr_db and res.n_trials == trials
        for i, (snr, t) in enumerate(zip(snr_db, trials)):
            point = replace(cfg, power=db_to_linear(snr))
            assert_same_estimates(res.estimates[i], estimate(point, policy, t, SEED))
            assert res.analytic[i] == analytic_counterparts(point, policy)
    assert bool(res.analytic[0]) == (montecarlo._coordinated(cfg, policy) is not None)


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(3.0) == pytest.approx(10 ** 0.3)


# ---------------------------------------------------------------------------
# the memo of draw blocks


@pytest.fixture
def memo():
    """The engine's memo of draw blocks, cleared before and after the test."""
    montecarlo._DRAWS.clear()
    yield montecarlo._DRAWS
    montecarlo._DRAWS.clear()


def kept_blocks(memo):
    """(what, slot, first trial, block) of each block the memo keeps for its
    seed: the trials drawn so far into the buffer it owns."""
    return [(what, slot, start, buf[..., :n])
            for (what, slot, start), (buf, n) in memo.blocks.items()]


def kept_outcomes(memo):
    """The offsets and won flags of each slot-0 outcome the memo keeps."""
    return [a for t, won, _ in memo.outcomes.values() for a in (t, won)]


def memo_buffers(memo):
    """Every buffer the memo owns: kept blocks', spare ones and kept
    outcomes'."""
    return [buf for buf, _ in memo.blocks.values()] + list(memo.spare.values()) + \
        kept_outcomes(memo)


def count_draws(monkeypatch):
    """Record (function, slot, first trial, trials) for each of the engine's
    calls of gain_block, matrix_block and uniform_block (the K=3 coin)."""
    calls = []
    for name in ("gain_block", "matrix_block", "uniform_block"):
        def counted(*args, _real=getattr(montecarlo, name), _name=name, **kwargs):
            # uniform_block(seed, slot, band, first, count), the others
            # (profile, band, slot, seed, first, count)
            at = (1, 3, 4) if _name == "uniform_block" else (2, 4, 5)
            calls.append((_name, *(args[i] for i in at)))
            return _real(*args, **kwargs)
        monkeypatch.setattr(montecarlo, name, counted)
    return calls


def slot0_draws(calls):
    return [name for name, slot, *_ in calls if slot == 0]


def assert_memo_accounts_its_blocks(memo):
    """Kept and spare buffers own their memory and kept outcomes hold no
    memory past their own bytes; they hold every trial drawn or decided
    into them, and count, all together, as `nbytes`, within the cap;
    outcomes are read-only."""
    buffers = memo_buffers(memo)
    assert all(buf.flags.owndata for buf in buffers[:len(buffers) - len(kept_outcomes(memo))])
    assert all(a.base is None or a.base.nbytes == a.nbytes for a in kept_outcomes(memo))
    assert all(n <= buf.shape[-1] for buf, n in memo.blocks.values())
    for t, won, n in memo.outcomes.values():
        assert won.shape == (won.shape[0], len(t)) and not won.all(axis=0).any()
        assert np.all(np.diff(t) > 0) and (len(t) == 0 or 0 <= t[0] and t[-1] < n)
        assert not t.flags.writeable and not won.flags.writeable
    assert memo.nbytes == sum(buf.nbytes for buf in buffers)
    assert memo.nbytes <= memo.CAP_BYTES


def memo_state(memo):
    """The memo's seed, kept blocks and kept slot-0 outcomes, as bytes."""
    return (memo.seed, {key: (n, buf[..., :n].tobytes()) for key, (buf, n) in memo.blocks.items()},
            {key: (n, t.tobytes(), won.tobytes()) for key, (t, won, n) in memo.outcomes.items()})


def served(memo, what, slot, start, n):
    """The memo's read of a kept block whole: it draws nothing."""
    def draw(first, count, out):
        raise AssertionError(f"drew trials [{first}, {first + count})")
    return memo.read(what, slot, memo.seed, start, n, None, draw)


@pytest.mark.parametrize("policy,cfg", [
    *GRID_CASES,
    pytest.param(SPLIT, replace(K3_SPLIT, max_rounds=3), id="k3-inr-split-m3"),
    *deep_cases()])
def test_slot0_memo_is_invisible(policy, cfg, memo, monkeypatch):
    """A call on a warm memo equals the same call on a cleared one, bit for
    bit, whichever chunk plan filled the memo. Later slots' blocks and, at
    M = 3, the split's slot-1 coins are kept too."""
    n = 3000 if cfg.profile.is_siso else 1000
    # (trials per chunk, worker count)
    plans = ((7, 1), (1000, 1), (montecarlo.CHUNK, 1), (1000, 2))

    def batch(chunk, n_jobs):
        monkeypatch.setattr(montecarlo, "CHUNK", chunk)
        return simulate_batch(cfg, policy, n, SEED, n_jobs=n_jobs)

    cold = []
    for plan in plans:
        memo.clear()
        cold.append(batch(*plan))
    for fill in plans[:3]:     # worker threads fill their own memo
        memo.clear()
        batch(*fill)
        kept = {(what[0], slot) for what, slot, *_ in kept_blocks(memo)}
        assert {slot for _, slot in kept} >= {0, 1}
        if policy is SPLIT and cfg.max_rounds == 3 and cfg.power < 1e3:
            assert {("coin", 0), ("coin", 1)} <= kept
        for plan, expected in zip(plans, cold):
            assert_same_stats(expected, batch(*plan))
    # columns at two powers read one kept block
    configs = [replace(cfg, power=p) for p in (6.0, 1.5)] * 2
    configs[2:] = [replace(c, rates=tuple(0.5 * r for r in c.rates)) for c in configs[2:]]
    warm = _grid_rounds(configs, policy, 500, SEED, start_trial=100)
    memo.clear()
    assert np.array_equal(warm, _grid_rounds(configs, policy, 500, SEED, start_trial=100))


def test_draw_memo_serves_mixed_calls_on_one_seed_like_a_cleared_memo(memo, monkeypatch):
    """One sequence of calls on one seed meets every kind of read: misses
    that keep blocks, hits, extended blocks and ranges at another first
    trial. Each call equals the same call on a cleared memo."""
    deep = make_config(scheme=Scheme.RTD, lambdas=(1.0, 2.0), power=1e3, max_rounds=3)
    split = replace(K3_SPLIT, max_rounds=3)
    n = DEEP_TRIALS
    calls = [(deep, COORD, n, 0), (deep, NONCOORD, n, 0),
             (replace(deep, power=3.0), COORD, n, 0), (deep, COORD, n // 2, 0),
             (deep, COORD, n + 5000, 0), (replace(deep, power=3.0), NONCOORD, 4000, 777),
             (split, SPLIT, 30_000, 0), (split, SPLIT, 60_000, 0), (split, SPLIT, 20_000, 0),
             (replace(split, power=1e3), SPLIT, n, 0)]
    draws = count_draws(monkeypatch)
    warm, kinds = [], []
    for cfg, policy, count, start in calls:
        before = len(draws)
        warm.append(simulate_rounds(cfg, policy, count, SEED, start_trial=start))
        made = draws[before:]
        kinds.append(("hit" if not made else "") +
                     ("extend" if any(first > start for _, _, first, _ in made) else ""))
        assert_memo_accounts_its_blocks(memo)
    # the first deep call keeps slot >= 1 for its live rows, the shorter
    # range is served whole, the longer one extends its blocks
    assert {slot for _, slot, *_ in draws} == {0, 1, 2}
    assert kinds[0] == "" and kinds[3] == "hit" and "extend" in kinds[4]
    assert kinds[8] == "hit" and "extend" in kinds[7]
    for (cfg, policy, count, start), expected in zip(calls, warm):
        memo.clear()
        assert np.array_equal(simulate_rounds(cfg, policy, count, SEED, start_trial=start),
                              expected)


def count_decisions(monkeypatch):
    """Record (trials, configurations) of each slot-0 decision the engine
    makes (_first_copies for SISO, _first_log_dets for MIMO)."""
    decided = []
    for name in ("_first_copies", "_first_log_dets"):
        def counted(first, rates, powers, _real=getattr(montecarlo, name)):
            decided.append((first[0].shape[-1], len(powers)))
            return _real(first, rates, powers)
        monkeypatch.setattr(montecarlo, name, counted)
    return decided


def test_kept_slot0_outcome_is_invisible(memo, monkeypatch):
    """Calls on one seed that share a profile, rates and power read one
    kept slot-0 outcome, whatever their scheme and policy, SISO and MIMO
    alike: a shorter count takes its prefix, a longer one decides only the
    new trials, a power grid decides only the powers no call decided, and
    another first trial, rates, lambdas or antenna counts decide their own.
    Each count table equals the same call on a cleared memo."""
    n = 3000
    rtd = make_config(scheme=Scheme.RTD, lambdas=(1.0, 2.0), power=3.0, max_rounds=3)
    inr = replace(rtd, scheme=Scheme.INR)
    mimo_inr = mimo_config(2, 2, Scheme.INR, rates=(2.0, 2.4), lambdas=(1.0, 2.0), max_rounds=3)
    mimo_rtd = replace(mimo_inr, scheme=Scheme.RTD)
    grid = [0.75, 3.0, 12.0]
    # (configs, policy, first trial, trials) and the decisions each makes
    calls = [([rtd], NONCOORD, 0, n, [(n, 1)]), ([rtd], COORD, 0, n, []),
             ([inr], COORD, 0, n, []), ([inr], NONCOORD, 0, 3 * n, [(2 * n, 1)]),
             ([rtd], COORD, 0, n // 2, []),
             ([replace(inr, power=p) for p in grid], COORD, 0, n, [(n, 2)]),
             ([replace(rtd, power=p) for p in grid], NONCOORD, 0, 2 * n, [(n, 2)]),
             ([inr], COORD, 700, n, [(n, 1)]), ([rtd], NONCOORD, 700, n // 2, []),
             # twins in one call decide together and keep one outcome
             ([replace(rtd, power=24.0)] * 2, COORD, 0, n, [(n, 2)]),
             ([replace(inr, rates=(1.0, 1.5))], COORD, 0, n, [(n, 1)]),
             ([replace(rtd, profile=FadingProfile(lambdas=(1.0, 0.5)))], COORD, 0, n,
              [(n, 1)]),
             # 2x2 on the SISO lambdas: RTD after INR, coordinated after not
             ([mimo_inr], NONCOORD, 0, n, [(n, 1)]), ([mimo_rtd], NONCOORD, 0, n, []),
             ([mimo_rtd], COORD, 0, n // 2, []),
             ([replace(mimo_inr, power=p) for p in grid], COORD, 0, n, [(n, 2)]),
             # 3x2 on the same lambdas shares no outcome with 2x2
             ([mimo_config(3, 2, Scheme.RTD, rates=(2.0, 2.4), lambdas=(1.0, 2.0),
                           max_rounds=3)], COORD, 0, n, [(n, 1)])]
    decided = count_decisions(monkeypatch)
    warm = []
    for configs, policy, start, count, decisions in calls:
        before = len(decided)
        warm.append(montecarlo._chunk_stats(configs, policy, start, count, SEED))
        assert decided[before:] == decisions, (configs[0].scheme, policy, start, count)
        assert_memo_accounts_its_blocks(memo)
    assert len(memo.outcomes) == 1 + len(grid) - 1 + 4 + len(grid) + 1
    # a seed switch drops every outcome: the first call decides again
    before = len(decided)
    montecarlo._chunk_stats([rtd], NONCOORD, 0, n, SEED + 1)
    assert decided[before:] == [(n, 1)] and len(memo.outcomes) == 1
    assert_memo_accounts_its_blocks(memo)
    for (configs, policy, start, count, _), expected in zip(calls, warm):
        memo.clear()
        got = montecarlo._chunk_stats(configs, policy, start, count, SEED)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert_same_stats(a, b)


def test_mimo_inr_slot0_log_dets_are_taken_once(memo, monkeypatch):
    """A MIMO INR call that decides slot 0 fills its slot-0 accumulators
    with the log-dets that decided it: each user's at each power over all
    trials, and no other slot-0 log-det. A call that reads the kept
    outcome takes one log-det per band for the live rows in their place,
    and both take the same later ones. Rounds equal the oracle's, and
    those of calls that read the kept outcomes, with two powers and a
    shared one."""
    n = 400
    cfg = mimo_config(2, 2, Scheme.INR, rates=(2.0, 2.4), lambdas=(1.0, 2.0), max_rounds=3)
    configs = [replace(cfg, power=1.5), cfg, replace(cfg, rates=(1.0, 1.2))]
    sizes = []

    def counted(q, gram, _real=montecarlo.log_det_eye_plus):
        sizes.append(np.shape(gram)[-1])
        return _real(q, gram)
    monkeypatch.setattr(montecarlo, "log_det_eye_plus", counted)
    for policy in (NONCOORD, COORD):
        memo.clear()
        sizes.clear()
        rounds = assert_engine_matches_oracle(cfg, policy, n)
        decided, sizes[:] = sizes[:], []
        assert len(np.unique(rounds)) >= 3
        assert np.array_equal(simulate_rounds(cfg, policy, n, SEED), rounds)
        assert decided[:2] == [n, n] and max(sizes) < n
        assert len(decided) == len(sizes) and decided[2:] == sizes[2:]
        memo.clear()
        sizes.clear()
        fresh = _grid_rounds(configs, policy, n, SEED)
        assert sizes[:4] == [n] * 4
        assert np.array_equal(fresh[1], rounds)
        assert np.array_equal(_grid_rounds(configs, policy, n, SEED), fresh)


def test_kept_slot0_outcomes_are_read_only_counted_and_capped(memo, monkeypatch):
    """A kept outcome is served read-only, counts in `nbytes` and is never
    kept past the cap: with no room for it every call decides slot 0
    again, with the same rounds."""
    cfg = make_config(scheme=Scheme.INR, power=3.0, max_rounds=3)
    cold = simulate_rounds(cfg, COORD, 4000, SEED)
    (key, (t, won, n)), = memo.outcomes.items()
    assert key == ((cfg.profile, cfg.rates, cfg.power), 0) and n == 4000
    assert 0 < len(t) < 4000 and won.shape == (2, len(t))
    blocks = sum(buf.nbytes for buf, _ in memo.blocks.values())
    assert memo.nbytes == blocks + t.nbytes + won.nbytes
    for a, b in zip(memo.first_outcome([key[0]], SEED, 0, 4000, None)[0], (t, won)):
        assert np.shares_memory(a, b) and np.array_equal(a, b) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[..., 0] = 0
    prefix = memo.first_outcome([key[0]], SEED, 0, 1000, None)[0]
    assert all(not a.flags.writeable and np.shares_memory(a, b) for a, b in zip(prefix, (t, won)))
    assert np.array_equal(prefix[0], t[t < 1000])
    # room for the slot-0 blocks alone
    slot0 = 2 * 8 * 4000
    for cap in (0, slot0, slot0 + t.nbytes + won.nbytes - 1):
        memo.clear()
        monkeypatch.setattr(memo, "CAP_BYTES", cap)
        decided = count_decisions(monkeypatch)
        for _ in range(2):
            assert np.array_equal(simulate_rounds(cfg, COORD, 4000, SEED), cold)
            assert not memo.outcomes
            assert_memo_accounts_its_blocks(memo)
        assert decided == [(4000, 1)] * 2
        monkeypatch.undo()


def test_draw_memo_extends_a_shorter_block_bit_for_bit(memo, monkeypatch):
    """A longer range from a kept block's first trial draws only the trials
    past it, and the joined block equals a cold draw of the longer range."""
    for policy, cfg, n in ((SPLIT, replace(K3_SPLIT, max_rounds=3), 2000),
                           (COORD, mimo_config(2, 2, Scheme.INR, rates=(3.0, 3.0),
                                               max_rounds=3), 500)):
        memo.clear()
        simulate_rounds(cfg, policy, n, SEED, start_trial=40)
        short = {(what, slot) for what, slot, *_ in kept_blocks(memo)}
        draws = count_draws(monkeypatch)
        simulate_rounds(cfg, policy, n + 333, SEED, start_trial=40)
        monkeypatch.undo()
        assert {(first, count) for *_, first, count in draws} >= {(40 + n, 333)}
        assert not any(first == 40 and count == n + 333 for *_, first, count in draws)
        for what, slot, start, block in kept_blocks(memo):
            assert start == 40 and block.shape[-1] == n + 333
            assert (what, slot) in short
            if what[0] == "coin":
                cold = uniform_block(SEED, slot, POLICY_BAND, 40, n + 333)[:, 0] < 0.5
            elif what[0] == "gain":
                cold = gain_block(cfg.profile, what[1], slot, SEED, 40, n + 333)
            else:
                cold = matrix_block(cfg.profile, what[1], slot, SEED, 40, n + 333)
            assert cold.dtype == block.dtype and np.array_equal(cold, block)
        assert_memo_accounts_its_blocks(memo)


def test_draw_memo_reads(memo, monkeypatch):
    """A read of some rows on a cold memo draws the whole range and keeps
    it, a hit draws nothing, and a read with no room keeps nothing and
    returns exactly the rows a kept block serves."""
    made = []

    def draw(first, count, out):
        made.append((first, count))
        uniform_block(SEED, 1, 0, first, count, out=out)

    n = DEEP_TRIALS
    cold = uniform_block(SEED, 1, 0, 9, n)[:, 0]
    rows = np.arange(0, n, 500)
    read = montecarlo._DRAWS.read
    assert np.array_equal(read(("x",), 1, SEED, 9, n, rows, draw), cold[rows])
    assert made == [(9, n)] and list(memo.blocks) == [(("x",), 1, 9)]
    # unsorted and repeated
    many = np.random.default_rng(SEED).choice(n, size=n // 10)
    for r in (rows, many, None):
        got = read(("x",), 1, SEED, 9, n, r, draw)
        assert np.array_equal(got, cold if r is None else cold[r])
    got = read(("x",), 1, SEED, 9, 1000, None, draw)
    assert np.array_equal(got, cold[:1000]) and not got.flags.writeable
    assert len(made) == 1
    assert_memo_accounts_its_blocks(memo)
    # with no room, a read draws the range, keeps nothing and returns the
    # rows that the same block, once kept, serves
    monkeypatch.setattr(memo, "CAP_BYTES", 0)
    tight = read(("x",), 1, SEED, 10, n, many, draw)
    assert made[1:] == [(10, n)] and list(memo.blocks) == [(("x",), 1, 9)]
    monkeypatch.undo()
    served = read(("x",), 1, SEED, 10, n, many, draw)
    assert (("x",), 1, 10) in memo.blocks and len(made) == 3
    assert tight.dtype == served.dtype and np.array_equal(tight, served)
    assert np.array_equal(served, uniform_block(SEED, 1, 0, 10, n)[many, 0])


def test_slot0_memo_keys_fading_parameters_and_antennas(memo):
    """The same seed with another lambda on one band, or other antenna
    counts, draws its own blocks."""
    for first, second in (
            (make_config(lambdas=(1.0, 2.0), scheme=Scheme.INR),
             make_config(lambdas=(1.0, 0.5), scheme=Scheme.INR)),
            (mimo_config(2, 2, Scheme.RTD, rates=(3.0, 3.0)),
             mimo_config(3, 2, Scheme.RTD, rates=(3.0, 3.0))),
            (mimo_config(2, 2, Scheme.RTD, rates=(3.0, 3.0)),
             mimo_config(2, 3, Scheme.RTD, rates=(3.0, 3.0)))):
        memo.clear()
        cold = simulate_rounds(second, COORD, 800, SEED)
        memo.clear()
        simulate_rounds(first, COORD, 800, SEED)
        assert np.array_equal(simulate_rounds(second, COORD, 800, SEED), cold)
        # one block per band, slot and setup; a band whose lambda and
        # antennas agree shares its blocks
        keys = {(b, lam, c.profile.tx_antennas, c.profile.rx_antennas)
                for c in (first, second) for b, lam in enumerate(c.profile.lambdas)}
        kept = kept_blocks(memo)
        assert len([slot for _, slot, *_ in kept if slot == 0]) == len(keys)
        assert len({what for what, *_ in kept}) == len(keys)


def test_slot0_memo_serves_ranges_from_a_kept_blocks_first_trial(memo, monkeypatch):
    for policy, cfg, n in ((COORD, make_config(scheme=Scheme.RTD, max_rounds=3), 2000),
                           (SPLIT, K3_SPLIT, 2000),
                           (COORD, mimo_config(2, 2, Scheme.INR, rates=(3.0, 3.0)), 500)):
        memo.clear()
        cold_head = simulate_rounds(cfg, policy, 300, SEED)
        cold_inside = simulate_rounds(cfg, policy, 300, SEED, start_trial=150)
        memo.clear()
        simulate_rounds(cfg, policy, n, SEED)
        n_kept = len([slot for _, slot, *_ in kept_blocks(memo) if slot == 0])
        # a shorter range from the blocks' first trial draws nothing, in any slot
        calls = count_draws(monkeypatch)
        assert np.array_equal(simulate_rounds(cfg, policy, 300, SEED), cold_head)
        assert calls == []
        # a range that starts inside the blocks draws its own
        assert np.array_equal(simulate_rounds(cfg, policy, 300, SEED, start_trial=150),
                              cold_inside)
        assert len(slot0_draws(calls)) == n_kept
        assert all(first == 150 and count == 300 for *_, first, count in calls)
        monkeypatch.undo()
        # a longer range from the same first trial extends the blocks it outgrew
        simulate_rounds(cfg, policy, n + 1, SEED)
        assert {block.shape[-1] for _, _, start, block in kept_blocks(memo)
                if start == 0} == {n + 1}
        assert_memo_accounts_its_blocks(memo)


def test_slot0_memo_drops_blocks_on_a_seed_switch(memo, monkeypatch):
    """A call on another seed drops every block's values and draws the new
    seed's blocks into the old blocks' buffers: each kept block equals a
    cold draw of the new seed."""
    cfg = make_config(scheme=Scheme.INR)
    simulate_rounds(cfg, COORD, 1000, SEED)
    old = {key: buf for key, (buf, _) in memo.blocks.items()}
    other = simulate_rounds(cfg, COORD, 1000, SEED + 1)
    assert memo.seed == SEED + 1
    kept = kept_blocks(memo)
    # two bands at slots 0 and 1
    assert sorted((what[1], slot) for what, slot, *_ in kept) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(memo.blocks[key][0] is buf for key, buf in old.items()) and not memo.spare
    for what, slot, start, block in kept:
        assert np.array_equal(block, gain_block(cfg.profile, what[1], slot, SEED + 1, start,
                                                block.shape[-1]))
    assert_memo_accounts_its_blocks(memo)
    calls = count_draws(monkeypatch)
    assert np.array_equal(simulate_rounds(cfg, COORD, 1000, SEED + 1), other)
    assert calls == []
    simulate_rounds(cfg, COORD, 1000, SEED)
    assert sorted((name, slot) for name, slot, *_ in calls) == \
        [("gain_block", 0)] * 2 + [("gain_block", 1)] * 2


def test_slot0_memo_blocks_are_read_only(memo):
    """Every kind of block is served as a read-only view."""
    simulate_rounds(K3_SPLIT, SPLIT, 1000, SEED)
    simulate_rounds(mimo_config(2, 2, Scheme.RTD, rates=(3.0, 3.0)), COORD, 100, SEED)
    kept = kept_blocks(memo)
    assert {what[0] for what, *_ in kept} == {"gain", "gram", "coin"}
    for what, slot, start, block in kept:
        view = served(memo, what, slot, start, block.shape[-1])
        assert not view.flags.writeable and np.array_equal(view, block)
        with pytest.raises(ValueError):
            view[..., 0] = 0
    assert_memo_accounts_its_blocks(memo)


def test_kept_gain_blocks_are_read_only_and_counted_by_nbytes(memo):
    """gain_block draws its gains straight into a buffer the memo owns,
    which counts the 8 bytes of each of its trials; the memo serves it as a
    read-only view."""
    simulate_rounds(make_config(scheme=Scheme.INR, max_rounds=3), COORD, 1000, SEED)
    kept = kept_blocks(memo)
    assert {what[0] for what, *_ in kept} == {"gain"} and len(kept) >= 4
    for what, slot, start, block in kept:
        assert block.shape == (1000,) and memo.blocks[what, slot, start][0].flags.owndata
        view = served(memo, what, slot, start, 1000)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0
    assert memo.nbytes == 8000 * len(kept) + sum(a.nbytes for a in kept_outcomes(memo))
    assert_memo_accounts_its_blocks(memo)


def test_slot0_memo_does_not_keep_a_block_over_the_cap(memo, monkeypatch):
    cfg = make_config(scheme=Scheme.RTD, max_rounds=3)
    cold = simulate_rounds(cfg, COORD, 5000, SEED)
    memo.clear()
    # room for the first band's 5000 slot-0 gains only
    monkeypatch.setattr(memo, "CAP_BYTES", 50_000)
    calls = count_draws(monkeypatch)
    assert np.array_equal(simulate_rounds(cfg, COORD, 5000, SEED), cold)
    assert slot0_draws(calls) == ["gain_block"] * 2
    assert [(what, slot, start) for what, slot, start, _ in kept_blocks(memo)] == \
        [(("gain", 0, 1.0), 0, 0)]
    assert_memo_accounts_its_blocks(memo)
    assert np.array_equal(simulate_rounds(cfg, COORD, 5000, SEED), cold)
    assert slot0_draws(calls) == ["gain_block"] * 3
    # a longer range cannot grow the kept block past the cap either
    simulate_rounds(cfg, COORD, 6500, SEED)
    assert [block.shape[-1] for *_, block in kept_blocks(memo)] == [5000]
    assert_memo_accounts_its_blocks(memo)


def ramp(first, count, out):
    """A stand-in draw: trial t's value is t."""
    out[...] = np.arange(first, first + count)


def test_a_failed_draw_leaves_the_memo_accounting_for_its_blocks(memo):
    """A draw that raises counts no buffer the memo does not hold, whether
    it was to land in a grown buffer, a recycled spare or a new buffer, and
    leaves the kept trials as they were."""
    def fail(first, count, out):
        raise MemoryError
    for name in ("x", "y"):
        memo.read((name,), 0, SEED, 0, 1000, None, ramp)
    for seed, what, n in ((SEED, "x", 2000), (SEED + 1, "x", 1000), (SEED + 1, "z", 500)):
        with pytest.raises(MemoryError):
            memo.read((what,), 0, seed, 0, n, None, fail)
        assert_memo_accounts_its_blocks(memo)
        if seed == SEED:
            assert np.array_equal(served(memo, ("x",), 0, 0, 1000), np.arange(1000))
    # only y's buffer is left, a spare
    assert not memo.blocks and list(memo.spare) == [(("y",), 0, 0)] and memo.nbytes == 8000
    assert np.array_equal(memo.read(("x",), 0, SEED + 1, 0, 1000, None, ramp), np.arange(1000))
    assert_memo_accounts_its_blocks(memo)


def test_spare_buffers_are_released_only_to_make_room(memo, monkeypatch):
    """A block that would not fit even with every spare buffer released
    leaves the spares in place; one that fits once some are released
    releases those, oldest first."""
    monkeypatch.setattr(memo, "CAP_BYTES", 20_000)
    for name in ("x", "y"):
        memo.read((name,), 0, SEED, 0, 1000, None, ramp)
    spares = {key: buf for key, (buf, _) in memo.blocks.items()}
    # 24 kB is past the cap on its own
    assert np.array_equal(memo.read(("z",), 0, SEED + 1, 0, 3000, None, ramp), np.arange(3000))
    assert not memo.blocks and memo.spare == spares and memo.nbytes == 16_000
    # x takes its own spare back; z's 12 kB fits once y's spare is released
    memo.read(("x",), 0, SEED + 1, 0, 1000, None, ramp)
    assert memo.blocks[("x",), 0, 0][0] is spares[("x",), 0, 0]
    memo.read(("z",), 0, SEED + 1, 0, 1500, None, ramp)
    assert list(memo.blocks) == [(("x",), 0, 0), (("z",), 0, 0)] and not memo.spare
    assert memo.nbytes == 20_000
    assert_memo_accounts_its_blocks(memo)


def test_blocks_past_the_cap_reuse_scratch_across_a_plans_chunks(memo, monkeypatch):
    """With no room, every chunk of a count-table plan draws a band's
    slot-0 block into one scratch buffer, and the plan releases its scratch
    when it ends; the table equals a cold memo's."""
    cfg = make_config(scheme=Scheme.RTD, max_rounds=3)
    monkeypatch.setattr(montecarlo, "CHUNK", 1000)
    cold = simulate_batch(cfg, COORD, 4000, SEED)
    memo.clear()
    monkeypatch.setattr(memo, "CAP_BYTES", 0)
    seen = {}

    def read(what, slot, master_seed, start, n, rows, draw, *args, _real=memo.read):
        out = _real(what, slot, master_seed, start, n, rows, draw, *args)
        if rows is None:
            # holding each scratch buffer keeps a new one from reusing its address
            seen.setdefault(what, []).append(memo.scratch[what])
            assert np.shares_memory(out, memo.scratch[what])
        return out
    monkeypatch.setattr(memo, "read", read)
    assert np.array_equal(simulate_batch(cfg, COORD, 4000, SEED), cold)
    assert sorted(what[1] for what in seen) == [0, 1]
    assert all(len(bufs) == 4 and all(b is bufs[0] for b in bufs) for bufs in seen.values())
    assert memo.scratch == {} and not memo.blocks and memo.nbytes == 0


def snapshot(outputs):
    """Copies of what simulate_rounds, simulate_batch and sweep returned."""
    rounds, table, swept = outputs
    return (rounds.copy(), table.copy(),
            [sorted((k, e.point, e.half_width_95) for k, e in pt.items())
             for pt in swept.estimates])


@pytest.mark.parametrize("cap", [0, 50_000, montecarlo._DrawMemo.CAP_BYTES])
def test_recycled_memory_is_never_visible_to_callers(cap, memo, monkeypatch):
    """Rounds, count tables and sweep estimates returned on seed A share no
    memory with the memo's buffers and stay as they were after calls on
    seeds B and C, whose blocks are drawn into the buffers A's blocks used;
    and the calls on A after A -> B -> C -> A equal those on a cold memo.
    With no room, with room for a few blocks (spare buffers released to
    make room) and at the default cap."""
    monkeypatch.setattr(memo, "CAP_BYTES", cap)
    cfg = make_config(scheme=Scheme.INR, power=3.0, max_rounds=3)
    split = replace(K3_SPLIT, max_rounds=3)

    def outputs(seed):
        out = (simulate_rounds(cfg, COORD, 3000, seed),
               simulate_batch(split, SPLIT, 4000, seed),
               sweep(cfg, NONCOORD, [0.0, 5.0], 3000, seed))
        assert_memo_accounts_its_blocks(memo)
        return out

    seeds = (SEED, SEED + 1, SEED + 2, SEED)
    cold = []
    for seed in seeds:
        memo.clear()
        cold.append(snapshot(outputs(seed)))
    memo.clear()
    first = outputs(SEED)
    held = snapshot(first)
    warm = [first] + [outputs(seed) for seed in seeds[1:]]
    if cap:
        assert memo_buffers(memo)
    for out in warm:
        assert not any(np.shares_memory(x, buf) for x in out[:2] for buf in memo_buffers(memo))
    for got, expected in zip([held] + [snapshot(out) for out in warm], [cold[0]] + cold):
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
        assert got[2] == expected[2]


def test_snr_at_outage_without_a_positive_point_is_a_range_error():
    # 100 trials at 30 and 40 dB see no outage at all
    sw = sweep(make_config(scheme=Scheme.INR), COORD, [30.0, 40.0], 100, SEED)
    assert not sw.outage_curve(0).any()
    with pytest.raises(RangeError):
        snr_at_outage(sw, 0, 1e-3)
    with pytest.raises(RangeError):
        energy_gain_at_outage(sw, sw, 1e-3)
