import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from coharq.analytic import packets_per_slot
from coharq.fading import POLICY_BAND, ConfigurationError, FadingProfile, uniform_block
from coharq.montecarlo import (DEFAULT_CHUNK, EstimateWithCI, FitWindowError,
                               RangeError, SweepResult, _assignment_matrix,
                               _grid_rounds, analytic_counterparts,
                               db_to_linear, dominance_violations,
                               energy_gain_at_outage, estimate, estimate_grid,
                               estimates_from_stats,
                               fit_diversity_slope, has_closed_form, simulate_batch,
                               simulate_rounds, snr_at_outage, sweep)
from coharq.protocol import (AllocationPolicy, PolicyKind, ProtocolConfig,
                             policy_allocate, run_packet)
from coharq.fading import Substream
from coharq.rates import Scheme

SEED = 20260826
COORD = AllocationPolicy(PolicyKind.FULL_COORDINATION_K2)
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


@pytest.mark.parametrize("policy,cfg_kwargs", [
    (COORD, dict(scheme=Scheme.RTD, max_rounds=2, lambdas=(1.0, 2.0), power=2.0)),
    (NONCOORD, dict(scheme=Scheme.INR, max_rounds=3, rates=(0.8, 1.4))),
    (ROBIN, dict(scheme=Scheme.RTD, max_rounds=3)),
])
def test_vectorized_matches_scalar(policy, cfg_kwargs):
    assert_engine_matches_oracle(make_config(**cfg_kwargs), policy, 400)


def test_vectorized_matches_scalar_k3_split():
    profile = FadingProfile(lambdas=(1.0, 2.0, 0.5))
    cfg = ProtocolConfig(profile=profile, rates=(1.0, 0.7, 1.3), power=1.5,
                         scheme=Scheme.INR, max_rounds=2)
    assert_engine_matches_oracle(cfg, SPLIT, 500)


def test_vectorized_matches_scalar_round_robin_many_users():
    # more users than bits in a 64-bit activity code
    k = 66
    cfg = make_config(rates=(1.0,) * k, lambdas=(1.0,) * k, power=3.0, max_rounds=3)
    assert_engine_matches_oracle(cfg, ROBIN, 40)


@pytest.mark.parametrize("policy,k", [(COORD, 2), (NONCOORD, 2), (SPLIT, 3), (ROBIN, 5)],
                         ids=["coord-k2", "noncoord-k2", "split-k3", "robin-k5"])
def test_assignment_matrix_matches_policy_allocate(policy, k):
    # every nonempty activity pattern, eight columns each, in a shuffled
    # order and at reversed trial offsets
    patterns = [p for p in itertools.product((False, True), repeat=k) if any(p)]
    active = np.array(patterns * 8).T
    active = active[:, np.random.default_rng(SEED).permutation(active.shape[1])]
    n = active.shape[1]
    rows = np.arange(n)[::-1]
    slot = 2
    assign = _assignment_matrix(active, rows, policy, slot, SEED, 5, n)
    uniforms = uniform_block(SEED, slot - 1, POLICY_BAND, 5, n)[rows, 0]
    for j in range(n):
        failed = set(np.flatnonzero(active[:, j]).tolist())
        mapping = policy_allocate(failed, set(range(k)) - failed, policy, k,
                                  uniform=uniforms[j])
        expected = [mapping[b] if mapping[b] in failed else -1 for b in range(k)]
        assert assign[:, j].tolist() == expected, (j, sorted(failed))
    if policy is SPLIT:
        # the two-user patterns see the coin land both ways
        pairs = uniforms[active.sum(axis=0) == 2]
        assert (pairs < 0.5).any() and (pairs >= 0.5).any()


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
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x is None and y is None) or np.array_equal(x, y), f.name


def test_chunking_is_invisible():
    cfg = make_config(scheme=Scheme.INR, max_rounds=3)
    whole = simulate_batch(cfg, COORD, 5000, SEED, chunk=5000)
    parts = simulate_batch(cfg, COORD, 5000, SEED, chunk=700)
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


@pytest.mark.parametrize("policy,cfg", GRID_CASES)
def test_estimate_grid_equals_per_vector_estimates(policy, cfg):
    grid = rate_grid(cfg.n_users, min(cfg.profile.tx_antennas, cfg.profile.rx_antennas))
    n = 3000 if cfg.profile.is_siso else 1000
    ests = estimate_grid(cfg, policy, grid, n, SEED)
    assert len(ests) == len(grid)
    for rates, est in zip(grid, ests):
        assert_same_estimates(est, estimate(replace(cfg, rates=rates), policy, n, SEED))
    # the 50-nat vector never decodes its first user; the zero rate always does
    assert ests[3]["outage_packet_user0"].point == 1.0
    assert ests[1]["outage_packet_user0"].point == 0.0


@pytest.mark.parametrize("policy,cfg", [
    (COORD, make_config(scheme=Scheme.INR, lambdas=(1.0, 2.0), max_rounds=3)),
    (NONCOORD, make_config(scheme=Scheme.RTD, lambdas=(1.0, 2.0), max_rounds=3)),
    (SPLIT, K3_SPLIT),
    (COORD, mimo_config(2, 2, Scheme.RTD, rates=(3.0, 3.0))),
    (COORD, mimo_config(2, 2, Scheme.INR, rates=(3.0, 3.0))),
], ids=["k2-inr-coord", "k2-rtd-noncoord", "k3-inr-split", "mimo2x2-rtd-coord",
        "mimo2x2-inr-coord"])
def test_grid_rounds_over_rates_and_powers(policy, cfg):
    # two rate vectors at two powers, the powers out of order: each
    # (power, trial) pair serves two columns
    low = tuple(0.5 * r for r in cfg.rates)
    configs = [replace(cfg, rates=rates, power=power)
               for rates, power in ((cfg.rates, 6.0), (low, 1.5), (cfg.rates, 1.5), (low, 6.0))]
    n = 1500 if cfg.profile.is_siso else 400
    rounds = _grid_rounds(configs, policy, n, SEED, start_trial=300)
    assert rounds.shape == (len(configs), n, cfg.n_users)
    for c, row in zip(configs, rounds):
        assert np.array_equal(row, simulate_rounds(c, policy, n, SEED, start_trial=300))
    assert len(np.unique(rounds)) == cfg.max_rounds + 1


def test_estimate_grid_rejects_bad_input():
    cfg = make_config()
    with pytest.raises(ValueError):
        estimate_grid(cfg, COORD, [], 100, SEED)
    with pytest.raises(ValueError):
        estimate_grid(cfg, COORD, [(1.0, 1.0)], 0, SEED)
    with pytest.raises(ConfigurationError):
        estimate_grid(cfg, COORD, [(1.0, 1.0), (1.0, math.inf)], 100, SEED)


@pytest.mark.parametrize("policy,cfg", [
    (COORD, make_config(scheme=Scheme.RTD, power=2.0)),
    (SPLIT, K3_SPLIT),
    (COORD, mimo_config(2, 2, Scheme.RTD, rates=(3.0, 3.0))),
    (NONCOORD, mimo_config(2, 2, Scheme.INR, rates=(3.0, 3.0))),
    (COORD, mimo_config(3, 2, Scheme.RTD, rates=(2.5, 3.0), max_rounds=3)),
    (ROBIN, K4_ROBIN),
], ids=["k2-rtd-coord", "k3-inr-split", "mimo2x2-rtd-coord", "mimo2x2-inr-noncoord",
        "mimo3x2-rtd-coord", "k4-rtd-robin"])
def test_chunk_size_and_worker_count_are_invisible(policy, cfg):
    n = 5000
    whole = simulate_batch(cfg, policy, n, SEED, chunk=n)
    for chunk in (1, 7):
        assert_same_stats(whole, simulate_batch(cfg, policy, n, SEED, chunk=chunk))
    serial = simulate_batch(cfg, policy, n, SEED, chunk=700)
    assert_same_stats(serial, simulate_batch(cfg, policy, n, SEED, chunk=700, n_jobs=2))
    assert_same_stats(whole, serial)
    # a rate grid splits its chunks by the grid size: still invisible
    n = 1000
    grid = [cfg.rates, *rate_grid(cfg.n_users)[1:]]
    ests = estimate_grid(cfg, policy, grid, n, SEED, chunk=n)
    assert_same_estimates(ests[0], estimate(cfg, policy, n, SEED))
    for kwargs in (dict(chunk=1), dict(chunk=7), dict(chunk=140, n_jobs=2)):
        for a, b in zip(ests, estimate_grid(cfg, policy, grid, n, SEED, **kwargs)):
            assert_same_estimates(a, b)


@pytest.mark.parametrize("kwargs", [
    dict(n_trials=0), dict(chunk=0), dict(n_jobs=0),
    # 2^17 table cells, past MAX_TABLE_CELLS
    dict(config=make_config(rates=(1.0,) * 17, lambdas=(1.0,) * 17, max_rounds=1),
         policy=ROBIN)])
def test_simulate_batch_rejects_bad_counts(kwargs):
    args = dict(config=make_config(), policy=COORD, n_trials=100, chunk=DEFAULT_CHUNK,
                n_jobs=1) | kwargs
    with pytest.raises(ValueError):
        simulate_batch(master_seed=SEED, **args)


def test_stats_match_per_packet_reference():
    """The count table is the histogram of the scalar oracle's decode rounds;
    its slots held and the throughput CI from its moments match the
    oracle's per-packet slots and delivered nats."""
    k3 = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 2.0, 0.5)), rates=(1.0, 0.7, 1.3),
                        power=1.5, scheme=Scheme.INR, max_rounds=2)
    k4 = make_config(rates=(1.0, 0.6, 1.2, 0.9), lambdas=(1.0, 2.0, 0.5, 1.0), power=2.0,
                     max_rounds=3)
    n = 2000
    for cfg, policy in ((make_config(rates=(0.8, 1.4), scheme=Scheme.INR, max_rounds=3), COORD),
                        (k3, SPLIT), (k4, ROBIN)):
        stats = simulate_batch(cfg, policy, n, SEED, chunk=700)
        hist = np.zeros((cfg.max_rounds + 1,) * cfg.n_users, dtype=np.int64)
        slots, nats = [], []
        for trial in range(n):
            out = run_packet(cfg, policy, Substream(SEED, trial=trial))
            hist[out.decode_round] += 1
            slots.append(out.slots_consumed)
            nats.append(sum(rate for rate, r in zip(cfg.rates, out.decode_round) if r > 0))
        assert stats.counts.shape == hist.shape
        assert np.array_equal(stats.counts, hist), policy.kind
        slots, nats = np.array(slots), np.array(nats)
        assert packets_per_slot(stats.counts, n) == n / slots.sum()
        # renewal-reward half-width from the per-packet nats and slots
        eta = nats.sum() / slots.sum()
        half = 1.96 * math.sqrt(((nats - eta * slots) ** 2).mean() / n) / slots.mean()
        est = estimates_from_stats(stats, cfg)["throughput"]
        assert est.point == pytest.approx(eta, rel=1e-12)
        assert est.half_width_95 == pytest.approx(half, rel=1e-9)


def test_coordination_share_is_a_table_query():
    """Coordination fires when exactly one user decodes in round 1: the
    cells [1, 0], [1, 2], [0, 1] and [2, 1] of the K = 2, M = 2 table."""
    cfg = make_config(rates=(1.0, 0.8), lambdas=(1.0, 2.0), power=3.0)
    n = 200_000
    counts = simulate_batch(cfg, COORD, n, SEED).counts
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


def test_estimate_is_deterministic():
    cfg = make_config(scheme=Scheme.INR)
    a = estimate(cfg, COORD, 10_000, SEED)
    b = estimate(cfg, COORD, 10_000, SEED, chunk=1234)
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
    cfg = make_config(rates=(1.0, 1.0), power=2.0, scheme=Scheme.RTD)
    assert dominance_violations(cfg, COORD, 100_000, SEED) == 0


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
    slope = fit_diversity_slope(sw, 0, top_decades=2.0)
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
    with pytest.raises(ValueError):
        sweep(cfg, COORD, [0.0, 5.0], [100], SEED)


@pytest.mark.parametrize("policy,cfg", GRID_CASES)
def test_sweep_equals_per_point_estimates(policy, cfg):
    """Every point of a sweep equals a separate estimate at its power with
    its own trial count, at any chunk size and worker count."""
    snr_db = [0.0, 5.0, 11.0, 20.0]
    n = 600 if cfg.profile.is_siso else 120
    for trials, kwargs in (([n, 1, n // 3, n - 5], dict()),
                           ([n, 1, n // 3, n - 5], dict(chunk=7)),
                           ([n, 1, n // 3, n - 5], dict(n_jobs=2)),
                           ([40, 1, 13, 35], dict(chunk=1))):
        res = sweep(cfg, policy, snr_db, trials, SEED, **kwargs)
        assert res.snr_db == snr_db and res.n_trials == trials
        for i, (snr, t) in enumerate(zip(snr_db, trials)):
            point = replace(cfg, power=db_to_linear(snr))
            assert_same_estimates(res.estimates[i], estimate(point, policy, t, SEED))
            assert res.analytic[i] == analytic_counterparts(point, policy)
    assert bool(res.analytic[0]) == has_closed_form(cfg)


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(3.0) == pytest.approx(10 ** 0.3)
