import itertools
import math

import pytest

from coharq.fading import FadingProfile, Substream
from coharq.protocol import (AllocationPolicy, PacketOutcome, PolicyKind,
                             ProtocolConfig, ProtocolError, SlotLedger,
                             advance_slot, policy_allocate,
                             run_packet)
from coharq.rates import Scheme
from coharq.fading import ConfigurationError

SEED = 20260826

COORD = AllocationPolicy(PolicyKind.ROUND_ROBIN_GENERAL)
NONCOORD = AllocationPolicy(PolicyKind.NON_COORDINATED)
SPLIT = AllocationPolicy(PolicyKind.RANDOM_SPLIT_K3)
ROBIN = AllocationPolicy(PolicyKind.ROUND_ROBIN_GENERAL)


def make_config(rates=(1.0, 1.0), lambdas=(1.0, 1.0), power=1.0,
                scheme=Scheme.RTD, max_rounds=2):
    return ProtocolConfig(profile=FadingProfile(lambdas=lambdas),
                          rates=rates, power=power, scheme=scheme,
                          max_rounds=max_rounds)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ConfigurationError):
        make_config(rates=(1.0,))          # band/rate count mismatch
    with pytest.raises(ConfigurationError):
        make_config(rates=(-1.0, 1.0))
    with pytest.raises(ConfigurationError):
        make_config(power=0.0)
    with pytest.raises(ConfigurationError):
        make_config(max_rounds=0)
    # non-finite values name the field they are in
    for kwargs, field in ((dict(rates=(1.0, math.inf)), "rates"),
                          (dict(rates=(math.nan, 1.0)), "rates"),
                          (dict(power=math.inf), "power"), (dict(power=math.nan), "power")):
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            make_config(**kwargs)
    assert make_config().n_users == 2


# ---------------------------------------------------------------------------
# allocation policies


def test_allocate_no_failures_reverts_to_owners():
    for pol in (COORD, NONCOORD):
        assert policy_allocate([], {0, 1}, pol, 2) == {0: 0, 1: 1}


def test_allocate_noncoordinated_never_donates():
    assert policy_allocate([1], {0}, NONCOORD, 2) == {0: 0, 1: 1}


def test_allocate_full_coordination_k2():
    # full coordination is round-robin at K = 2: a lone failed user
    # receives the other band
    assert policy_allocate([1], {0}, COORD, 2) == {0: 1, 1: 1}
    assert policy_allocate([0], {1}, COORD, 2) == {0: 0, 1: 0}
    assert policy_allocate([0, 1], set(), COORD, 2) == {0: 0, 1: 1}


def test_allocate_random_split_k3():
    # one failed user gets both free bands
    assert policy_allocate([2], {0, 1}, SPLIT, 3) == {0: 2, 1: 2, 2: 2}
    # two failed users: the coin picks who gets the single free band
    heads = policy_allocate([0, 2], {1}, SPLIT, 3, coin=True)
    tails = policy_allocate([0, 2], {1}, SPLIT, 3, coin=False)
    assert heads == {0: 0, 2: 2, 1: 0}
    assert tails == {0: 0, 2: 2, 1: 2}
    with pytest.raises(ProtocolError):
        policy_allocate([0, 2], {1}, SPLIT, 3)  # missing coin
    with pytest.raises(ProtocolError):
        policy_allocate([0], {1}, SPLIT, 2)


def test_random_split_is_round_robin_from_the_coins_user():
    # for every failed set, the split deals like round-robin started at
    # failed[0] (coin true) or failed[1] (coin false)
    for failed in (f for n in (1, 2, 3) for f in itertools.combinations(range(3), n)):
        free = set(range(3)) - set(failed)
        for coin in (True, False):
            start = 0 if coin or len(failed) == 1 else 1
            dealt = {b: b for b in failed}
            dealt.update((b, failed[(start + i) % len(failed)])
                         for i, b in enumerate(sorted(free)))
            assert policy_allocate(failed, free, SPLIT, 3, coin=coin) == dealt, (failed, coin)


def test_allocate_round_robin():
    # free bands dealt cyclically starting at the lowest-index failed user
    assert policy_allocate([1, 3], {0, 2}, ROBIN, 4) == {1: 1, 3: 3, 0: 1, 2: 3}
    assert policy_allocate([2], {0, 1, 3}, ROBIN, 4) == {2: 2, 0: 2, 1: 2, 3: 2}
    got = policy_allocate([0, 1, 2], {3, 4}, ROBIN, 5)
    assert got == {0: 0, 1: 1, 2: 2, 3: 0, 4: 1}


def test_allocation_conservation():
    # every band maps to exactly one user; failed users keep their own band
    for failed, free in ([(1,), (0, 2)], [(0, 1), (2,)], [(0, 1, 2), ()]):
        a = policy_allocate(list(failed), set(free), ROBIN, 3)
        assert sorted(a) == [0, 1, 2]
        for u in failed:
            assert a[u] == u


# ---------------------------------------------------------------------------
# slot mechanics with forced draws


def test_advance_slot_both_decode_first_round():
    cfg = make_config(rates=(1.0, 1.0), power=1.0)
    led = SlotLedger(config=cfg)
    big = math.e  # log(1 + e) > 1
    advance_slot(led, [big, big], cfg, COORD)
    assert led.active == set()
    assert led.decode_round == [1, 1]
    assert led.slot == 1


def test_advance_slot_donation_path():
    # slot 0: A decodes, B fails; slot 1: B gets copies on both bands
    cfg = make_config(rates=(1.0, 1.0), power=1.0, scheme=Scheme.RTD, max_rounds=2)
    led = SlotLedger(config=cfg)
    advance_slot(led, [math.e, 0.1], cfg, COORD)
    assert led.decode_round == [1, 0]
    assert led.active == {1}
    assert led.assignment == {0: 1, 1: 1}
    advance_slot(led, [1.0, 1.0], cfg, COORD)
    # B accumulated gains 0.1 + 1.0 + 1.0 -> log(3.1) > 1
    assert led.active == set()
    assert led.decode_round == [1, 2]


def test_advance_slot_noncoordinated_no_donation():
    cfg = make_config(rates=(1.0, 1.0), power=1.0, max_rounds=2)
    led = SlotLedger(config=cfg)
    advance_slot(led, [math.e, 0.1], cfg, NONCOORD)
    assert led.assignment == {0: 0, 1: 1}
    advance_slot(led, [math.e, 1.0], cfg, NONCOORD)
    # band 0's second draw goes to the already-decoded owner and is discarded;
    # B has 0.1 + 1.0 -> log(2.1) < 1 -> outage
    assert led.active == set()
    assert led.decode_round == [1, 0]
    assert led.copies[0] == [math.e]


def test_advance_slot_boundary_is_success():
    cfg = make_config(rates=(1.0, 1.0), power=1.0)
    led = SlotLedger(config=cfg)
    advance_slot(led, [math.e - 1.0, math.e - 1.0], cfg, COORD)
    assert led.decode_round == [1, 1]


def test_inr_accumulation_in_protocol():
    # RTD fails where INR succeeds on the same draws
    for scheme, want in ((Scheme.RTD, 0), (Scheme.INR, 2)):
        cfg = make_config(rates=(10.0, 1.2), power=1.0, scheme=scheme, max_rounds=2)
        led = SlotLedger(config=cfg)
        advance_slot(led, [0.0, 0.9], cfg, NONCOORD)
        advance_slot(led, [0.0, 0.9], cfg, NONCOORD)
        # INR: 2 log(1.9) = 1.284 > 1.2; RTD: log(2.8) = 1.030 < 1.2
        assert led.decode_round[1] == want


def test_advance_slot_rejects_terminated_packet():
    cfg = make_config(max_rounds=1, rates=(50.0, 50.0))
    led = SlotLedger(config=cfg)
    advance_slot(led, [0.1, 0.1], cfg, COORD)
    assert led.active == set() and led.decode_round == [0, 0]
    with pytest.raises(ProtocolError):
        advance_slot(led, [0.1, 0.1], cfg, COORD)


def test_advance_slot_rejects_donation_to_resolved_user():
    cfg = make_config(rates=(1.0, 1.0), power=1.0)
    led = SlotLedger(config=cfg)
    advance_slot(led, [math.e, 0.1], cfg, COORD)
    led.assignment = {0: 0, 1: 0}   # user 0 has decoded
    with pytest.raises(ProtocolError):
        advance_slot(led, [1.0, 1.0], cfg, COORD)


def test_advance_slot_requires_all_bands():
    cfg = make_config()
    led = SlotLedger(config=cfg)
    with pytest.raises(ProtocolError):
        advance_slot(led, [1.0], cfg, COORD)


# ---------------------------------------------------------------------------
# whole packets


def test_run_packet_zero_rate_always_one_slot():
    cfg = make_config(rates=(0.0, 0.0))
    out = run_packet(cfg, COORD, Substream(SEED, trial=0))
    assert out == PacketOutcome(decode_round=(1, 1), slots_consumed=1)


def test_run_packet_m1_structure():
    cfg = make_config(max_rounds=1, rates=(1.0, 1.0))
    for trial in range(200):
        out = run_packet(cfg, COORD, Substream(SEED, trial=trial))
        assert out.slots_consumed == 1
        assert all(r in (0, 1) for r in out.decode_round)


def test_run_packet_slots_equal_max_round_used():
    cfg = make_config(max_rounds=3)
    for trial in range(300):
        out = run_packet(cfg, COORD, Substream(SEED, trial=trial))
        rounds = [r or 3 for r in out.decode_round]
        assert out.slots_consumed == max(rounds)


def test_run_packet_deterministic_in_trial():
    cfg = make_config(scheme=Scheme.INR, max_rounds=3)
    a = run_packet(cfg, COORD, Substream(SEED, trial=17))
    b = run_packet(cfg, COORD, Substream(SEED, trial=17))
    assert a == b


def test_noncoordinated_matches_single_user_oracle():
    """Each user under the non-coordinated policy behaves exactly like an
    isolated single-user chase protocol on its own band (same draws)."""
    cfg = make_config(rates=(0.7, 0.9), lambdas=(1.0, 2.0), power=2.0,
                      max_rounds=3)
    from coharq.fading import gain_block
    for trial in range(200):
        out = run_packet(cfg, NONCOORD, Substream(SEED, trial=trial))
        for user in range(2):
            # brute-force single-user replay from the same one-trial draws
            acc = 0.0
            decided = 0
            for r in range(1, 4):
                acc += gain_block(cfg.profile, user, r - 1, SEED, trial, 1)[0] * cfg.power
                if math.log1p(acc) >= cfg.rates[user]:
                    decided = r
                    break
            assert out.decode_round[user] == decided


def test_oracle_decides_on_accumulated_nats_like_the_engine():
    """Three copies whose log1p(sum SNR) equals the rate to the last bit: the
    per-use form log1p(sum)/3*3 lands one ulp below it, and the oracle used
    to call this outage where the engine decodes at round 3."""
    from coharq.cli import build_config
    from coharq.montecarlo import simulate_rounds
    cfg = build_config("rtd", 2, 3, (1.0, 1.0), (1.6390015425795406, 100.0), 0.0)
    out = run_packet(cfg, NONCOORD, Substream(5, trial=34))
    assert out.decode_round == (3, 0)
    assert list(simulate_rounds(cfg, NONCOORD, 35, 5)[34]) == [3, 0]


def test_run_packet_k3_random_split():
    profile = FadingProfile(lambdas=(1.0, 1.0, 1.0))
    cfg = ProtocolConfig(profile=profile, rates=(1.0, 1.0, 1.0), power=1.0,
                         scheme=Scheme.INR, max_rounds=2)
    for trial in range(300):
        out = run_packet(cfg, SPLIT, Substream(SEED, trial=trial))
        assert out.slots_consumed in (1, 2)
        assert all(r in (0, 1, 2) for r in out.decode_round)


def test_mimo_packet_runs():
    profile = FadingProfile(lambdas=(1.0, 1.0), tx_antennas=2, rx_antennas=2)
    cfg = ProtocolConfig(profile=profile, rates=(2.0, 2.0), power=4.0,
                         scheme=Scheme.RTD, max_rounds=2)
    out = run_packet(cfg, COORD, Substream(SEED, trial=0))
    assert out.slots_consumed in (1, 2)
