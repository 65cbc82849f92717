"""Pathwise orderings on shared draws.

Draws are keyed by (seed, trial, slot, band), never by rates, power, scheme
or policy, so configurations that differ only in those run on the same
channels. Where an ordering holds on every path it is a check with no
tolerance: zero user-trials may decode later on the side that should be
no worse.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from coharq.fading import FadingProfile, Substream
from coharq.montecarlo import _grid_rounds, simulate_rounds
from coharq.protocol import AllocationPolicy, PolicyKind, ProtocolConfig, run_packet
from coharq.rates import Scheme

NONCOORD = AllocationPolicy(PolicyKind.NON_COORDINATED)
SPLIT = AllocationPolicy(PolicyKind.RANDOM_SPLIT_K3)
ROBIN = AllocationPolicy(PolicyKind.ROUND_ROBIN_GENERAL)
TRIALS = 10_000
ONE_DB = 10 ** 0.1


def ordered(rounds: np.ndarray, max_rounds: int) -> np.ndarray:
    """Decode rounds with outage (round 0) read as round M+1."""
    return np.where(rounds == 0, max_rounds + 1, rounds)


def later(worse: np.ndarray, better: np.ndarray, max_rounds: int) -> int:
    """User-trials that decode later in `better` than in `worse`."""
    return int(np.count_nonzero(ordered(better, max_rounds) > ordered(worse, max_rounds)))


@st.composite
def setups(draw, users, policies):
    """A random SISO setup: K users with their own fading parameter and
    rate, a power, M in {2, 3}, a policy and a master seed."""
    k = draw(users)
    policy = draw(st.sampled_from([p for p in policies if p is not SPLIT or k == 3]))
    lambdas = draw(st.lists(st.floats(0.25, 4.0), min_size=k, max_size=k))
    rates = draw(st.lists(st.floats(0.05, 3.0), min_size=k, max_size=k))
    power = 10 ** (draw(st.floats(-5.0, 25.0)) / 10)
    config = ProtocolConfig(profile=FadingProfile(lambdas=lambdas), rates=rates,
                            power=power, scheme=Scheme.RTD,
                            max_rounds=draw(st.sampled_from((2, 3))))
    return config, policy, draw(st.integers(0, 2**32))


def assert_orderings_hold(config, policy, seed):
    """INR decodes no later than RTD; +1 dB of power and rates x 0.8 decode
    no later than the base. Each scheme runs the base and both changes as
    configurations of one _grid_rounds call, so all of them share draws."""
    m = config.max_rounds
    changes = [config, replace(config, power=config.power * ONE_DB),
               replace(config, rates=tuple(0.8 * r for r in config.rates))]
    rounds = {scheme: _grid_rounds([replace(c, scheme=scheme) for c in changes],
                                   policy, TRIALS, seed)
              for scheme in Scheme}
    for scheme, (base, louder, slower) in rounds.items():
        assert later(base, louder, m) == 0, (scheme, "+1 dB")
        assert later(base, slower, m) == 0, (scheme, "rates x 0.8")
    for g, (rtd, inr) in enumerate(zip(rounds[Scheme.RTD], rounds[Scheme.INR])):
        assert later(rtd, inr, m) == 0, ("INR against RTD", g)


@settings(max_examples=60, deadline=None)
@given(setups(st.integers(2, 3), (NONCOORD, ROBIN, SPLIT)))
def test_orderings_hold_on_every_path_up_to_three_users(setup):
    assert_orderings_hold(*setup)


@settings(max_examples=40, deadline=None)
@given(setups(st.integers(2, 5), (NONCOORD,)))
def test_orderings_hold_on_every_path_noncoordinated_up_to_five_users(setup):
    assert_orderings_hold(*setup)


def test_round_robin_k4_is_not_pathwise_monotone_in_power():
    """At K = 4 round-robin deals the free bands again whenever a user
    resolves, so a failed user can lose a band to another one: +1 dB of
    power makes user A decode later on trial 898 of this seed, the first
    such trial, and the scalar oracle shows the same later round."""
    seed = 20260826
    base = ProtocolConfig(profile=FadingProfile(lambdas=(1.0,) * 4), rates=(1.0,) * 4,
                          power=1.0, scheme=Scheme.RTD, max_rounds=3)
    louder = replace(base, power=ONE_DB)
    quiet, loud = _grid_rounds([base, louder], ROBIN, 1000, seed)
    worse = ordered(loud, base.max_rounds) > ordered(quiet, base.max_rounds)
    trial = int(np.flatnonzero(worse.any(axis=1))[0])
    assert trial == 898
    assert quiet[trial].tolist() == [3, 0, 2, 0] and loud[trial].tolist() == [0, 2, 2, 3]
    for config, rounds in ((base, quiet), (louder, loud)):
        out = run_packet(config, ROBIN, Substream(seed, trial=trial))
        assert out.decode_round == tuple(rounds[trial].tolist())
        assert np.array_equal(simulate_rounds(config, ROBIN, 1, seed, start_trial=trial)[0],
                              rounds[trial])
