"""Coordinated-HARQ state machine: per-slot band allocation driven by
ACK/NACK outcomes, for K users and at most M rounds.

Band k is owned by user k. When some users decode early, their bands are
donated to the still-active users according to the allocation policy, as
simultaneous extra retransmissions. Packet boundaries are synchronized: a
decoded user stays silent (its band donated) until every user has resolved,
and only then do new packets start for everyone.

This module is the scalar reference implementation (one packet at a time,
one draw at a time); the montecarlo module runs the identical protocol
vectorized over trials and is tested for exact agreement with this one.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

from .fading import (POLICY_BAND, ConfigurationError, FadingProfile, Substream,
                     gain_block, matrix_block, uniform_block)
from .rates import Scheme, inr_nats, mimo_nats_inr, mimo_nats_rtd, rtd_nats
# the per-use rates stay importable here: perfbench/tracing.py binds these names
from .rates import mimo_rate_inr, mimo_rate_rtd, u_inr, u_rtd  # noqa: F401


class ProtocolError(RuntimeError):
    """An allocation violated the policy invariants."""


class PolicyKind(Enum):
    NON_COORDINATED = "noncoord"
    RANDOM_SPLIT_K3 = "random-split"
    ROUND_ROBIN_GENERAL = "round-robin"


@dataclass(frozen=True)
class AllocationPolicy:
    kind: PolicyKind


def check_rates(rates, n_users: int) -> tuple:
    """`rates` as a tuple of floats, one per user, each finite and
    nonnegative; ConfigurationError otherwise."""
    rates = tuple(float(r) for r in rates)
    if len(rates) != n_users:
        raise ConfigurationError("one band per user required")
    if not all(math.isfinite(r) and r >= 0 for r in rates):
        raise ConfigurationError(f"rates must be finite and nonnegative, got {rates}")
    return rates


@dataclass(frozen=True)
class ProtocolConfig:
    profile: FadingProfile
    rates: tuple            # initial rate R_u per user, nats per channel use
    power: float            # linear transmit power per band
    scheme: Scheme
    max_rounds: int

    def __post_init__(self):
        object.__setattr__(self, "rates", check_rates(self.rates, self.profile.n_bands))
        if not (math.isfinite(self.power) and self.power > 0):
            raise ConfigurationError(f"power must be finite and positive, got {self.power}")
        if self.max_rounds < 1:
            raise ConfigurationError("need at least one round")

    @property
    def n_users(self) -> int:
        return len(self.rates)


def policy_allocate(failed, free_bands, policy: AllocationPolicy, n_users: int,
                    coin: bool = None) -> dict:
    """Map each free band to a failed user (or back to its owner).

    `failed` are the still-active users, `free_bands` the bands of users that
    already resolved. Failed users always keep their own bands; the free ones
    are dealt in index order, round-robin, from the lowest-index failed user.
    With no failed users, bands revert to their owners (new packets). The
    K=3 random split deals its one free band between two failed users from
    the first if `coin` is true, else from the second.

    At K >= 4 round-robin is not pathwise monotone: when a user resolves,
    the deal starts again and can hand a failed user another band, and so
    another draw, than the one it gets when fewer users resolve, so on
    some trials more power or lower rates make a user decode later. This
    says nothing against its law.
    """
    failed = sorted(failed)
    if not failed or policy.kind is PolicyKind.NON_COORDINATED:
        # a free band reverts to its owner, who ignores it
        return {b: b for b in range(n_users)}
    free = sorted(free_bands)
    start = 0
    if policy.kind is PolicyKind.RANDOM_SPLIT_K3:
        if n_users != 3:
            raise ProtocolError("random-split policy is defined for exactly 3 users")
        if len(failed) == 2 and free:
            if coin is None:
                raise ProtocolError("random-split with two failed users needs a coin")
            start = 0 if coin else 1
    assignment = {b: b for b in failed}
    for i, b in enumerate(free):
        assignment[b] = failed[(start + i) % len(failed)]
    return assignment


@dataclass
class SlotLedger:
    """Mutable per-packet record: the current assignment, the users still
    active, each user's received copies (SNRs for SISO, channel matrices for
    MIMO) and its decode round, 0 until it decodes and for outage."""

    config: ProtocolConfig
    slot: int = 0
    assignment: dict = field(init=False)    # band -> user
    active: set = field(init=False)
    decode_round: list = field(init=False)
    copies: list = field(init=False)

    def __post_init__(self):
        k = self.config.n_users
        self.assignment = {b: b for b in range(k)}
        self.active = set(range(k))
        self.decode_round = [0] * k
        self.copies = [[] for _ in range(k)]

    def accumulated_nats(self, user: int) -> float:
        """Nats the user's copies carry, summed in the engine's order and
        compared with the rate as they are (a per-use rate times the copy
        count can land an ulp below them)."""
        cfg = self.config
        copies = self.copies[user]
        rtd = cfg.scheme is Scheme.RTD
        if cfg.profile.is_siso:
            return rtd_nats(copies) if rtd else inr_nats(copies)
        q = cfg.power / cfg.profile.tx_antennas
        return mimo_nats_rtd(copies, q) if rtd else mimo_nats_inr(copies, q)


@dataclass(frozen=True)
class PacketOutcome:
    decode_round: tuple      # per user: round in 1..M, or 0 for outage
    slots_consumed: int


def advance_slot(ledger: SlotLedger, draws: list, config: ProtocolConfig,
                 policy: AllocationPolicy, coin: bool = None) -> None:
    """Apply one slot: deliver copies per the current assignment, run the
    decoding checks, retire resolved users, and compute the next slot's
    assignment.

    `draws` holds one draw per band, a gain (SISO) or a channel matrix
    (MIMO), and must cover every band (unused draws are simply discarded,
    which keeps the fading process identical across policies). `coin` is
    the K=3 split's coin for the next slot's assignment.
    """
    active = ledger.active
    if not active:
        raise ProtocolError("no active users: packet already terminated")
    if len(draws) != config.n_users:
        raise ProtocolError("draws must cover every band")
    for band, user in ledger.assignment.items():
        if user not in active and user != band:
            raise ProtocolError(
                f"band {band} assigned to resolved user {user} while others are active")

    # ascending band order, so scalar and vectorized paths accumulate copies
    # in the same floating-point order
    for band in sorted(ledger.assignment):
        user = ledger.assignment[band]
        if user in active:
            draw = draws[band]
            ledger.copies[user].append(draw * config.power if config.profile.is_siso
                                       else draw)

    # an active user has been active in every slot so far: its round is the
    # slot count
    ledger.slot += 1
    for user in sorted(active):
        if ledger.accumulated_nats(user) >= config.rates[user]:
            ledger.decode_round[user] = ledger.slot
            active.discard(user)
        elif ledger.slot >= config.max_rounds:
            active.discard(user)

    free = set(range(config.n_users)) - active
    ledger.assignment = policy_allocate(active, free, policy, config.n_users, coin=coin)


def run_packet(config: ProtocolConfig, policy: AllocationPolicy,
               substream: Substream) -> PacketOutcome:
    """Run one packet to termination (at most M slots).

    With the non-coordinated policy each user's trajectory is statistically
    identical to isolated single-user HARQ with M rounds. Each slot reads
    one-trial blocks of the substream's trial: one draw per band, and for
    the K=3 split the policy uniform behind the next slot's coin.
    """
    ledger = SlotLedger(config=config)
    block = gain_block if config.profile.is_siso else matrix_block
    needs_coin = policy.kind is PolicyKind.RANDOM_SPLIT_K3
    seed, trial = substream.master_seed, substream.trial
    while ledger.active:
        draws = [block(config.profile, b, ledger.slot, seed, trial, 1)[0]
                 for b in range(config.n_users)]
        coin = None
        if needs_coin:
            coin = uniform_block(seed, ledger.slot, POLICY_BAND, trial, 1)[0, 0] < 0.5
        advance_slot(ledger, draws, config, policy, coin=coin)
    return PacketOutcome(decode_round=tuple(ledger.decode_round),
                         slots_consumed=ledger.slot)
