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

from dataclasses import dataclass, field
from enum import Enum

from .fading import (ConfigurationError, FadingProfile, Substream,
                     sample_gain, sample_matrix)
from .rates import (MimoRateInputs, Scheme, inr_nats, mimo_nats_inr, mimo_nats_rtd,
                    rtd_nats)
# the per-use rates stay importable here: perfbench/tracing.py binds these names
from .rates import mimo_rate_inr, mimo_rate_rtd, u_inr, u_rtd  # noqa: F401

OUTAGE_ROUND = -1


class ProtocolError(RuntimeError):
    """An allocation violated the policy invariants."""


class PolicyKind(Enum):
    NON_COORDINATED = "noncoord"
    FULL_COORDINATION_K2 = "coord"
    RANDOM_SPLIT_K3 = "random-split"
    ROUND_ROBIN_GENERAL = "round-robin"


@dataclass(frozen=True)
class AllocationPolicy:
    kind: PolicyKind

    @property
    def coordinated(self) -> bool:
        return self.kind is not PolicyKind.NON_COORDINATED


@dataclass(frozen=True)
class ProtocolConfig:
    profile: FadingProfile
    rates: tuple            # initial rate R_u per user, nats per channel use
    power: float            # linear transmit power per band
    scheme: Scheme
    max_rounds: int

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.rates) != self.profile.n_bands:
            raise ConfigurationError("one band per user required")
        if any(r < 0 for r in self.rates):
            raise ConfigurationError("rates must be nonnegative")
        if self.power <= 0:
            raise ConfigurationError("power must be positive")
        if self.max_rounds < 1:
            raise ConfigurationError("need at least one round")

    @property
    def n_users(self) -> int:
        return len(self.rates)


class UserStatus(Enum):
    ACTIVE = "active"
    DECODED = "decoded"
    OUTAGE = "outage"


def policy_allocate(failed, free_bands, policy: AllocationPolicy, n_users: int,
                    uniform: float = None) -> dict:
    """Map each free band to a failed user (or back to its owner).

    `failed` are the still-active users, `free_bands` the bands of users that
    already resolved. Failed users always keep their own bands; this function
    only distributes the free ones. With no failed users, bands revert to
    their owners (new packets). `uniform` feeds the randomized K=3 split.
    """
    failed = sorted(failed)
    free = sorted(free_bands)
    assignment = {b: b for b in range(n_users) if b in failed}
    if not failed:
        return {b: b for b in range(n_users)}
    if policy.kind is PolicyKind.NON_COORDINATED:
        for b in free:
            assignment[b] = b  # reverts to owner, who ignores it
        return assignment
    if policy.kind is PolicyKind.FULL_COORDINATION_K2:
        if n_users != 2:
            raise ProtocolError("full-coordination policy is defined for exactly 2 users")
        for b in free:
            assignment[b] = failed[0]
        return assignment
    if policy.kind is PolicyKind.RANDOM_SPLIT_K3:
        if n_users != 3:
            raise ProtocolError("random-split policy is defined for exactly 3 users")
        if len(failed) == 1:
            for b in free:
                assignment[b] = failed[0]
        elif len(failed) == 2 and free:
            # one failed user, chosen uniformly, receives the single free band
            if uniform is None:
                raise ProtocolError("random-split with two failed users needs a uniform draw")
            lucky = failed[0] if uniform < 0.5 else failed[1]
            assignment[free[0]] = lucky
        return assignment
    # round-robin: deal free bands cyclically, starting at the lowest-index
    # failed user
    for i, b in enumerate(free):
        assignment[b] = failed[i % len(failed)]
    return assignment


@dataclass
class SlotLedger:
    """Mutable per-packet record: current assignment and per-user state."""

    config: ProtocolConfig
    slot: int = 0
    assignment: dict = field(default_factory=dict)     # band -> user
    status: list = field(default_factory=list)         # UserStatus per user
    rounds_used: list = field(default_factory=list)
    decode_round: list = field(default_factory=list)   # round index or OUTAGE_ROUND
    snr_copies: list = field(default_factory=list)     # per-user list of copy SNRs (SISO)
    matrix_copies: list = field(default_factory=list)  # per-user list of H draws (MIMO)

    def __post_init__(self):
        k = self.config.n_users
        if not self.assignment:
            self.assignment = {b: b for b in range(k)}
        if not self.status:
            self.status = [UserStatus.ACTIVE] * k
            self.rounds_used = [0] * k
            self.decode_round = [0] * k
            self.snr_copies = [[] for _ in range(k)]
            self.matrix_copies = [[] for _ in range(k)]

    def active_users(self):
        return [u for u, s in enumerate(self.status) if s is UserStatus.ACTIVE]

    def accumulated_nats(self, user: int) -> float:
        """Nats the user's copies carry, summed in the engine's order and
        compared with the rate as they are (a per-use rate times the copy
        count can land an ulp below them)."""
        cfg = self.config
        rtd = cfg.scheme is Scheme.RTD
        if cfg.profile.is_siso:
            copies = self.snr_copies[user]
            if not copies:
                return 0.0
            return rtd_nats(copies) if rtd else inr_nats(copies)
        mats = self.matrix_copies[user]
        if not mats:
            return 0.0
        inputs = MimoRateInputs(matrices=mats, power=cfg.power,
                                tx_antennas=cfg.profile.tx_antennas)
        return mimo_nats_rtd(inputs) if rtd else mimo_nats_inr(inputs)


@dataclass(frozen=True)
class PacketOutcome:
    decode_round: tuple      # per user: round in 1..M, or OUTAGE_ROUND
    nats_delivered: tuple    # R_u if decoded else 0
    slots_consumed: int


def _check_assignment(ledger: SlotLedger) -> None:
    active = set(ledger.active_users())
    for band, user in ledger.assignment.items():
        if active and user not in active and user != band:
            raise ProtocolError(
                f"band {band} assigned to resolved user {user} while others are active")


def advance_slot(ledger: SlotLedger, draws: dict, config: ProtocolConfig,
                 policy: AllocationPolicy, policy_uniform: float = None) -> SlotLedger:
    """Apply one slot: deliver copies per the current assignment, run the
    decoding checks, update statuses, and compute the next slot's assignment.

    `draws` maps band -> GainDraw or ChannelMatrixDraw and must cover every
    band (unused draws are simply discarded, which keeps the fading process
    identical across policies).
    """
    active = set(ledger.active_users())
    if not active:
        raise ProtocolError("no active users: packet already terminated")
    if set(draws) != set(range(config.n_users)):
        raise ProtocolError("draws must cover every band")
    _check_assignment(ledger)

    # ascending band order, so scalar and vectorized paths accumulate copies
    # in the same floating-point order
    for band in sorted(ledger.assignment):
        user = ledger.assignment[band]
        if ledger.status[user] is not UserStatus.ACTIVE:
            continue
        draw = draws[band]
        if config.profile.is_siso:
            ledger.snr_copies[user].append(draw.value * config.power)
        else:
            ledger.matrix_copies[user].append(draw.matrix)

    for user in sorted(active):
        ledger.rounds_used[user] += 1
        if ledger.accumulated_nats(user) >= config.rates[user]:
            ledger.status[user] = UserStatus.DECODED
            ledger.decode_round[user] = ledger.rounds_used[user]
        elif ledger.rounds_used[user] >= config.max_rounds:
            ledger.status[user] = UserStatus.OUTAGE
            ledger.decode_round[user] = OUTAGE_ROUND

    ledger.slot += 1
    still_failed = set(ledger.active_users())
    free = {b for b in range(config.n_users) if b not in still_failed}
    ledger.assignment = policy_allocate(still_failed, free, policy,
                                        config.n_users, uniform=policy_uniform)
    return ledger


def run_packet(config: ProtocolConfig, policy: AllocationPolicy,
               substream: Substream, trace=None) -> PacketOutcome:
    """Run one packet to termination (at most M slots).

    With the non-coordinated policy each user's trajectory is statistically
    identical to isolated single-user HARQ with M rounds. `trace`, if given,
    is a list that receives one dict per slot for debugging/export.
    """
    ledger = SlotLedger(config=config)
    needs_uniform = policy.kind is PolicyKind.RANDOM_SPLIT_K3
    while ledger.active_users():
        substream.slot = ledger.slot
        if config.profile.is_siso:
            draws = {b: sample_gain(config.profile, b, substream)
                     for b in range(config.n_users)}
        else:
            draws = {b: sample_matrix(config.profile, b, substream)
                     for b in range(config.n_users)}
        u = substream.policy_uniform() if needs_uniform else None
        if trace is not None:
            trace.append(_trace_row(substream.trial, ledger, config))
        advance_slot(ledger, draws, config, policy, policy_uniform=u)
    nats = tuple(config.rates[u] if ledger.status[u] is UserStatus.DECODED else 0.0
                 for u in range(config.n_users))
    return PacketOutcome(decode_round=tuple(ledger.decode_round),
                         nats_delivered=nats, slots_consumed=ledger.slot)


def _trace_row(trial: int, ledger: SlotLedger, config: ProtocolConfig) -> dict:
    decoded = [u for u, s in enumerate(ledger.status) if s is UserStatus.DECODED]
    failed = ledger.active_users()
    return {
        "trial": trial,
        "slot": ledger.slot,
        "assignment": dict(ledger.assignment),
        "scheme": config.scheme.value,
        "decoded_users": list(decoded),
        "failed_users": list(failed),
    }


def format_trace(rows) -> str:
    """Protocol trace as CSV text: one line per (slot, band)."""
    lines = ["trial,slot,band,user,scheme,decoded_users,failed_users"]
    for r in rows:
        dec = ";".join(str(u) for u in r["decoded_users"])
        fail = ";".join(str(u) for u in r["failed_users"])
        for band in sorted(r["assignment"]):
            lines.append(f'{r["trial"]},{r["slot"]},{band},{r["assignment"][band]},'
                         f'{r["scheme"]},{dec},{fail}')
    return "\n".join(lines) + "\n"
