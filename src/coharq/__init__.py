"""Coordinated HARQ over Rayleigh block fading: closed-form analytics and
Monte Carlo simulation that cross-validate each other."""

from .fading import FadingProfile, Substream
from .rates import Scheme, u_rtd, u_inr
from .protocol import (AllocationPolicy, PolicyKind, ProtocolConfig,
                       PacketOutcome, run_packet)
from .analytic import (cdf_rtd_sum, cdf_inr_sum, event_table, diversity_gain,
                       reduce_table, throughput_closed)
from .montecarlo import (estimate, estimate_grid, sweep, fit_diversity_slope,
                         energy_gain_at_outage, EstimateWithCI, SweepResult)

__version__ = "0.1.0"
