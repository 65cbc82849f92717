#!/usr/bin/env python3
"""Fit high-SNR outage slopes for the two-user system, both schemes and
policies. Trial counts scale inversely with the predicted outage so every
point clears the 10-outage reliability floor.

    python3 scripts/fit_slopes.py --budget 2000 --max-trials 20000000
"""

import argparse

import numpy as np

from coharq.cli import build_config, parse_axis, resolve_policy
from coharq.montecarlo import analytic_counterparts, fit_diversity_slope, sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--budget", type=float, default=2000,
                    help="target outage-event count per SNR point")
    ap.add_argument("--min-trials", type=float, default=1e5)
    ap.add_argument("--max-trials", type=float, default=2e7)
    ap.add_argument("--snr-db", default="4:2:32")
    args = ap.parse_args()

    axis = parse_axis(args.snr_db)
    for scheme in ("rtd", "inr"):
        for policy_name in ("noncoord", "coord"):
            policy = resolve_policy(policy_name, 2)
            trials = []
            for snr_db in axis:
                cfg = build_config(scheme, 2, 2, (1.0, 1.0), (1.0, 1.0), snr_db)
                out = analytic_counterparts(cfg, policy)["outage_user1"]
                trials.append(int(np.clip(args.budget / max(out, 1e-12),
                                          args.min_trials, args.max_trials)))
            cfg0 = build_config(scheme, 2, 2, (1.0, 1.0), (1.0, 1.0), 0.0)
            res = sweep(cfg0, policy, axis, trials, args.seed)
            slope = fit_diversity_slope(res, user=1)
            print(f"{scheme:4s} {policy_name:9s} slope {slope:+.3f}")


if __name__ == "__main__":
    main()
