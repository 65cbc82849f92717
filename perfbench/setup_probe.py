"""Set-up cost a `coharq` command pays before its first useful result:
import the package and the CLI module, run a 1-trial batch and one
closed-form event table. run.py times this script in fresh interpreters.

Usage: python3 setup_probe.py <directory holding the coharq package>
"""

import sys
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))

from coharq import analytic, cli, montecarlo  # noqa: E402

if Path(montecarlo.__file__).resolve().parent != src / "coharq":
    sys.exit(f"imported coharq from {montecarlo.__file__}, not from {src}")

cfg = cli.build_config("inr", 2, 2, (1.0, 1.0), (1.0, 1.0), 10.0)
montecarlo.simulate_batch(cfg, cli.resolve_policy("coord", 2), 1, 1)
analytic.event_table(cfg.scheme, cfg.max_rounds, cfg.profile.lambdas, cfg.power, 1.0, 1.0)
