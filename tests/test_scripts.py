import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fit_slopes_prints_four_finite_slopes():
    # a short axis at low SNR, where 2000 trials per point see enough outages
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fit_slopes.py"), "--budget", "10",
         "--min-trials", "2000", "--max-trials", "2000", "--snr-db", "0:2:6"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    slopes = [float(s) for s in re.findall(r"slope ([-+]\S+)", done.stdout)]
    assert len(slopes) == 4, done.stdout
    assert all(math.isfinite(s) and s < 0 for s in slopes), done.stdout
