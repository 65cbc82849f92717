import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import coharq

# Runs in a fresh interpreter, so modules the test suite imported do not count.
PROBE = """
import sys
from coharq import analytic, cli, montecarlo

cfg = cli.build_config("inr", 2, 2, (1.0, 1.0), (1.0, 1.0), 10.0)
montecarlo.simulate_batch(cfg, cli.resolve_policy("coord", 2), 1, 1)
analytic.event_table(cfg.scheme, cfg.max_rounds, cfg.profile.lambdas, cfg.power, 1.0, 1.0)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded

mimo = cli.build_config("rtd", 2, 2, (1.0, 1.0), (2.0, 2.0), 10.0, u=2, v=2)
stats = montecarlo.simulate_batch(mimo, cli.resolve_policy("coord", 2), 16, 1)
assert stats.n_trials == 16
"""


def test_siso_and_closed_forms_load_numpy_alone():
    src = str(Path(coharq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_bindings_resolve():
    """Every function the benchmark's tracer wraps, and the oracle entry
    points its workloads call, still exist under the names it uses."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _ in tracing.BINDINGS]
    names += [("coharq.protocol", "run_packet"), ("coharq.fading", "Substream")]
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, missing
