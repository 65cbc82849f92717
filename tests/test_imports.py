import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import coharq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Runs in a fresh interpreter, so modules the test suite imported do not count;
# any scipy import in it raises.
PROBE = """
import sys


class NoScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} imported")


sys.meta_path.insert(0, NoScipy)
from coharq import analytic, cli, montecarlo


def pool_modules(names):
    # the named modules and their submodules, and multiprocessing's
    return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                  or any(m == n or m.startswith(n + ".") for n in names))


cfg = cli.build_config("inr", 2, 2, (1.0, 1.0), (1.0, 1.0), 10.0)
montecarlo.simulate_batch(cfg, cli.resolve_policy("coord", 2), 1, 1)
analytic.event_table(cfg.scheme, cfg.max_rounds, cfg.profile.lambdas, cfg.power, 1.0, 1.0)
cli.optimize_rates(cfg, cli.resolve_policy("noncoord", 2), [(1.0, 1.0), (1.0, 2.0)])
# the INR density chains and product integrals of an M = 3 coordinated
# table at unequal fading
analytic.event_table(cfg.scheme, 3, (1.0, 2.0), cfg.power, 1.0, 1.5, coordinated=True)
# the pool is imported only where a run starts one
loaded = pool_modules(["concurrent.futures"])
assert not loaded, loaded

mimo = cli.build_config("rtd", 2, 2, (1.0, 1.0), (2.0, 2.0), 10.0, u=2, v=2)
counts = montecarlo.simulate_batch(mimo, cli.resolve_policy("coord", 2), 16, 1)
assert counts.sum() == 16
loaded = pool_modules(["concurrent.futures"])
assert not loaded, loaded

# a pooled SISO run (3 chunks on 2 threads) starts no process
montecarlo.CHUNK = 6
counts = montecarlo.simulate_batch(cfg, cli.resolve_policy("coord", 2), 16, 1, n_jobs=2)
assert counts.sum() == 16
assert "concurrent.futures.thread" in sys.modules
loaded = pool_modules(["concurrent.futures.process"])
assert not loaded, loaded
"""


def test_siso_and_closed_forms_load_numpy_alone():
    """SISO and 2x2 MIMO batches, a rate search and closed-form tables run
    with scipy's import blocked, load no pool module, and a pooled SISO run
    starts threads, not processes."""
    src = str(Path(coharq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# The arguments each observer of the benchmark's tracer reads, by span name.
OBSERVED_PARAMETERS = {
    "fading.gain_block": {"n_trials"},
    "fading.matrix_block": {"n_trials", "profile"},
    "fading.uniform_block": {"n_trials", "words"},
    "montecarlo.simulate_rounds": {"n_trials", "config"},
    "montecarlo.simulate_batch": {"n_trials"},
    "analytic.cdf_inr_sum": {"n", "m", "lambdas", "power", "x"},
    "cli.emit_csv": {"rows"},
}


def load_tracing():
    """perfbench/tracing.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_bindings_resolve():
    """Every function the benchmark's tracer wraps, and the oracle entry
    points its workloads call, still exist under the names it uses, and
    every observed function keeps the parameter names its observer reads
    (a renamed one would end a traced run in a KeyError)."""
    tracing = load_tracing()
    names = [(module, attr) for module, attr, _ in tracing.BINDINGS]
    names += [("coharq.protocol", "run_packet"), ("coharq.fading", "Substream")]
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, missing
    assert set(tracing.OBSERVERS) == set(OBSERVED_PARAMETERS)
    for module, attr, span in tracing.BINDINGS:
        if span in tracing.OBSERVERS:
            fn = getattr(importlib.import_module(module), attr)
            params = set(inspect.signature(fn).parameters)
            assert OBSERVED_PARAMETERS[span] <= params, (f"{module}.{attr}",
                                                         OBSERVED_PARAMETERS[span] - params)


def test_benchmark_tracer_and_setup_probe_run():
    """The benchmark's Tracer wraps every name in BINDINGS (it raises
    TraceError on a missing one), and its set-up probe runs on these
    sources."""
    load_tracing().Tracer()
    src = Path(coharq.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
