import math

import pytest

from coharq.cli import (CSV_HEADER, ResultRow, build_config, default_rate_grid,
                        emit_csv, main, optimize_rates, parse_axis, parse_csv,
                        resolve_policy, run_preset)
from coharq.fading import ConfigurationError
from coharq.protocol import PolicyKind
from coharq.rates import Scheme

SEED = 20260826


# ---------------------------------------------------------------------------
# CSV round trip


def sample_rows():
    return [
        ResultRow(snr_db=10.0, scheme="rtd", policy="coord", k=2, m=2, user="A",
                  metric="outage", mc_value=0.0123456789012345, mc_ci95=1.2e-4,
                  analytic_value=0.0123, trials=1_000_000, seed=SEED),
        ResultRow(snr_db=0.0, scheme="inr", policy="noncoord", k=3, m=2, user="",
                  metric="throughput", mc_value=float("nan"), mc_ci95=0.0,
                  analytic_value=1.5, trials=0, seed=1),
    ]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    rows = sample_rows()
    emit_csv(rows, path)
    back = parse_csv(path)
    assert len(back) == 2
    assert back[0] == rows[0]
    # NaN != NaN, so compare the second row fieldwise
    assert math.isnan(back[1].mc_value)
    assert back[1].metric == "throughput" and back[1].analytic_value == 1.5


def test_csv_header_fixed(tmp_path):
    path = tmp_path / "rows.csv"
    emit_csv([], path)
    assert path.read_text().strip() == ",".join(CSV_HEADER)
    bad = tmp_path / "bad.csv"
    bad.write_text("snr_db,who,knows\n")
    with pytest.raises(ConfigurationError):
        parse_csv(bad)


# ---------------------------------------------------------------------------
# axis and policy parsing


def test_parse_axis():
    assert parse_axis("0:2:6") == [0.0, 2.0, 4.0, 6.0]
    assert parse_axis("1,2.5,7") == [1.0, 2.5, 7.0]
    assert parse_axis("5:5:5") == [5.0]
    with pytest.raises(ConfigurationError):
        parse_axis("0:-1:10")
    with pytest.raises(ConfigurationError):
        parse_axis("0:1:10:3")


def test_resolve_policy():
    assert resolve_policy("coord", 2).kind is PolicyKind.FULL_COORDINATION_K2
    assert resolve_policy("coord", 3).kind is PolicyKind.RANDOM_SPLIT_K3
    assert resolve_policy("coord", 5).kind is PolicyKind.ROUND_ROBIN_GENERAL
    assert resolve_policy("noncoord", 2).kind is PolicyKind.NON_COORDINATED
    assert resolve_policy("round-robin", 4).kind is PolicyKind.ROUND_ROBIN_GENERAL
    with pytest.raises(ConfigurationError):
        resolve_policy("psychic", 2)


def test_build_config():
    cfg = build_config("inr", 2, 3, (1.0, 2.0), (0.5, 0.7), 10.0, u=2, v=2)
    assert cfg.scheme is Scheme.INR
    assert cfg.max_rounds == 3
    assert cfg.power == pytest.approx(10.0)
    assert cfg.profile.tx_antennas == 2


# ---------------------------------------------------------------------------
# rate optimization


def test_optimize_single_pair():
    cfg = build_config("rtd", 2, 2, (1.0, 1.0), (1.0, 1.0), 10.0)
    pol = resolve_policy("coord", 2)
    pair, eta = optimize_rates(cfg, pol, [(1.0, 1.0)])
    assert pair == (1.0, 1.0)
    assert eta > 0


def test_optimize_low_power_prefers_low_rates():
    # at vanishing SNR every transmission fails unless the rate is tiny
    cfg = build_config("rtd", 2, 2, (1.0, 1.0), (1.0, 1.0), -30.0)
    pol = resolve_policy("coord", 2)
    grid = [(ra, rb) for ra in (0.1, 1.0, 5.0) for rb in (0.1, 1.0, 5.0)]
    pair, _ = optimize_rates(cfg, pol, grid)
    assert pair == (0.1, 0.1)


def test_optimize_symmetric_setup_symmetric_optimum():
    cfg = build_config("inr", 2, 2, (1.0, 1.0), (1.0, 1.0), 10.0)
    pol = resolve_policy("coord", 2)
    vals = [0.5 * i for i in range(1, 9)]
    grid = [(ra, rb) for ra in vals for rb in vals]
    pair, eta = optimize_rates(cfg, pol, grid)
    assert pair[0] == pair[1]
    assert eta > 1.0


def test_default_rate_grid():
    grid = default_rate_grid(step=0.5, stop=2.0)
    flat = sorted({r for pair in grid for r in pair})
    assert flat == [0.5, 1.0, 1.5, 2.0]
    assert len(grid) == 16


# ---------------------------------------------------------------------------
# CLI entry point (exit codes, determinism)


def test_main_analytic_op(capsys):
    rc = main(["analytic", "--op", "diversity", "--helpers", "1", "--max-rounds", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "3"


def test_main_analytic_events_golden(capsys):
    # defaults: RTD, M = 2, lambdas (1, 2), P = 1, R_A = R_B = 1
    assert main(["analytic", "--op", "events"]) == 0
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines()]
    assert lines == [
        ["A1B1", "0.005771371767537498"],
        ["A1B2", "0.08578106694967721"],
        ["A1Bout", "0.08782164001680262"],
        ["A2B1", "0.01509754919317853"],
        ["A2B2", "0.034079863047398254"],
        ["A2Bout", "0.2642185137044043"],
        ["AoutB1", "0.01130613916096134"],
        ["AoutB2", "0.05665809275903031"],
        ["AoutBout", "0.4392657634010099"],
        ["gamma", "0.5014470185829828"],
    ]


@pytest.mark.parametrize("argv", [
    ["--op", "events", "--max-rounds", "0"],
    ["--op", "events", "--lambdas", "1"],
    ["--op", "events", "--power", "0"],
    ["--op", "events", "--rate-b", "-1"],
    ["--op", "cdf-rtd", "--power", "0"],
    ["--op", "cdf-rtd", "--lambdas", "0,1"],
    ["--op", "cdf-inr", "--lambdas", "1,0"],
    ["--op", "cdf-rtd", "--lambdas", "nan,1"],
    ["--op", "events", "--lambdas", "inf,1"],
    ["--op", "cdf-rtd", "--x", "nan"],
    ["--op", "cdf-rtd", "--x", "inf"],
    ["--op", "cdf-inr", "--x", "inf"],
    ["--op", "events", "--rate-a", "nan"],
    ["--op", "events", "--rate-a", "inf"],
    ["--op", "events", "--power", "inf"],
])
def test_main_analytic_bad_input_exit_2(argv, capsys):
    assert main(["analytic", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("config error: ")


def test_main_config_error_exit_2(capsys):
    assert main(["run"]) == 2
    assert main(["sweep", "--policy", "psychic"]) == 2
    assert main(["sweep", "--snr-db", "10:0:20"]) == 2
    assert main(["sweep", "--lambdas", "nan,1"]) == 2


def test_main_zero_trials_exit_2(capsys):
    assert main(["sweep", "--trials", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n_trials must be at least 1" in err


def test_main_sweep_and_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--scheme", "inr", "--snr-db", "0:5:10",
            "--trials", "20000", "--seed", str(SEED)]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    rows = parse_csv(out1)
    assert len(rows) > 0
    metrics = {r.metric for r in rows}
    assert {"outage_user0", "outage_user1", "throughput", "gamma"} <= metrics


def test_main_optimize_runs(capsys):
    rc = main(["optimize", "--grid", "0.5,1.0", "--snr-db", "5",
               "--trials", "1000", "--seed", "1"])
    assert rc == 0
    assert "best rates" in capsys.readouterr().out


def test_main_config_file(tmp_path, capsys):
    ini = tmp_path / "runs.ini"
    ini.write_text(
        "[small]\nscheme = rtd\npolicy = coord\nk = 2\nm = 2\n"
        "snr_db = 0:5:10\ntrials = 5000\nseed = 7\n")
    out = tmp_path / "res.csv"
    rc = main(["run", "--config", str(ini), "--out", str(out)])
    assert rc == 0
    rows = parse_csv(out)
    assert rows and all(r.seed == 7 for r in rows)


def test_run_preset_unknown():
    with pytest.raises(ConfigurationError):
        run_preset("fig99", 100, 1, "/tmp/x.csv")


def test_preset_fig2_small(tmp_path):
    out = tmp_path / "fig2.csv"
    rows = run_preset("fig2", 2000, SEED, out)
    back = parse_csv(out)
    assert len(back) == len(rows)
    assert all(r.k == 3 for r in back)
    assert {r.policy for r in back} == {"coord", "noncoord"}
