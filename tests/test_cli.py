import csv
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import coharq
from coharq.analytic import cdf_inr_sum
from coharq.cli import (CSV_HEADER, MAX_AXIS_POINTS, ResultRow, build_config, emit_csv,
                        main, optimize_rates, parse_axis, resolve_policy, run_preset)
from coharq.fading import ConfigurationError
from coharq.montecarlo import analytic_counterparts, estimate
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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    rows = sample_rows()
    emit_csv(rows, path)
    back = read_csv(path)
    assert len(back) == 2
    # every field, floats included, reads back as the value written
    assert {k: type(v)(back[0][k]) for k, v in asdict(rows[0]).items()} == asdict(rows[0])
    # NaN != NaN, so compare the second row fieldwise
    assert math.isnan(float(back[1]["mc_value"]))
    assert back[1]["metric"] == "throughput" and float(back[1]["analytic_value"]) == 1.5


def test_csv_header_fixed(tmp_path):
    path = tmp_path / "rows.csv"
    emit_csv([], path)
    assert path.read_text().strip() == ",".join(CSV_HEADER) == (
        "snr_db,scheme,policy,k,m,user,metric,mc_value,mc_ci95,analytic_value,trials,seed")


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
    for spec in ("0:1:inf", "-inf:1:0", "1:nan:3", "0:inf:10", "nan:1:3"):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_axis(spec)
    # the point count is bounded before any point is made
    assert len(parse_axis(f"0:1:{MAX_AXIS_POINTS - 1}")) == MAX_AXIS_POINTS
    for spec in (f"0:1:{MAX_AXIS_POINTS}", "0:1e-9:1", "-1e308:1:1e308"):
        with pytest.raises(ConfigurationError, match="points"):
            parse_axis(spec)


def test_resolve_policy():
    assert resolve_policy("coord", 2).kind is PolicyKind.ROUND_ROBIN_GENERAL
    assert resolve_policy("coord", 3).kind is PolicyKind.RANDOM_SPLIT_K3
    assert resolve_policy("coord", 5).kind is PolicyKind.ROUND_ROBIN_GENERAL
    assert resolve_policy("noncoord", 2).kind is PolicyKind.NON_COORDINATED
    assert resolve_policy("round-robin", 4).kind is PolicyKind.ROUND_ROBIN_GENERAL
    assert resolve_policy("random-split", 3).kind is PolicyKind.RANDOM_SPLIT_K3
    with pytest.raises(ConfigurationError):
        resolve_policy("psychic", 2)
    with pytest.raises(ConfigurationError):
        resolve_policy("random-split", 2)


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


def per_pair_optimum(cfg, pol, grid, n_trials, seed):
    """The rate search written out: one estimate per pair, ties to the
    smaller R_A + R_B."""
    best_pair, best_eta = None, -1.0
    for pair in grid:
        eta = estimate(replace(cfg, rates=pair), pol, n_trials, seed)["throughput"].point
        if eta > best_eta or (eta == best_eta and sum(pair) < sum(best_pair)):
            best_pair, best_eta = pair, eta
    return best_pair, best_eta


@pytest.mark.parametrize("scheme", ["rtd", "inr"])
@pytest.mark.parametrize("policy_name", ["coord", "noncoord"])
def test_optimize_monte_carlo_matches_per_pair_estimates(scheme, policy_name):
    cfg = build_config(scheme, 2, 2, (1.0, 2.0), (1.0, 1.0), 10.0, u=2, v=2)
    pol = resolve_policy(policy_name, 2)
    grid = [(ra, rb) for ra in (2.0, 4.0, 6.0) for rb in (3.0, 5.0)]
    assert optimize_rates(cfg, pol, grid, n_trials=2000, master_seed=SEED) == \
        per_pair_optimum(cfg, pol, grid, 2000, SEED)


def test_optimize_monte_carlo_ties_go_to_the_smaller_rate_sum():
    # at -20 dB no 2x2 MIMO user carries 10 nats in two copies: every pair
    # has throughput 0, and the smallest R_A + R_B, listed last, must win
    cfg = build_config("inr", 2, 2, (1.0, 1.0), (1.0, 1.0), -20.0, u=2, v=2)
    pol = resolve_policy("coord", 2)
    grid = [(ra, rb) for ra in (30.0, 20.0, 10.0) for rb in (30.0, 20.0, 10.0)]
    expected = per_pair_optimum(cfg, pol, grid, 2000, SEED)
    assert expected == ((10.0, 10.0), 0.0)
    assert optimize_rates(cfg, pol, grid, n_trials=2000, master_seed=SEED) == expected


# ---------------------------------------------------------------------------
# CLI entry point (exit codes, determinism)


def test_main_analytic_op(capsys):
    rc = main(["analytic", "--op", "diversity", "--helpers", "1", "--max-rounds", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("argv", [
    ["--op", "phi", "--rate-b", "709.7"],   # lambda * (e^R - 1) / P overflows a double
    ["--op", "phi", "--rate-b", "1000"],    # e^R itself overflows
    ["--op", "cdf-rtd", "--x", "720", "--power", "1e160"],
])
def test_main_analytic_past_float_range(argv, capsys):
    assert main(["analytic", *argv]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_main_analytic_cdf_inr_prints_the_closed_form(capsys):
    argv = ["--n", "2", "--m", "1", "--lambdas", "1,2.5", "--power", "3", "--x", "1.5"]
    assert main(["analytic", "--op", "cdf-inr", *argv]) == 0
    assert capsys.readouterr().out == f"{cdf_inr_sum(2, 1, (1.0, 2.5), 3.0, 1.5)}\n"


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


def assert_config_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: "), err
    return err


def test_main_missing_config_file_exit_2(tmp_path, capsys):
    err = assert_config_error(["run", "--config", str(tmp_path / "absent.ini"),
                               "--out", str(tmp_path / "x.csv")], capsys)
    assert "cannot read config file" in err
    assert not (tmp_path / "x.csv").exists()


def test_main_config_error_exit_2(tmp_path, capsys):
    ini = tmp_path / "split.ini"     # random split needs three users
    ini.write_text("[split]\npolicy = random-split\nk = 2\nsnr_db = 0\ntrials = 10\n")
    bare = tmp_path / "bare.ini"
    bare.write_text("scheme = rtd\nk = 2\n")   # no [section] line
    short = tmp_path / "short.ini"   # two values for three users
    short.write_text("[short]\nk = 3\nlambdas = 1,1\nrates = 1,1\nsnr_db = 0\ntrials = 10\n")
    typo = tmp_path / "typo.ini"     # a key that no sweep option matches
    typo.write_text("[typo]\nlamdas = 1,8\nsnr_db = 0\ntrials = 10\n")
    seeded = tmp_path / "seeded.ini"     # a seed past 64 bits
    seeded.write_text(f"[seeded]\nsnr_db = 0\ntrials = 10\nseed = {1 << 64}\n")
    for argv in (["run"],
                 ["sweep", "--policy", "psychic"],
                 ["sweep", "--snr-db", "10:0:20"],
                 ["sweep", "--lambdas", "nan,1"],
                 ["sweep", "--policy", "random-split"],
                 ["sweep", "--k", "3", "--lambdas", "1,1", "--rates", "1,1"],
                 # 2^17 table cells, past what the statistics count
                 ["sweep", "--k", "17", "--m", "1", "--trials", "10",
                  "--out", str(tmp_path / "x.csv")],
                 ["optimize", "--policy", "random-split"],
                 ["optimize", "--k", "3"],
                 # non-finite power and rates
                 ["sweep", "--snr-db", "inf", "--out", str(tmp_path / "x.csv")],
                 ["sweep", "--rates", "1,inf", "--out", str(tmp_path / "x.csv")],
                 ["optimize", "--grid", "1,inf"],
                 ["optimize", "--snr-db", "inf", "--tx", "2", "--rx", "2", "--grid", "1,2"],
                 ["optimize", "--snr-db", "nan"],
                 # non-finite axis bounds, and SNRs whose power overflows a float
                 ["sweep", "--snr-db", "0:1:inf", "--out", str(tmp_path / "x.csv")],
                 ["optimize", "--grid", "1:1:inf"],
                 ["optimize", "--grid", "1:nan:3"],
                 ["sweep", "--snr-db", "4000", "--out", str(tmp_path / "x.csv")],
                 ["optimize", "--snr-db", "4000"],
                 # axes of more than MAX_AXIS_POINTS points
                 ["sweep", "--snr-db", "0:1e-9:1", "--out", str(tmp_path / "x.csv")],
                 ["optimize", "--grid", "0:1e-6:8"],
                 ["run", "--config", str(ini), "--out", str(tmp_path / "x.csv")],
                 ["run", "--config", str(bare), "--out", str(tmp_path / "x.csv")],
                 ["run", "--config", str(short), "--out", str(tmp_path / "x.csv")],
                 ["run", "--config", str(typo), "--out", str(tmp_path / "x.csv")],
                 ["run", "--config", str(seeded), "--out", str(tmp_path / "x.csv")],
                 # master seeds outside [0, 2^64)
                 *([command, *flags, "--seed", seed, "--out", str(tmp_path / "x.csv")]
                   for seed in ("-1", str(1 << 64))
                   for command, *flags in (["sweep", "--trials", "10"],
                                           ["optimize", "--trials", "10"],
                                           ["run", "--preset", "fig2", "--trials", "10"]))):
        assert_config_error(argv, capsys)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", [
    ["sweep"], ["run", "--preset", "fig1a"], ["run", "--config", "CONFIG"]])
def test_main_unwritable_out_exit_2(command, tmp_path, capsys):
    ini = tmp_path / "runs.ini"
    ini.write_text("[small]\nsnr_db = 0\n")
    argv = [str(ini) if a == "CONFIG" else a for a in command]
    # --trials 0 would fail in the simulation: the path is refused before it
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        err = assert_config_error([*argv, "--trials", "0", "--out", str(out)], capsys)
        assert "cannot write" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.ini"]


def run_cli(argv, cwd):
    """Run the CLI in a new process, at most 10 s."""
    src = Path(coharq.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "coharq.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize("argv", [
    ["optimize", "--lambdas", "1e300,1", "--m", "2", "--snr-db", "0"],
    ["analytic", "--op", "cdf-rtd", "--n", "1", "--m", "1", "--lambdas", "1e300,1"],
    ["analytic", "--op", "cdf-inr", "--n", "1", "--m", "1", "--lambdas", "1e300,1"],
    ["optimize", "--scheme", "inr", "--lambdas", "1e5,1", "--m", "2", "--snr-db", "0"],
])
def test_extreme_fading_ratio_is_refused_in_time(argv, tmp_path):
    """A fading ratio whose RTD mixture would need more terms than the
    budget, or whose INR copies are too narrow for the convolution grid,
    ends in one config error line naming both fading parameters, not in a
    run that never ends or in a wrong value."""
    done = run_cli(argv, tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("config error: ")
    lam = float(argv[argv.index("--lambdas") + 1].split(",")[0])
    assert f" {lam:g} and 1 " in done.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scheme", ["rtd", "inr"])
def test_sweep_past_the_closed_forms_keeps_its_monte_carlo_half(scheme, tmp_path):
    """A point whose closed form is refused gets NaN analytic values, as a
    K >= 3 point does, and its Monte Carlo values, with no numpy warning."""
    done = run_cli(["sweep", "--scheme", scheme, "--lambdas", "1e300,1", "--m", "2",
                    "--snr-db", "0", "--trials", "1000", "--out", "sweep.csv"], tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows and all(math.isfinite(float(r["mc_value"])) for r in rows)
    assert all(math.isnan(float(r["analytic_value"])) for r in rows)


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
    rows = read_csv(out1)
    assert len(rows) > 0
    metrics = {r["metric"] for r in rows}
    assert {"outage_user0", "outage_user1", "throughput", "gamma"} <= metrics


def test_main_sweep_names_users_by_letter(tmp_path):
    for k, m in ((9, 2), (11, 1)):
        out = tmp_path / f"k{k}.csv"
        assert main(["sweep", "--k", str(k), "--m", str(m), "--policy", "noncoord",
                     "--snr-db", "0", "--trials", "100", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert {r["user"] for r in rows} == {"", *"ABCDEFGHIJK"[:k]}
        for r in rows:
            if r["metric"].startswith("outage_"):
                assert r["user"] == "ABCDEFGHIJK"[int(r["metric"].rpartition("user")[2])]
    assert {r["user"] for r in rows if r["metric"] == "outage_user10"} == {"K"}


def test_main_optimize_runs(capsys):
    rc = main(["optimize", "--grid", "0.5,1.0", "--snr-db", "5",
               "--trials", "1000", "--seed", "1"])
    assert rc == 0
    assert "best rates" in capsys.readouterr().out


def test_main_optimize_jobs_do_not_change_the_result(capsys):
    argv = ["optimize", "--tx", "2", "--rx", "2", "--grid", "2,4", "--snr-db", "10",
            "--trials", "2000", "--seed", "3"]
    lines = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0].startswith("best rates") and lines[0] == lines[1]


def test_main_config_file(tmp_path, capsys):
    ini = tmp_path / "runs.ini"
    ini.write_text(
        "[small]\nscheme = rtd\npolicy = coord\nk = 2\nm = 2\n"
        "snr_db = 0:5:10\ntrials = 5000\nseed = 7\n")
    out = tmp_path / "res.csv"
    rc = main(["run", "--config", str(ini), "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows and all(r["seed"] == "7" for r in rows)


def test_run_preset_unknown():
    with pytest.raises(ConfigurationError):
        run_preset("fig99", 100, 1, "/tmp/x.csv")


def run_preset_main(name, tmp_path, capsys):
    """`coharq run --preset name` at 2000 trials: its CSV rows, checked for
    the header and the row count main reports."""
    out = tmp_path / f"{name}.csv"
    assert main(["run", "--preset", name, "--trials", "2000", "--seed", str(SEED),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == ",".join(CSV_HEADER)
    rows = read_csv(out)
    assert capsys.readouterr().out == f"wrote {len(rows)} rows to {out}\n"
    return rows


def finite(row, *fields):
    return all(math.isfinite(float(row[f])) for f in fields)


def test_preset_fig1a_small(tmp_path, capsys):
    rows = run_preset_main("fig1a", tmp_path, capsys)
    # 16 SNR points x (M = 2, 3) x (coord, noncoord): gamma and per-slot
    # and per-packet outage of both users, each with its closed form
    assert len(rows) == 16 * 2 * 2 * 5
    assert all(finite(r, "mc_value", "mc_ci95", "analytic_value") for r in rows)


def test_preset_fig1b_small(tmp_path, capsys):
    rows = run_preset_main("fig1b", tmp_path, capsys)
    assert len(rows) == 4 * 2 * 2
    for r in rows:
        assert finite(r, "mc_value", "mc_ci95", "analytic_value")
        lam2 = float(r["metric"].removeprefix("fairness_lambda2="))
        cfg = build_config(r["scheme"], 2, 2, (1.0, lam2), (1.0, 1.0), 10.0)
        ana = analytic_counterparts(cfg, resolve_policy(r["policy"], 2))
        assert float(r["analytic_value"]) == ana["fairness"]


def test_preset_fig1c_small(tmp_path, capsys):
    rows = run_preset_main("fig1c", tmp_path, capsys)
    # 11 SNR points x 4 setups: SISO throughput and rate sum, 2x2 MIMO
    assert len(rows) == 11 * 4 * 3
    rates = [0.5 * i for i in range(1, 17)]
    grid = [(ra, rb) for ra in rates for rb in rates]
    checked = 0
    for r in rows:
        siso = r["metric"] != "throughput_optimized_mimo2x2"
        assert finite(r, "analytic_value" if siso else "mc_value")
        if siso and r["snr_db"] == "9.0":
            cfg = build_config(r["scheme"], 2, 2, (1.0, 1.0), (1.0, 1.0), 9.0)
            pair, eta = optimize_rates(cfg, resolve_policy(r["policy"], 2), grid)
            want = eta if r["metric"] == "throughput_optimized" else sum(pair)
            assert float(r["analytic_value"]) == want
            checked += 1
    assert checked == 4 * 2


def test_preset_fig2_small(tmp_path):
    out = tmp_path / "fig2.csv"
    rows = run_preset("fig2", 2000, SEED, out)
    back = read_csv(out)
    assert len(back) == len(rows)
    assert all(r["k"] == "3" for r in back)
    assert {r["policy"] for r in back} == {"coord", "noncoord"}
