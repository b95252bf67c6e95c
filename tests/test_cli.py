"""Command-line interface: dispatch, run specs, artifacts, determinism."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from invsq import classical
from invsq.cli import COMMANDS, main

G_PLUS_316 = 0.7135701978897408
G_MINUS_316 = 1.9411429858956074


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1]) if out else {}
    return code, out, payload


def json_lines(lines):
    found = []
    for line in lines:
        try:
            found.append(json.loads(line))
        except ValueError:
            pass
    return found


def assert_refused(result, detail=""):
    """Exit 2 with one JSON validation-error line whose detail contains detail."""
    code, lines, payload = result
    assert code == 2 and len(lines) == 1
    assert payload["error"] == "validation" and detail in payload["detail"]


def run_spec(spec, path, capsys):
    path.write_text(json.dumps(spec))
    return run_cli(["--spec", str(path)], capsys)


def test_fixed_points_json(capsys):
    code, out, payload = run_cli(["fixed-points", "--alpha", "-0.1875"], capsys)
    assert code == 0
    assert payload["g_plus"] == pytest.approx(G_PLUS_316, abs=5e-4)
    assert payload["g_minus"] == pytest.approx(G_MINUS_316, abs=5e-4)


def test_bound_state_none_and_value(capsys):
    code, _, payload = run_cli(["bound-state", "--alpha", "-0.1875", "--g", "1.0"], capsys)
    assert code == 0 and payload["bound"] is None
    code, _, payload = run_cli(["bound-state", "--alpha", "-0.1875", "--g", "4.0"], capsys)
    assert code == 0
    assert payload["bound"]["energy"] < 0.0


def test_bound_state_of_a_linear_well_has_no_amplitudes(capsys):
    from invsq import spectrum
    from invsq.core import derived_constants, linear_well
    code, lines, payload = run_cli(["bound-state", "--alpha", "-0.1875", "--scheme", "linear",
                                    "--g", "3"], capsys)
    assert code == 0 and len(json_lines(lines)) == 1
    st = spectrum.bound_state(derived_constants(-0.1875), linear_well(3.0))
    assert payload["bound"] == {"energy": st.energy, "xi": st.xi,
                                "A": None, "C": None, "norm": None}


def test_bound_state_sweep_csv(tmp_path, capsys):
    from invsq import spectrum
    from invsq.core import ModelParams, square_well
    p = ModelParams(-0.1875)
    code, _, payload = run_cli(["bound-state", "--alpha", "-0.1875", "--g-list",
                                "1.0,2.5,4.0", "--out", str(tmp_path)], capsys)
    assert code == 0 and payload["rows"] == 3
    rows = [l.split(",") for l in (tmp_path / "bound_state_sweep.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0][-1] == "mean_x (length)" and len(rows) == 4
    assert rows[1][3:] == ["1", "nan", "nan", "nan"]  # 1.0 is below g_- = 1.9411
    for row, g in zip(rows[2:], (2.5, 4.0)):
        assert float(row[4]) == spectrum.bound_state(p, square_well(g)).energy
        assert float(row[6]) == spectrum.mean_position(p, square_well(g))


def test_phase_curve_csv(tmp_path, capsys):
    from invsq import scattering
    from invsq.core import ModelParams
    code, _, payload = run_cli(["phase-curve", "--alpha", "-0.1875", "--mu0", "0.5",
                                "--g0", "1.2", "--mu1", "1e-6", "--out", str(tmp_path)], capsys)
    curve = scattering.constant_phase_curve(ModelParams(-0.1875), 0.5, 1.2, 1e-6)
    assert code == 0 and payload["rows"] == len(curve) == 128
    assert payload["g_end"] == curve[-1][1]
    rows = [l for l in (tmp_path / "phase_curve.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 129


@pytest.mark.parametrize("argv, name", [
    ("exponent --alpha -0.1875 --n-points 3", "exponent_squarewell.csv"),
    ("propagator --alpha -0.1875 --g 1.0 --x 1.2 --y 1.5 --t 1", "propagator.csv"),
    ("contours --alpha -0.1875 --n-xi 2", "contours.csv")])
def test_every_csv_is_named_in_the_summary_and_the_payload(argv, name, tmp_path, capsys):
    code, lines, payload = run_cli(argv.split() + ["--out", str(tmp_path)], capsys)
    assert code == 0 and payload["path"] == str(tmp_path / name)
    assert lines[0].endswith(f" -> {tmp_path / name}")
    assert (tmp_path / name).read_text().startswith("# tool = invsq ")


def test_an_out_that_is_a_file_exits_4(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    code, lines, payload = run_cli(["contours", "--alpha", "-0.1875", "--n-xi", "2",
                                    "--out", str(tmp_path / "taken")], capsys)
    assert code == 4 and len(lines) == 1 and payload["error"] == "io"
    assert (tmp_path / "taken").read_text() == ""


def test_contours_csv(tmp_path, capsys):
    code, _, payload = run_cli(["contours", "--alpha", "-0.1875", "--ratios", "1,2",
                                "--n-xi", "8", "--out", str(tmp_path)], capsys)
    assert code == 0
    text = (tmp_path / "contours.csv").read_text()
    assert text.startswith("#")
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header.split(",")[0].startswith("xi")


def test_flow_csv(tmp_path, capsys):
    code, _, _ = run_cli(["flow", "--alpha", "-0.1875", "--gamma0", "0.5",
                          "--b1", "0.01", "--steps", "5", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = [l for l in (tmp_path / "flow.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 6  # header + 5 points


def test_scaling_check_exact(capsys):
    code, _, payload = run_cli(["scaling-check", "--alpha", "-0.1875", "--law", "exact",
                                "--g", "1.0", "--b", "0.1", "--lam", "2.0"], capsys)
    assert code == 0
    assert payload["residual"] < 1e-6


@pytest.mark.parametrize("law, args", [
    ("asymptotic", ["--scheme", "linear", "--b", "0.01", "--u", "0.001"]),
    ("callan-symanzik", ["--scheme", "linear", "--g", "5"]),
    ("scaling", ["--g", "1.0"]),
    ("asymptotic", ["--profile", "profile.json"])])
def test_scaling_check_refuses_a_regulator_its_law_ignores(law, args, tmp_path, capsys):
    # the (b, u) laws build square wells from --u; a scheme, depth or profile would be ignored
    assert_refused(run_cli(["scaling-check", "--alpha", "-0.1875", "--law", law]
                           + args, capsys), law)
    spec = {"command": "scaling-check", "alpha": -0.1875, "law": law, "g": 1.0, "b": 0.01}
    assert_refused(run_spec(spec, tmp_path / "spec.json", capsys), law)


@pytest.mark.parametrize("law, args, field", [
    ("exact", ["--g", "1.0", "--b", "0.1", "--u", "0.5"], ("u", 0.5)),
    ("exact", ["--g", "1.0", "--b", "0.1", "--sign", "-1"], ("sign", -1)),
    ("callan-symanzik", ["--b", "0.01", "--lam", "3"], ("lam", 3.0))])
def test_scaling_check_refuses_a_flag_its_law_ignores(law, args, field, tmp_path, capsys):
    # the exact law reads neither --u nor --sign, callan-symanzik no --lam
    assert_refused(run_cli(["scaling-check", "--alpha", "-0.1875", "--law", law]
                           + args, capsys), field[0])
    spec = {"command": "scaling-check", "alpha": -0.1875, "law": law, "b": 0.1,
            field[0]: field[1]}
    if law == "exact":
        spec["g"] = 1.0
    assert_refused(run_spec(spec, tmp_path / "spec.json", capsys))


@pytest.mark.parametrize("law, defaults", [
    ("asymptotic", ["--u", "1e-3", "--sign", "1", "--lam", "2"]),
    ("callan-symanzik", ["--u", "1e-3", "--sign", "1"]),
    ("exact", ["--g", "1.0", "--lam", "2"])])
def test_scaling_check_defaults_are_the_flags_values(law, defaults, capsys):
    base = ["scaling-check", "--alpha", "-0.1875", "--law", law, "--b", "0.01"]
    code, _, implied = run_cli(base + (["--g", "1.0"] if law == "exact" else []), capsys)
    assert code == 0
    code, _, explicit = run_cli(base + defaults, capsys)
    assert code == 0 and explicit["residual"] == implied["residual"]


def test_phase_shift_csv(tmp_path, capsys):
    code, _, _ = run_cli(["phase-shift", "--alpha", "-0.1875", "--g", "1.0",
                          "--n-k", "5", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "phase_shift.csv").exists()


def test_phase_shift_solves_the_sweep_once(tmp_path, capsys, monkeypatch):
    from invsq import scattering
    calls = []
    orig = scattering.spectral_coefficients

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(scattering, "spectral_coefficients", counted)
    code, _, payload = run_cli(["phase-shift", "--alpha", "-0.1875", "--g", "1.0",
                                "--n-k", "50", "--out", str(tmp_path)], capsys)
    assert code == 0 and payload["rows"] == 50
    assert len(calls) == 1


@pytest.mark.parametrize("n_xi", [0, 1])
def test_contours_with_no_or_one_xi(n_xi, tmp_path, capsys):
    # --n-xi is a count: no xi is refused before any CSV is written
    result = run_cli(["contours", "--alpha", "-0.1875", "--n-xi", str(n_xi),
                      "--out", str(tmp_path)], capsys)
    if n_xi == 0:
        assert_refused(result, "--n-xi")
        assert not any(tmp_path.iterdir())
    else:
        code, _, payload = result
        assert code == 0 and payload["rows"] == n_xi


def test_phase_curve_leaving_the_branch_exits_2(tmp_path, capsys):
    assert_refused(run_cli(["phase-curve", "--alpha", "-0.1875", "--mu0", "0.5",
                            "--g0", "0.5", "--mu1", "1e-6", "--out", str(tmp_path)],
                           capsys), "first branch")
    assert not (tmp_path / "phase_curve.csv").exists()


def test_phase_shift_reads_the_regulator(tmp_path, capsys):
    deltas = {}
    for scheme in ("square", "linear"):
        code, _, _ = run_cli(["phase-shift", "--alpha", "-0.1875", "--scheme", scheme,
                              "--g", "1.5", "--k-min", "0.5", "--k-max", "0.5", "--n-k", "1",
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        deltas[scheme] = (tmp_path / "phase_shift.csv").read_text().splitlines()[-1]
    assert deltas["square"].endswith(",0.74995752918282999")
    assert deltas["linear"].split(",")[-1] != deltas["square"].split(",")[-1]


def test_propagator_on_the_linear_well_between_its_fixed_points(tmp_path, capsys):
    # g = 2.0 is above the square well's g_- but below the linear well's 2.698969
    code, _, payload = run_cli(["propagator", "--alpha", "-0.1875", "--scheme", "linear",
                                "--g", "2.0", "--x", "1.2", "--y", "1.5", "--t", "1",
                                "--out", str(tmp_path)], capsys)
    assert code == 0
    assert payload["G"] == pytest.approx(0.337489, abs=5e-7)
    row = (tmp_path / "propagator.csv").read_text().splitlines()[-1].split(",")
    assert int(row[1]) == -1 and float(row[3]) == pytest.approx(0.698969, abs=5e-7)


def test_scaling_check_exact_on_the_linear_well(capsys):
    code, _, payload = run_cli(["scaling-check", "--alpha", "-0.1875", "--law", "exact",
                                "--scheme", "linear", "--g", "1.0", "--b", "0.1"], capsys)
    assert code == 0
    assert payload["residual"] <= 1e-6


def test_propagator_above_g_minus_exits_2(tmp_path, capsys):
    assert_refused(run_cli(["propagator", "--alpha", "-0.1875", "--g", "2.4411",
                            "--b", "0.5", "--x", "1.2", "--y", "0.9", "--t", "1",
                            "--out", str(tmp_path)], capsys), "g_minus")
    assert not (tmp_path / "propagator.csv").exists()


CHAIN_ARGS = ["chain", "--alpha", "-0.1875", "--g", "2.5", "--eps-list", "0.05,0.025"]


def test_chain_reports_eigen_diagnostics(tmp_path, capsys):
    code, _, payload = run_cli(CHAIN_ARGS + ["--out", str(tmp_path)], capsys)
    assert code == 0
    diag = payload["diagnostics"]
    assert len(diag["eigen_iterations"]) == 2
    assert all(type(k) is int and 0 < k < 60 for k in diag["eigen_iterations"])
    assert 0.0 < diag["eigen_residual"] <= 1e-12
    head = [l for l in (tmp_path / "chain.csv").read_text().splitlines() if l.startswith("#")]
    assert f"# eigen_iterations = {' '.join(map(str, diag['eigen_iterations']))}" in head
    assert f"# eigen_residual = {diag['eigen_residual']:.17g}" in head


def _two_iterations(orig):
    return 2


def _nan_halfweight(orig):
    def init(self, *args, **kw):
        orig(self, *args, **kw)
        self.halfweight[7] = float("nan")
    return init


@pytest.mark.parametrize("owner, name, broken", [
    (classical, "EIGEN_MAX_ITER", _two_iterations),
    (classical.TransferOperator, "__init__", _nan_halfweight)])
def test_chain_eigen_failure_exits_3(owner, name, broken, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    code, lines, payload = run_cli(CHAIN_ARGS + ["--out", str(tmp_path)], capsys)
    assert code == 3 and len(lines) == 1
    assert payload["error"] == "numerical" and "eigen-solve" in payload["detail"]
    assert not (tmp_path / "chain.csv").exists()


def test_chain_at_a_short_cut_matches_the_bound_state(tmp_path, capsys):
    # the default ladder is in units of (b x0)^2, so b = 0.35 lands where b = 1
    # does (f/E0 - 1 = +3.6e-3)
    code, _, payload = run_cli(["chain", "--alpha", "-0.1875", "--g", "2.2", "--b", "0.35",
                                "--out", str(tmp_path)], capsys)
    assert code == 0
    assert payload["f"] / payload["E0"] == pytest.approx(1.0, abs=5e-3)


def test_chain_unresolved_grid_exits_3(tmp_path, capsys):
    code, lines, payload = run_cli(["chain", "--alpha", "-0.1875", "--g",
                                    repr(G_MINUS_316 + 1e-6), "--out", str(tmp_path)], capsys)
    assert code == 3 and len(lines) == 1
    assert payload["error"] == "numerical" and "grid unresolved" in payload["detail"]
    assert not (tmp_path / "chain.csv").exists()


def test_propagator_unconverged_quadrature_exits_3(tmp_path, capsys):
    code, lines, payload = run_cli(["propagator", "--alpha", "-0.1875", "--g", "1.0", "--b", "0.1",
                                    "--x", "1", "--y", "1", "--t", "1", "--rtol", "1e-16",
                                    "--out", str(tmp_path)], capsys)
    assert code == 3 and len(lines) == 1
    assert payload["error"] == "numerical" and "propagator quadrature" in payload["detail"]
    assert not (tmp_path / "propagator.csv").exists()


FK_ARGS = ["feynman-kac", "--alpha", "-0.1875", "--x", "1", "--y", "1", "--t", "4"]
FK_ARGS_NO_ALPHA = ["feynman-kac", "--x", "1", "--y", "1", "--t", "4"]


def test_feynman_kac_reports_weight_diagnostics(tmp_path, capsys):
    code, _, payload = run_cli(FK_ARGS + ["--g", repr(G_PLUS_316), "--b", "0.05",
                                          "--n-steps", "256", "--n-samples", "5000",
                                          "--out", str(tmp_path)], capsys)
    assert code == 0
    diag = payload["diagnostics"]
    assert 0.0 < diag["ess_fraction"] <= 1.0
    assert 1.0 / 5000 <= diag["max_weight_share"] < 1.0
    head = [l for l in (tmp_path / "feynman_kac.csv").read_text().splitlines()
            if l.startswith("#")]
    assert f"# ess_fraction = {diag['ess_fraction']:.17g}" in head
    assert f"# max_weight_share = {diag['max_weight_share']:.17g}" in head


@pytest.mark.parametrize("threads", ["1", "2"])
def test_feynman_kac_rejects_non_square_wells_before_drawing(threads, monkeypatch,
                                                             tmp_path, capsys):
    def no_draws(*args):
        raise AssertionError("paths drawn before the regulator was checked")

    monkeypatch.setattr(classical, "_chunk_weights", no_draws)
    assert_refused(run_cli(FK_ARGS + ["--scheme", "linear", "--g", "1",
                                      "--threads", threads, "--out", str(tmp_path)],
                           capsys), "common width")


def test_feynman_kac_non_finite_estimate_exits_3(tmp_path, capsys):
    # a well this deep overflows the link kernel: one JSON error line, not "stderr": NaN
    code, lines, payload = run_cli(FK_ARGS + ["--g", "9.0", "--b", "0.05", "--n-steps", "3",
                                              "--n-samples", "5000", "--seed", "1",
                                              "--out", str(tmp_path)], capsys)
    assert code == 3 and len(lines) == 1
    assert payload["error"] == "numerical" and "not finite" in payload["detail"]
    assert not (tmp_path / "feynman_kac.csv").exists()


@pytest.mark.parametrize("bad", [["--seed", "-1"], ["--seed", str(1 << 64)],
                                 ["--n-steps", "16.5"], ["--n-samples", "10.5"]])
def test_feynman_kac_refuses_an_aliasing_seed_or_fractional_count(bad, tmp_path, capsys):
    assert_refused(run_cli(FK_ARGS + ["--g", "1.0", "--out", str(tmp_path)] + bad, capsys))


def test_feynman_kac_has_no_free_mode(tmp_path, capsys):
    # the free mode's weights were ones by construction: it checked nothing
    assert_refused(run_cli(FK_ARGS + ["--g", "1.0", "--mode", "free", "--out", str(tmp_path)],
                           capsys), "--mode")
    assert not (tmp_path / "feynman_kac.csv").exists()


@pytest.mark.parametrize("well", [["--g", "1.0"], ["--profile", "p.json"],
                                  ["--scheme", "linear"], ["--b", "0.05"]])
def test_feynman_kac_barrier_mode_refuses_well_flags(well, tmp_path, capsys):
    # barrier mode weighs by absorption alone, so a well it would ignore is refused
    assert_refused(run_cli(FK_ARGS + ["--mode", "barrier", "--out", str(tmp_path)] + well,
                           capsys), "barrier mode has no well")
    assert not (tmp_path / "feynman_kac.csv").exists()


def test_feynman_kac_barrier_mode_passes_no_regulator(monkeypatch, tmp_path, capsys):
    seen = []
    batch = classical.feynman_kac_batch

    def spy(params, regs, *args, **kwargs):
        seen.append(list(regs))
        return batch(params, regs, *args, **kwargs)

    monkeypatch.setattr(classical, "feynman_kac_batch", spy)
    code, _, payload = run_cli(FK_ARGS + ["--mode", "barrier", "--n-samples", "5000",
                                          "--out", str(tmp_path)], capsys)
    assert code == 0 and seen == [[]]
    assert 0.0 < payload["W"]


def test_feynman_kac_regulated_mode_needs_alpha(tmp_path, capsys):
    assert_refused(run_cli(FK_ARGS_NO_ALPHA + ["--g", "1.0", "--out", str(tmp_path)], capsys),
                   "--alpha")
    assert not (tmp_path / "feynman_kac.csv").exists()


def test_feynman_kac_barrier_mode_runs_without_alpha(tmp_path, capsys):
    # absorption alone does not depend on alpha: with or without it, the same W
    runs = [run_cli(args + ["--mode", "barrier", "--n-samples", "5000", "--out", str(tmp_path)],
                    capsys) for args in (FK_ARGS_NO_ALPHA, FK_ARGS)]
    assert [code for code, _, _ in runs] == [0, 0]
    assert runs[0][2]["W"] == runs[1][2]["W"] > 0.0


def test_feynman_kac_regulated_mode_needs_a_depth(tmp_path, capsys):
    assert_refused(run_cli(FK_ARGS + ["--out", str(tmp_path)], capsys), "--g")
    assert not (tmp_path / "feynman_kac.csv").exists()


@pytest.mark.parametrize("steps, links", [([], 16), (["--n-steps", "5"], 5),
                                          (["--n-steps", "4096"], 16)])
def test_feynman_kac_csv_records_the_links_drawn(steps, links, tmp_path, capsys):
    code, _, _ = run_cli(FK_ARGS + ["--mode", "barrier", "--n-samples", "100",
                                    "--out", str(tmp_path)] + steps, capsys)
    assert code == 0
    lines = (tmp_path / "feynman_kac.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")]
    row = dict(zip(header[0].split(","), header[1].split(",")))
    assert row["N"] == str(links)


def test_limit_cycle(tmp_path, capsys):
    code, _, payload = run_cli(["limit-cycle", "--alpha", "-0.30", "--eps", "1e-6",
                                "--out", str(tmp_path)], capsys)
    assert code == 0
    assert len(payload["roots"]) >= 1
    assert (tmp_path / "limit_cycle.csv").exists()


@pytest.mark.parametrize("args, detail", [
    (["limit-cycle", "--alpha", "-0.3", "--eps", "1e-6", "--n-periods", "0"], "n-periods"),
    (["limit-cycle", "--alpha", "-0.3", "--eps", "1e-6", "--n-periods", "-2"], "n-periods"),
    (["exponent", "--alpha", "-0.1875", "--b", "0.5", "--n-points", "1"], "2 points"),
    (["exponent", "--alpha", "-0.1875", "--n-points", "1"], "2 points"),
    (["collapse", "--alpha", "-0.1875", "--n-b", "1", "--n-u", "3"], "4 points"),
    (["collapse", "--alpha", "-0.1875", "--n-b", "3", "--n-u", "1"], "4 points"),
    (["collapse", "--alpha", "-0.1875", "--n-b", "1", "--n-u", "1"], "4 points"),
    (["flow", "--alpha", "-0.1875", "--gamma0", "0.1", "--b1", "0.5", "--steps", "0"], "--steps"),
    (["flow", "--alpha", "-0.1875", "--gamma0", "0.1", "--b1", "0.5", "--steps", "-3"], "--steps"),
    (["phase-shift", "--alpha", "-0.1875", "--g", "1.0", "--n-k", "0"], "--n-k")])
def test_too_few_points_or_periods_exit_2(args, detail, tmp_path, capsys):
    # one exponent point fits no line, and the collapse fits 4 parameters; a count
    # flag below 1 used to write one flow row or an empty CSV (zero exponent points
    # or collapse depths are refused by name, below)
    assert_refused(run_cli(args + ["--out", str(tmp_path)], capsys), detail)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, flag, value", [
    (["contours", "--alpha", "-0.1875", "--n-xi", "3"], "--xi-min", "-1"),
    (["contours", "--alpha", "-0.1875", "--n-xi", "3"], "--xi-max", "0"),
    (["phase-shift", "--alpha", "-0.1875", "--g", "1.0", "--n-k", "3"], "--k-min", "0"),
    (["phase-shift", "--alpha", "-0.1875", "--g", "1.0", "--n-k", "3"], "--k-max", "-1"),
    (["flow", "--alpha", "-0.1875", "--gamma0", "0.1", "--b1", "0.5", "--steps", "2"],
     "--b0", "-1"),
    (["flow", "--alpha", "-0.1875", "--gamma0", "0.1", "--steps", "2"], "--b1", "0"),
    (FK_ARGS + ["--g", "1.0"], "--n-samples", "0"),
    (FK_ARGS + ["--g", "1.0"], "--n-steps", "0"),
    (["exponent", "--alpha", "-0.1875"], "--n-points", "0"),
    (["collapse", "--alpha", "-0.1875"], "--n-b", "0"),
    (["collapse", "--alpha", "-0.1875"], "--n-u", "0")])
def test_grid_ends_and_ensemble_counts_are_refused_by_name(args, flag, value, tmp_path,
                                                          capsys):
    # these went on to np.geomspace, the ensemble builder or a fit, whose words name
    # no flag, sometimes after a RuntimeWarning (raised here as an error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(args + [flag, value, "--out", str(tmp_path)], capsys)
    assert_refused(result, flag)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, detail", [
    (["propagator", "--alpha", "-0.1875", "--g", "1.0", "--x", "2", "--y", "2", "--t", "1",
      "--rtol", "0"], "rtol"),
    (["propagator", "--alpha", "-0.1875", "--g", "1.0", "--x", "2", "--y", "2", "--t", "1",
      "--rtol", "1"], "rtol")] + [
    (["exponent", "--alpha", "-0.1875", "--scheme", "linear", "--n-points", "3",
      "--window-lo", lo, "--window-hi", hi], "window")
    for lo, hi in (("-1e-2", "1e-2"), ("0", "1e-2"), ("1e-4", "-1e-3"), ("1e-20", "1e-18"))])
def test_tolerance_or_window_out_of_range_exits_2(args, detail, tmp_path, capsys):
    # rtol = 0 used to run an unconverged quadrature (exit 3); a fit depth at or
    # below g_*, or one that rounds to g_*, has no bound state to fit
    assert_refused(run_cli(args + ["--out", str(tmp_path)], capsys), detail)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [CHAIN_ARGS, FK_ARGS + ["--g", "1.0", "--n-steps", "64",
                                                         "--n-samples", "100"]])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(args, threads, tmp_path, capsys):
    assert_refused(run_cli(args + ["--threads", threads, "--out", str(tmp_path)], capsys),
                   "threads")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("law, args", [("exact", ["--g", "1.0", "--b", "0.1"]),
                                       ("asymptotic", ["--b", "0.01"]),
                                       ("scaling", ["--b", "0.01"])])
@pytest.mark.parametrize("lam", ["0", "-2"])
def test_scaling_check_refuses_lam_at_or_below_zero(law, args, lam, capsys):
    assert_refused(run_cli(["scaling-check", "--alpha", "-0.1875", "--law", law, "--lam", lam]
                           + args, capsys), "lam must be > 0")


@pytest.mark.parametrize("args, detail", [
    (["collapse", "--alpha", "-0.1875", "--u0", "0"], "u0 must be > 0"),
    (["collapse", "--alpha", "-0.1875", "--u0=-1e-3"], "u0 must be > 0"),
    (["chain", "--alpha", "-0.1875", "--g", "2.5", "--eps-list", "0.1,0.1"], "eps_list"),
    (["chain", "--alpha", "-0.1875", "--g", "2.5", "--eps-list", "0.1,0.05,0.05"], "eps_list"),
    (["chain", "--alpha", "-0.1875", "--g", "2.5", "--eps-list", "0"], "eps_list"),
    (["chain", "--alpha", "-0.1875", "--g", "2.5", "--eps-list", "0.05"], "eps_list")])
def test_degenerate_collapse_or_chain_steps_exit_2(args, detail, tmp_path, capsys):
    # u0 divides every coupling of the collapse; one step, or equal steps, leave
    # Richardson nothing to extrapolate
    assert_refused(run_cli(args + ["--out", str(tmp_path)], capsys), detail)
    assert not any(tmp_path.iterdir())


def test_exponent_refuses_g(tmp_path, capsys):
    # the fit sets each depth from the profile's own g_*, so a given g would be ignored
    assert_refused(run_cli(["exponent", "--alpha", "-0.1875", "--g", "1.0",
                            "--out", str(tmp_path)], capsys), "--g")
    spec = {"command": "exponent", "alpha": -0.1875, "g": 1.0, "out": str(tmp_path)}
    assert_refused(run_spec(spec, tmp_path / "spec.json", capsys), "--g")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, flag", [
    ("bound-state --alpha -0.1875 --g nan", "--g"),
    ("bound-state --alpha -0.1875 --g-list 2.0,nan", "--g-list"),
    ("limit-cycle --alpha -0.3 --eps nan", "--eps"),
    ("limit-cycle --alpha -0.3 --eps 1e-6 --b nan", "--b"),
    ("limit-cycle --alpha -inf --eps 1e-6", "--alpha"),
    ("contours --alpha -0.1875 --ratios nan", "--ratios"),
    ("flow --alpha -0.1875 --gamma0 nan --b1 0.01", "--gamma0"),
    ("flow --alpha -0.1875 --gamma0 0.5 --b1 nan", "--b1"),
    ("feynman-kac --alpha -0.1875 --g 1 --x nan --y 1 --t 4", "--x"),
    ("feynman-kac --alpha -0.1875 --g 1 --x 1 --y 1 --t inf", "--t"),
    ("propagator --alpha -0.1875 --g 1 --x 1.2 --y 1 --t nan", "--t")])
def test_non_finite_numbers_exit_2(argv, flag, tmp_path, capsys):
    # on the command line and in a run spec alike, one JSON line names the flag
    words = argv.split()
    spec = {"command": words[0], "out": str(tmp_path)}
    for name, text in zip(words[1::2], words[2::2]):
        spec[name[2:].replace("-", "_")] = text if "," in text else float(text)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    for args in (words + ["--out", str(tmp_path)], ["--spec", str(tmp_path / "spec.json")]):
        code = main(args)
        out, err = capsys.readouterr()
        assert code == 2 and err == "" and len(out.splitlines()) == 1
        payload = json.loads(out)
        assert payload["error"] == "validation" and flag in payload["detail"]
    assert not any(tmp_path.glob("*.csv"))


def test_negative_flag_values_in_exponent_notation(capsys):
    # argparse alone reads -1e-1 as an option and --alpha as missing its value
    code, _, spaced = run_cli(["fixed-points", "--alpha", "-1e-1"], capsys)
    assert code == 0
    assert run_cli(["fixed-points", "--alpha=-0.1"], capsys)[2] == spaced


# one complete command line per command, for the tests that go over all of them
VALID_ARGV = {
    "fixed-points": "--alpha -0.1875",
    "flow": "--alpha -0.1875 --gamma0 0.5 --b1 0.01",
    "contours": "--alpha -0.1875",
    "bound-state": "--alpha -0.1875 --g 4.0",
    "exponent": "--alpha -0.1875",
    "propagator": "--alpha -0.1875 --g 1.0 --x 1.2 --y 0.9 --t 1",
    "scaling-check": "--alpha -0.1875 --law exact --g 1.0",
    "collapse": "--alpha -0.1875",
    "phase-shift": "--alpha -0.1875 --g 1.0",
    "phase-curve": "--alpha -0.1875 --mu0 0.5 --g0 1.0 --mu1 0.1",
    "feynman-kac": "--alpha -0.1875 --g 1.0 --x 1 --y 1 --t 4",
    "chain": "--alpha -0.1875 --g 2.5",
    "limit-cycle": "--alpha -0.3 --eps 1e-6",
    "regen-golden": "",
}


def valid_spec(command):
    """VALID_ARGV[command] as a run spec."""
    words = VALID_ARGV[command].split()
    return {"command": command,
            **{flag[2:].replace("-", "_"): v for flag, v in zip(words[::2], words[1::2])}}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_takes_x0(command, tmp_path, capsys):
    # lengths are in units of x0 = 1, so the width factor b is the one length knob
    assert_refused(run_cli([command, "--x0", "2"] + VALID_ARGV[command].split(), capsys), "x0")
    assert_refused(run_spec({**valid_spec(command), "x0": 2.0}, tmp_path / "spec.json", capsys),
                   "x0")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_spec_built_from_the_flags_parses_as_the_flags(command, tmp_path, capsys,
                                                          monkeypatch):
    seen = []
    flags = COMMANDS[command][1]
    monkeypatch.setitem(COMMANDS, command, (lambda ns: seen.append(vars(ns)) or ("", {}, None),
                                                 flags))
    assert run_cli([command] + VALID_ARGV[command].split(), capsys)[0] == 0
    spec = {f.name: seen[0][f.name] for f in flags if seen[0][f.name] is not None}
    assert run_spec({"command": command, **spec}, tmp_path / "spec.json", capsys)[0] == 0
    assert seen[1] == seen[0]


@pytest.mark.parametrize("field, value", [("--help", 1), ("-h", 1), ("help", 1), ("help", ""),
                                          ("h", 1), ("law", "--help"), ("law", "-h"),
                                          ("x", "-h")])
def test_option_like_spec_fields_exit_2_without_help(field, value, tmp_path, capsys):
    spec = {"command": "scaling-check", "alpha": -0.1875, "law": "exact", "g": 1.0,
            field: value}
    assert_refused(run_spec(spec, tmp_path / "spec.json", capsys))


@pytest.mark.parametrize("field, value", [("alpha", -0.1875), ("g", 2.0), ("b", 1.0),
                                          ("scheme", "linear"), ("profile", "profile.json")])
def test_a_field_given_twice_exits_2(field, value, tmp_path, capsys):
    # json.loads keeps the last of two equal keys, so the spec is read as raw JSON text
    (tmp_path / "profile.json").write_text(json.dumps({"x": [0.0, 1.0], "f": [1.0, 0.5]}))
    spec = {"command": "phase-shift", "alpha": -0.1875, "scheme": "generic", "g": 1.0, "b": 1.0,
            "profile": str(tmp_path / "profile.json"), "n_k": 2, "out": str(tmp_path)}
    text = json.dumps(spec)[:-1] + f", {json.dumps(field)}: {json.dumps(value)}}}"
    (tmp_path / "spec.json").write_text(text)
    assert_refused(run_cli(["--spec", str(tmp_path / "spec.json")], capsys),
                   f"given twice: ['{field}']")
    assert not list(tmp_path.glob("*.csv"))


def test_abbreviated_flags_are_refused(tmp_path, capsys):
    # --n-point would otherwise stand for --n-points; spec fields are flag names exactly
    assert_refused(run_cli(["exponent", "--alpha", "-0.1875", "--n-point", "3",
                            "--out", str(tmp_path)], capsys), "--n-point")
    spec = {"command": "exponent", "alpha": -0.1875, "n_point": 3,
            "out": str(tmp_path)}
    assert_refused(run_spec(spec, tmp_path / "spec.json", capsys), "--n-point")
    assert not list(tmp_path.glob("*.csv"))


def test_exponent_shoots_each_energy_once(tmp_path, capsys, monkeypatch):
    from invsq import spectrum
    found = []
    orig = spectrum.bound_state

    def counted(*args):
        found.append(orig(*args))
        return found[-1]

    monkeypatch.setattr(spectrum, "bound_state", counted)
    code, _, _ = run_cli(["exponent", "--alpha", "-0.1875", "--scheme", "linear",
                          "--n-points", "3", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert len(found) == 3
    lines = (tmp_path / "exponent_linearwell.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert [float(r[4]) for r in rows] == [st.energy for st in found]


def test_run_spec_file(tmp_path, capsys):
    spec = {"command": "fixed-points", "alpha": -0.1875}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, payload = run_cli(["--spec", str(path)], capsys)
    assert code == 0
    assert payload["g_minus"] == pytest.approx(G_MINUS_316, abs=5e-4)


def test_malformed_spec_exits_2_without_output(tmp_path, capsys):
    spec = {"command": "fixed-points", "alpha": "abc"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "artifacts"
    code, lines, payload = run_cli(["--spec", str(path)], capsys)
    assert code == 2
    assert payload.get("error") == "validation"
    assert not out.exists()


def test_unknown_command_in_spec(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "explode"}))
    code, _, payload = run_cli(["--spec", str(path)], capsys)
    assert code == 2


def test_validation_error_exit_code(capsys):
    code, _, payload = run_cli(["bound-state", "--alpha", "0.5", "--g", "1.0"], capsys)
    assert code == 2
    assert payload["error"] == "validation"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "invsq.cli", "fixed-points",
                           "--alpha", "-0.1875"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "g_minus" in proc.stdout


def test_runs_on_numpy_alone():
    # numpy is the only runtime dependency: with scipy and mpmath unimportable a
    # fresh interpreter imports every module and runs the core solvers
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = sys.modules['mpmath'] = None",
        "import importlib, pkgutil, invsq",
        "for m in pkgutil.iter_modules(invsq.__path__):",
        "    importlib.import_module('invsq.' + m.name)",
        "from invsq.core import derived_constants, fixed_points, square_well",
        "from invsq.propagator import propagator_quadrature",
        "from invsq.spectrum import bound_state",
        "p = derived_constants(-0.1875)",
        "g_plus, g_minus = fixed_points(p)",
        "assert bound_state(p, square_well(g_minus + 0.5)).energy < 0.0",
        "assert propagator_quadrature(p, square_well(g_plus, 0.5), 1.2, 0.9, 1.0).value > 0.0",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.0


def test_determinism_repeat_runs(tmp_path, capsys):
    args = ["exponent", "--alpha", "-0.1875", "--n-points", "6",
            "--window-lo", "1e-3", "--window-hi", "1e-2"]
    run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    a = (tmp_path / "a" / "exponent_squarewell.csv").read_bytes()
    b = (tmp_path / "b" / "exponent_squarewell.csv").read_bytes()
    assert a == b


def test_square_exponent_at_b_half_writes_bound_state_energies(tmp_path, capsys):
    from invsq import spectrum
    from invsq.core import derived_constants, square_well
    from invsq.numerics import fit_loglog
    code, _, payload = run_cli(["exponent", "--alpha", "-0.1875", "--b", "0.5",
                                "--n-points", "4", "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "exponent_squarewell.csv").read_text().splitlines()
    table = [line.split(",") for line in lines if not line.startswith("#")][1:]
    rows = [[float(v) for v in r if v != "SquareWell"] for r in table]
    assert len(rows) == 4 and all(r[1] == 0.5 for r in rows)
    p = derived_constants(-0.1875)
    states = [spectrum.bound_state(p, square_well(r[2], 0.5)) for r in rows]
    assert [r[3] for r in rows] == [s.energy for s in states]
    assert [r[4] for r in rows] == pytest.approx([s.xi for s in states], rel=1e-14)
    du = [r[2] - payload["g_star"] for r in rows]
    amplitude = fit_loglog(du, [-s.energy for s in states])[1]
    assert payload["amplitude"] == pytest.approx(amplitude, rel=1e-9)


def test_exponent_headers_record_tolerances(tmp_path, capsys):
    run_cli(["exponent", "--alpha", "-0.1875", "--n-points", "6",
             "--window-lo", "1e-3", "--window-hi", "1e-2", "--out", str(tmp_path)],
            capsys)
    text = (tmp_path / "exponent_squarewell.csv").read_text()
    assert "tolerance" in text and "slope" in text


def test_generic_regulator_spec_matches_flags(tmp_path, capsys):
    profile = {"x": [0.0, 0.5, 1.0], "f": [1.0, 0.9, 0.6]}
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    window = {"n_points": 3, "window_lo": 1e-3, "window_hi": 2e-3}
    spec = {"command": "exponent", "alpha": -0.1875, "scheme": "generic",
            "profile": str(tmp_path / "profile.json"), "out": str(tmp_path / "spec"), **window}
    code, _, from_spec = run_spec(spec, tmp_path / "spec.json", capsys)
    assert code == 0
    code, _, from_flags = run_cli(
        ["exponent", "--alpha", "-0.1875", "--scheme", "generic",
         "--profile", str(tmp_path / "profile.json"), "--n-points", "3",
         "--window-lo", "1e-3", "--window-hi", "2e-3", "--out", str(tmp_path / "flags")],
        capsys)
    assert code == 0
    assert from_spec["g_star"] == from_flags["g_star"]
    assert from_spec["exponent"] == from_flags["exponent"]


def test_unknown_spec_field_exits_2_with_one_json_line(tmp_path, capsys):
    spec = {"command": "fixed-points", "alpha": -0.1875, "bogus": 1}
    code, lines, _ = run_spec(spec, tmp_path / "spec.json", capsys)
    assert code == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "validation"


def test_g_list_rejects_non_square_scheme(tmp_path, capsys):
    assert_refused(run_cli(["bound-state", "--alpha", "-0.1875", "--scheme", "linear",
                            "--g-list", "3,4", "--out", str(tmp_path)], capsys))
    assert not (tmp_path / "bound_state_sweep.csv").exists()


def test_g_list_refuses_g(tmp_path, capsys):
    # the sweep would run at the --g-list depths alone
    assert_refused(run_cli(["bound-state", "--alpha", "-0.1875", "--g-list", "2.0",
                            "--g", "5.0", "--out", str(tmp_path)], capsys))
    assert not (tmp_path / "bound_state_sweep.csv").exists()


@pytest.mark.parametrize("command, args", [
    ("exponent", ["--scheme", "square", "--n-points", "3"]),
    ("phase-shift", ["--g", "1.0", "--scheme", "linear", "--n-k", "3"]),
    ("bound-state", ["--g", "1.0"])])
def test_profile_outside_the_generic_scheme_exits_2(command, args, tmp_path, capsys):
    # only the generic scheme reads the profile file; elsewhere it would be ignored
    missing = str(tmp_path / "missing.json")
    assert_refused(run_cli([command, "--alpha", "-0.1875", "--profile",
                            missing, "--out", str(tmp_path)] + args, capsys), "profile")
    spec = {"command": command, "alpha": -0.1875, "profile": missing,
            **{flag[2:].replace("-", "_"): v for flag, v in zip(args[::2], args[1::2])}}
    assert_refused(run_spec(spec, tmp_path / "spec.json", capsys), "profile")


def test_malformed_profile_file_exits_2(tmp_path, capsys):
    (tmp_path / "profile.json").write_text("[1, 2]")
    assert_refused(run_cli(["exponent", "--alpha", "-0.1875", "--scheme", "generic",
                            "--profile", str(tmp_path / "profile.json"),
                            "--out", str(tmp_path)], capsys))


@pytest.mark.parametrize("field, value", [("regulator", []), ("regulator", "g"),
                                          ("regulator", ["g"]), ("params", ["alpha"]),
                                          ("regulator", {"kind": "SquareWell", "g": 3.0}),
                                          ("params", {"alpha": -0.1875})])
def test_non_object_spec_value_exits_2(field, value, tmp_path, capsys):
    # a field is a flag, and no flag is named params or regulator or takes a JSON object
    spec = {"command": "bound-state", "alpha": -0.1875, "g": 3.0, field: value}
    assert_refused(run_spec(spec, tmp_path / "spec.json", capsys), field)


@pytest.mark.parametrize("scheme", ["linear", "generic"])
def test_non_square_schemes_take_any_b(scheme, tmp_path, capsys):
    # g_* is where interior(g, 0) = nu_-, in units of b x0: the same at every b
    (tmp_path / "profile.json").write_text(json.dumps({"x": [0.0, 1.0], "f": [1.0, 0.5]}))
    g_stars = []
    for b in ("1.0", "0.5"):
        profile = ["--profile", str(tmp_path / "profile.json")] if scheme == "generic" else []
        code, _, payload = run_cli(["exponent", "--alpha", "-0.1875", "--scheme", scheme,
                                    "--b", b, "--n-points", "4",
                                    "--out", str(tmp_path)] + profile, capsys)
        assert code == 0
        g_stars.append(payload["g_star"])
    assert g_stars[1] == g_stars[0]


def test_threads_and_out_only_where_read(capsys):
    def having(flag):
        return {name for name, (_, flags) in COMMANDS.items() if any(f.name == flag for f in flags)}

    assert having("threads") == {"feynman-kac", "chain"}
    assert having("out") == set(COMMANDS) - {"fixed-points", "scaling-check"}
    code, lines, payload = run_cli(["fixed-points", "--alpha", "-0.1875", "--threads", "2"],
                                   capsys)
    assert code == 2 and len(lines) == 1 and payload["error"] == "validation"


# cheap commands for the run-spec fuzz test: field -> strategy of valid values
ALPHA = {"alpha": st.floats(-0.24, -0.02)}
SCHEMES = st.sampled_from(["square", "square", "linear", "generic"])
CHEAP_FIELDS = {
    "fixed-points": ALPHA,
    "bound-state": {**ALPHA, "g": st.floats(0.5, 6.0), "b": st.sampled_from([0.5, 1.0]),
                    "g_list": st.sampled_from(["2.0,2.5", "1.0"]), "scheme": SCHEMES},
    "flow": {**ALPHA, "gamma0": st.floats(-0.5, 0.9), "b1": st.sampled_from([0.5, 0.1]),
             "steps": st.integers(1, 3)},
    "contours": {**ALPHA, "ratios": st.sampled_from(["1", "1,2"]), "n_xi": st.integers(2, 4)},
    # limit-cycle runs only below alpha = -1/4
    "limit-cycle": {"alpha": st.floats(-0.5, -0.26), "eps": st.sampled_from([1e-6, 1e-4]),
                    "n_periods": st.integers(-1, 3)},
    "exponent": {**ALPHA, "scheme": SCHEMES, "b": st.sampled_from([0.5, 1.0]),
                 "n_points": st.integers(0, 3)},
}
MISTYPED = st.sampled_from([None, True, [1.0], {"a": 1}, "abc", "", 2.5, -1, 0.1, -0.25, -0.3])
# mostly valid fields, so that a good share of the specs runs to the end
FIELD_CHOICE = st.sampled_from(["valid"] * 4 + ["malformed", "missing"])


@st.composite
def run_specs(draw):
    command = draw(st.sampled_from(sorted(CHEAP_FIELDS)))
    spec = {"command": command}
    for name, valid in CHEAP_FIELDS[command].items():
        choice = draw(FIELD_CHOICE)
        if choice != "missing":
            spec[name] = draw(valid if choice == "valid" else MISTYPED)
    if draw(st.integers(0, 4)) == 0:
        spec["unknown_field"] = draw(MISTYPED)
    return spec


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=run_specs())
def test_any_run_spec_keeps_the_exit_contract(spec, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INVSQ_OUTDIR", str(tmp_path / "out"))
    code, lines, _ = run_spec(spec, tmp_path / "spec.json", capsys)
    assert code in (0, 2, 3, 4)
    found = json_lines(lines)
    assert len(found) == 1
    assert ("error" in found[0]) == (code != 0)
