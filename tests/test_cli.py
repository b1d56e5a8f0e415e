import argparse
import contextlib
import inspect
import json
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from begrates import cli, mcmc
from begrates.cases import case_catalog
from begrates.cli import main
from begrates.density import estimate_stein_constants, normalize_density

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def _address_space_cap(limit=64 << 30):
    """Cap this process's address space, so an oversized request fails at
    once even where the kernel would grant it and let the pages fill."""
    try:
        import resource
    except ImportError:  # no rlimits on this platform
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalogCommand:
    def test_emits_42_rows(self, capsys):
        code, out, _ = run_cli(capsys, "case-catalog", "--format", "csv")
        assert code == 0
        data_rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(data_rows) == 1 + 42  # header plus entries

    def test_json_variant(self, capsys):
        code, out, _ = run_cli(capsys, "case-catalog", "--format", "json")
        doc = json.loads(out)
        assert doc["meta"]["count"] == 42
        assert len(doc["rows"]) == 42


    def test_csv_is_pinned(self, capsys):
        # regenerate with: begrates case-catalog --format csv > tests/data/case-catalog.csv
        # (stdout, since --output is echoed into the "# config" lines)
        code, out, err = run_cli(capsys, "case-catalog", "--format", "csv")
        assert code == 0 and err == ""
        assert out.encode() == (DATA / "case-catalog.csv").read_bytes()


class TestPhaseDiagramCommand:
    def test_one_sample_is_the_row_at_beta_min(self, capsys):
        code, out, err = run_cli(
            capsys, "phase-diagram", "--samples", "1", "--beta-min", "0.7", "--format", "json",
        )
        assert code == 0 and not err
        doc = json.loads(out)
        assert [row["beta"] for row in doc["rows"]] == [0.7]

    def test_endpoints_of_several_samples(self, capsys):
        _, out, _ = run_cli(capsys, "phase-diagram", "--samples", "5", "--format", "json")
        betas = [row["beta"] for row in json.loads(out)["rows"]]
        assert len(betas) == 5 and betas[0] == 0.2 and betas[-1] == 2.5


class TestExactLawCommand:
    def test_bruteforce_flag_is_gone(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=8\nbeta=1.0\nK=0.6\ncheck-bruteforce\n")
        for argv in (["--n", "8", "--beta", "1.0", "--K", "0.6", "--check-bruteforce"],
                     ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(["exact-law", *argv])
            assert exc.value.code == 2
            assert "--check-bruteforce" in capsys.readouterr().err

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "exact-law", "--n", "0", "--beta", "1.0", "--K", "0.6")
        assert code == 2
        assert "kind=validation" in err and "n must be >= 1" in err

    def test_cap_exceeded_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "exact-law", "--n", "50", "--beta", "1.0", "--K", "0.6",
            "--cap", "10",
        )
        assert code == 3
        assert "kind=computation" in err


class TestKolmogorovCommand:
    def test_self_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kolmogorov", "--n", "16", "--beta", "1.0", "--K", "0.6", "--self"])
        assert exc.value.code == 2
        assert "--self" in capsys.readouterr().err

    def test_scalar_only_cdf_is_a_validation_error(self, capsys, monkeypatch):
        # a CDF that only takes one float at a time is rejected, not looped over
        scalar_only = SimpleNamespace(cdf_at_sorted=lambda t: float(t))
        monkeypatch.setattr(cli, "normalize_density", lambda *b: scalar_only)
        code, _, err = run_cli(
            capsys, "kolmogorov", "--n", "16", "--beta", "1.0", "--K", "0.6",
        )
        assert code == 2
        assert "kind=validation" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = ("rate-scan", "--case", "fixed-A", "--min-exp", "6", "--max-exp", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert out1  # nonempty

    def test_mcmc_byte_identical(self, capsys):
        args = (
            "mcmc", "--n", "20", "--beta", "1.0", "--K", "0.6",
            "--sweeps", "500", "--burn-in", "100", "--seed", "7",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_17_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "phase-diagram", "--samples", "4")
        line = next(l for l in out.splitlines() if l.startswith("0.2"))
        kc = line.split(",")[1]
        assert len(kc.replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestConfigFile:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=12\nbeta=1.0\nK=0.6\nformat=json\n")
        code, out, _ = run_cli(capsys, "exact-law", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["n"] == 12
        assert doc["config"]["format"] == "json"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=12\nbeta=1.0\nK=0.6\n")
        code, out, _ = run_cli(
            capsys, "exact-law", "--config", str(cfg), "--n", "5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["n"] == 5


    def test_underscore_keys_spell_flags(self, capsys, tmp_path):
        outs = []
        for key in ("burn-in", "burn_in"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"n=10\nbeta=1.0\nK=0.6\nsweeps=200\n{key}=50\nseed=3\n")
            code, out, err = run_cli(capsys, "mcmc", "--config", str(cfg))
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]
        assert "# config burn_in=50" in outs[0]

    def test_bare_key_sets_a_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b1=0.5\nstein-constants\nformat=json\n")
        code, out, err = run_cli(capsys, "limit-density", "--config", str(cfg))
        assert code == 0, err
        assert "stein_d1" in json.loads(out)["meta"]

    def test_bare_trace_line_gives_trace_rows(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=12\nbeta=1.0\nK=0.6\nsweeps=140\nburn_in=40\nseed=9\ntrace\n")
        code, out, err = run_cli(capsys, "mcmc", "--config", str(cfg))
        assert code == 0, err
        data = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert data[0] == "sweep,s,M,w,w2" and len(data) == 1 + 100

    def test_comment_and_blank_lines_are_skipped(self, capsys, tmp_path):
        outs = []
        for name, text in (("plain", "n=12\nbeta=1.0\nK=0.6\n"),
                           ("commented", "# a law at n = 12\n\nn=12\n   \n  # beta and K\n"
                                         "beta=1.0\nK=0.6\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            code, out, err = run_cli(capsys, "exact-law", "--config", str(cfg))
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1] and "# config n=12" in outs[0]

    def test_config_without_path(self, capsys):
        code, _, err = run_cli(capsys, "exact-law", "--n", "4", "--config")
        assert code == 2
        assert "kind=validation" in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "exact-law", "--config", str(tmp_path / "missing.cfg"),
        )
        assert code == 2
        assert "kind=validation" in err


class TestExitCodes:
    # extreme inputs end in an exit code, never a traceback, nan or inf
    @pytest.mark.parametrize("argv, code", [
        ("exact-law --n 1000 --beta 1 --K 1e17", 0),
        ("kolmogorov --n 1000 --beta 1 --K 1e300", 0),
        ("exact-law --n 1000 --beta 1 --K 1e306", 3),
        ("hs-check --n 64 --beta 1 --K 1e10", 3),
        ("hs-check --n 64 --beta 1 --K 1e17", 3),
        ("hs-check --n 64 --beta 1 --K 1e8", 3),
        ("hs-check --n 64 --beta 1 --K 1e12", 3),
        ("hs-check --n 1024 --gamma 0.25 --beta 1 --K 1e12", 3),
        # noise far wider than the atoms: a lattice past hs_check's limit
        ("hs-check --n 64 --beta 1e-300 --K 0.6", 3),
        ("hs-check --n 16 --beta 1e-20 --K 1", 3),
        ("hs-check --n 64 --beta 1e-320 --K 1", 3),  # noise variance inf
        ("stein-bound --case fixed-C --n 4 --halfwidth 1e102", 2),  # total inf
        ("stein-bound --case fixed-C --n 4 --halfwidth 1e103", 2),  # A**3 overflows
        ("phase-diagram --beta-min 1 --beta-max 710 --samples 2", 2),
        ("minimizers --beta 710 --K 1", 2),
        ("phase-diagram --samples 0", 2),
        ("phase-diagram --samples -5", 2),
        ("limit-density --b1 0.5 --max-moment -4", 2),
        ("limit-density --b1 nan", 2),
        ("rate-scan", 2),
        # 2 beta K past the double range
        ("mcmc --n 10 --beta 1 --K 1e308 --sweeps 64 --burn-in 0", 2),
        ("minimizers --beta 1 --K 1e308", 2),
        # one 14.6 TiB request, refused before anything is allocated
        ("mcmc --n 1000000000000 --beta 1 --K 0.6 --sweeps 40 --burn-in 0", 3),
    ])
    def test_exit_code(self, capsys, argv, code):
        with _address_space_cap():
            got, out, err = run_cli(capsys, *argv.split(), "--format", "json")
        assert got == code, err
        assert not re.search(r"\b(nan|inf|infinity)\b|traceback", out + err, re.IGNORECASE)
        if argv.startswith("kolmogorov"):
            assert json.loads(out)["rows"][0]["d_k"] == 0.5

    def test_stein_constants_are_echoed_as_meta(self, capsys):
        code, out, err = run_cli(capsys, "limit-density", "--b1", "0.5", "--stein-constants",
                                 "--format", "json")
        assert code == 0, err
        meta = json.loads(out)["meta"]
        consts = estimate_stein_constants(normalize_density(0.5, 0.0, 0.0))
        assert [meta[f"stein_d{i}"] for i in range(1, 5)] == [consts.d1, consts.d2, consts.d3,
                                                              consts.d4]
        assert json.loads(meta["stein_grid"]) == consts.grid_spec


class TestOtherCommands:
    def test_stein_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "stein-bound", "--case", "fixed-A", "--n", "64",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["dominates"] is True
        names = {r["term"] for r in doc["rows"]}
        assert names == {"variance_term", "remainder_term", "cube_term",
                         "psi_term", "tail_term"}

    def test_stein_bound_halfwidth_must_be_positive_and_finite(self, capsys):
        for value in ("nan", "inf", "-1"):
            code, out, err = run_cli(
                capsys, "stein-bound", "--case", "fixed-A", "--n", "64",
                "--halfwidth", value,
            )
            assert code == 2, value
            assert out == "" and "kind=validation" in err

    def test_minimizers_two_phase(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimizers", "--beta", "1.0", "--K", "1.5", "--format", "json",
        )
        doc = json.loads(out)
        vals = [float(r["minimizer"]) for r in doc["rows"]]
        assert len(vals) == 2 and vals[0] == -vals[1]

    def test_hs_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "hs-check", "--n", "256", "--beta", "1.0", "--K", "0.6",
            "--format", "json",
        )
        doc = json.loads(out)
        assert float(doc["rows"][0]["sup_cdf_error"]) < 1e-3

    def test_limit_density(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit-density", "--b1", "0.5", "--format", "json",
        )
        doc = json.loads(out)
        moments = {int(r["order"]): float(r["moment"]) for r in doc["rows"]}
        assert abs(moments[2] - 1.0) < 1e-9
        meta = doc["meta"]
        assert set(meta) == {"b1", "b2", "b3", "log_norm", "quadrature_tol"}
        assert (meta["b1"], meta["b2"], meta["b3"]) == (0.5, 0.0, 0.0)
        assert meta["log_norm"] == normalize_density(0.5, 0.0, 0.0).log_norm
        assert meta["quadrature_tol"] == 1e-12

    @pytest.mark.parametrize("coeff", [("--b1", "1e-300"), ("--b2", "1e-200"), ("--b3", "1e-300")],
                             ids=str)
    def test_limit_density_moment_overflow_is_a_computation_error(self, capsys, coeff):
        code, out, err = run_cli(capsys, "limit-density", *coeff)
        assert code == 3
        assert out == "" and "kind=computation" in err
        assert "Traceback" not in err

    def test_limit_density_moment_past_the_grid_range_is_printed(self, capsys):
        # E[X^2] = 1 / (2 b1) = 5e299 is a double although x^2 overflows
        # on the ~1e152-wide grid
        code, out, err = run_cli(capsys, "limit-density", "--b1", "1e-300", "--max-moment", "2",
                                 "--format", "json")
        assert code == 0, err
        assert json.loads(out)["rows"][1]["moment"] == pytest.approx(5e299, rel=1e-12)

    def test_overflowing_norm_check_is_a_computation_error_without_warnings(self, capsys):
        # the norm check's quadrature overflows on this shape before it is
        # rejected; the overflow must not leak out as a numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "limit-density", "--b2", "-1", "--b3", "1e-17")
        assert code == 3 and out == ""
        assert err.startswith("error kind=computation") and len(err.splitlines()) == 1
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("coeffs", [("--b1", "-1", "--b2", "1e-4"),
                                        ("--b1", "0", "--b2", "-20", "--b3", "1")], ids=str)
    def test_stein_constants_of_a_deep_double_well_is_a_computation_error(self, capsys, coeffs):
        code, out, err = run_cli(capsys, "limit-density", *coeffs, "--stein-constants")
        assert code == 3
        assert out == "" and "kind=computation" in err and "barrier at 0" in err
        assert "Traceback" not in err

    def test_stein_constants_behind_an_outer_barrier_is_a_computation_error(self, capsys):
        code, out, err = run_cli(capsys, "limit-density", "--b1", "1120", "--b2", "-560",
                                 "--b3", "70", "--stein-constants")
        assert code == 3
        assert out == "" and "kind=computation" in err and "barrier at +-1.1547" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "phase-diagram", "--samples", "4", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("# schema_version=1")

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "exact-law", "--n", "8", "--beta", "1", "--K", "0.6",
            "--output", str(tmp_path / "missing" / "x.txt"),
        )
        assert code == 2
        assert "kind=validation" in err
        assert "Traceback" not in err

    def test_mcmc_trace_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "mcmc", "--n", "12", "--beta", "1.0", "--K", "0.6",
            "--sweeps", "140", "--burn-in", "40", "--seed", "9", "--trace",
        )
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert data[0] == "sweep,s,M,w,w2"
        assert len(data) == 1 + 100  # one row per measured sweep
        assert "# meta batch_count=32\n" in out

    @pytest.mark.parametrize("gamma", ["nan", "0.7", "0", "-1"])
    def test_mcmc_gamma_outside_range(self, capsys, gamma):
        code, out, err = run_cli(
            capsys, "mcmc", "--n", "10", "--beta", "1.0", "--K", "0.6",
            "--sweeps", "100", "--burn-in", "10", "--gamma", gamma,
        )
        assert code == 2
        assert "kind=validation" in err
        assert "Traceback" not in err
        assert out == ""

    def test_mcmc_negative_seed(self, capsys):
        code, out, err = run_cli(
            capsys, "mcmc", "--n", "10", "--beta", "1.0", "--K", "0.6",
            "--sweeps", "100", "--burn-in", "10", "--seed", "-1",
        )
        assert code == 2
        assert "kind=validation" in err
        assert "Traceback" not in err
        assert out == ""

    def test_mcmc_state_drift_is_a_computation_error(self, capsys, monkeypatch):
        sweep = mcmc._sweep

        def corrupting_sweep(*args):
            n_plus, _ = sweep(*args)
            return n_plus, -1

        monkeypatch.setattr(mcmc, "_sweep", corrupting_sweep)
        code, _, err = run_cli(
            capsys, "mcmc", "--n", "10", "--beta", "1.0", "--K", "0.6",
            "--sweeps", "100", "--burn-in", "10",
        )
        assert code == 3
        assert "kind=computation" in err

    def test_rate_scan_worker_error_is_a_computation_error(self, capsys):
        # three-rung ladders are too short to fit, inside the worker processes
        code, _, err = run_cli(
            capsys, "rate-scan", "--all", "--threads", "2", "--min-exp", "2",
            "--max-exp", "4",
        )
        assert code == 3
        assert "kind=computation" in err
        assert "Traceback" not in err

    def test_rate_scan_max_exp_below_min_exp(self, capsys):
        for scope in (("--case", "fixed-C"), ("--all",)):
            for bounds in (("--min-exp", "9", "--max-exp", "7"), ("--max-exp", "0")):
                code, out, err = run_cli(capsys, "rate-scan", *scope, *bounds)
                assert code == 2, (scope, bounds)
                assert out == "" and "kind=validation" in err

    def test_rate_scan_json_full_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate-scan", "--case", "fixed-A", "--min-exp", "6",
            "--max-exp", "9", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        report = doc["meta"]["report"]
        assert set(report) == {
            "case_id", "theorem", "subcase", "gamma", "predicted_exponent", "ladder",
            "fitted_slope", "fitted_intercept", "r_squared", "slope_ok", "bounded_ok", "skipped",
        }
        assert report["case_id"] == "fixed-A"
        assert len(report["ladder"]) == 4
        for rung in report["ladder"]:
            assert set(rung) == {"n", "d_k", "moments"}
            assert set(rung["moments"]) == {"2", "4", "6"}

    def test_rate_scan_min_exp_starts_every_ladder(self, capsys):
        code, out, err = run_cli(capsys, "rate-scan", "--all", "--min-exp", "9", "--per-n",
                                 "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["config"]["min_exp"] == 9
        tops = {case.case_id: 2**case.ladder_max_exp for case in case_catalog()}
        ns: dict[str, list[int]] = {}
        for row in doc["rows"]:
            ns.setdefault(row["case_id"], []).append(row["n"])
        assert sorted(ns) == sorted(tops)
        for case_id, sizes in ns.items():
            assert min(sizes) >= 512 and max(sizes) == tops[case_id], case_id

    @pytest.mark.parametrize("scope", [("--case", "fixed-C"), ("--all",)], ids=str)
    def test_rate_scan_negative_min_exp(self, capsys, scope):
        code, out, err = run_cli(capsys, "rate-scan", *scope, "--min-exp", "-1")
        assert code == 2
        assert out == "" and "kind=validation" in err and "--min-exp" in err

    def test_rate_scan_worker_processes_match_one_process(self, capsys):
        docs = []
        for threads in ("1", "2"):
            code, out, err = run_cli(capsys, "rate-scan", "--all", "--max-exp", "9",
                                     "--threads", threads, "--format", "json")
            assert code == 0, err
            docs.append(json.loads(out))
        assert [d["config"].pop("threads") for d in docs] == [1, 2]
        assert docs[0] == docs[1]


# the resolved configuration every output echoes, per subcommand, when only
# the required flags are given: a parser change must not rename or re-default
# a key
_COMMON_CONFIG = {"output": None, "format": "csv"}
_LAW = {"n": 8, "beta": 1.0, "K": 0.6}
_CONFIGS = {
    "phase-diagram": ({}, {"beta_min": 0.2, "beta_max": 2.5, "samples": 64}),
    "exact-law": (_LAW, {"gamma": 0.5, "cap": 20000, "max_atoms_listed": 512}),
    "limit-density": ({}, {"b1": 0.0, "b2": 0.0, "b3": 0.0, "max_moment": 8,
                           "stein_constants": False}),
    "kolmogorov": (_LAW, {"gamma": 0.5, "b1": 0.5, "b2": 0.0, "b3": 0.0,
                          "cap": 20000}),
    "stein-bound": ({"case": "fixed-A", "n": 64}, {"halfwidth": None, "cap": 20000}),
    "rate-scan": ({}, {"case": None, "all": False, "min_exp": 6, "max_exp": None,
                       "per_n": False, "threads": 1}),
    "mcmc": (_LAW, {"gamma": 0.5, "sweeps": 20000, "burn_in": 2000, "trace": False,
                    "seed": 0}),
    "case-catalog": ({}, {}),
    "minimizers": ({"beta": 1.0, "K": 0.6}, {}),
    "hs-check": (_LAW, {"gamma": 0.5}),
}


# the CSV header of every table, one invocation per table: the keys of its
# rows in the order the subcommand writes them
_MCMC = "mcmc --n 8 --beta 1 --K 0.6 --sweeps 140 --burn-in 40"
_HEADERS = {
    "phase-diagram --samples 2": "beta,K_c,region_at_0p9Kc,region_at_Kc,region_at_1p1Kc",
    "exact-law --n 8 --beta 1 --K 0.6": "s,M,probability",
    "limit-density --b1 0.5": "order,moment",
    "kolmogorov --n 8 --beta 1 --K 0.6": "comparison,d_k",
    "stein-bound --case fixed-A --n 64": "term,value",
    "rate-scan --case fixed-A --max-exp 9": (
        "case_id,theorem,gamma,predicted_exponent,fitted_slope,r_squared,n_min,n_max,"
        "d_k_at_n_max,scaled_max_over_first,slope_ok,bounded_ok"),
    "rate-scan --case fixed-A --max-exp 9 --per-n": "case_id,n,d_k,scaled_d_k",
    _MCMC: "order,estimate,stderr",
    f"{_MCMC} --trace": "sweep,s,M,w,w2",
    "case-catalog": (
        "case_id,theorem,subcase,gamma,density_pattern,predicted_exponent,validity,mode,"
        "beta_fixed,b,k,delta1,delta2,ladder_max_exp"),
    "minimizers --beta 1 --K 0.6": "minimizer",
    "hs-check --n 8 --beta 1 --K 0.6": "n,gamma,sup_cdf_error",
}


class TestCsvHeaders:
    @pytest.mark.parametrize("argv", sorted(_HEADERS))
    def test_header(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 0, err
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == _HEADERS[argv] and len(data) > 1
        if argv.startswith("rate-scan") and "--per-n" not in argv:
            # fixed-A's ladder passes both checks
            assert data[1].startswith("fixed-A,") and data[1].endswith(",True,True")

    def test_exact_law_without_atoms_keeps_its_header(self, capsys):
        code, out, err = run_cli(capsys, "exact-law", "--n", "8", "--beta", "1", "--K", "0.6",
                                 "--max-atoms-listed", "4")
        assert code == 0, err
        assert "# meta atoms_omitted=True" in out
        assert [l for l in out.splitlines() if not l.startswith("#")] == ["s,M,probability"]


class TestParserConfig:
    @pytest.mark.parametrize("command", sorted(_CONFIGS))
    def test_resolved_config_of_required_flags(self, command):
        required, defaults = _CONFIGS[command]
        argv = [command]
        for key, value in required.items():
            argv += [f"--{key}", str(value)]
        config = vars(cli.build_parser().parse_args(argv))
        del config["func"]
        assert config == {"subcommand": command, **required, **defaults, **_COMMON_CONFIG}

    @pytest.mark.parametrize("command", sorted(c for c in _CONFIGS if _CONFIGS[c][0]))
    def test_each_required_flag_is_required(self, command, capsys):
        required = _CONFIGS[command][0]
        for missing in required:
            argv = [command]
            for key, value in required.items():
                if key != missing:
                    argv += [f"--{key}", str(value)]
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert f"--{missing}" in capsys.readouterr().err


class TestEveryFlagIsRead:
    def test_every_declared_flag_is_read_by_its_command(self):
        # a flag its command never reads is a silent no-op; --output and
        # --format are read by the shared output code
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        unread = []
        for name, parser in subparsers.choices.items():
            source = inspect.getsource(parser.get_default("func"))
            for action in parser._actions:
                if action.dest in ("help", "output", "format"):
                    continue
                if not re.search(rf"\bargs\.{action.dest}\b", source):
                    unread.append((name, action.dest))
        assert unread == []
