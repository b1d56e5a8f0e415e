"""Command-line front end.

Every computation is exposed as a subcommand with machine-readable CSV or
JSON output.  Runs are deterministic given the flags and the seed: floats are
printed with 17 significant digits and every output embeds its fully resolved
configuration.  A CSV table's header is its rows' keys in the order the
subcommand writes them; only ``exact-law`` names its columns, since its atom
table is empty past ``--max-atoms-listed``.  This module alone turns the
library's results into rows and metadata.  Exit codes: 0 success, 2
validation error, 3 computational error or running out of memory.

A config file in ``key=value`` format may supply defaults; explicit flags
override it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

from . import __version__
from .cases import case_by_id, case_catalog
from .density import _QUADRATURE_TOL, estimate_stein_constants, normalize_density
from .errors import ComputationError, ValidationError
from .exact import (
    DEFAULT_N_CAP,
    build_joint_law,
    hs_check,
    kolmogorov_distance,
    moment,
    pair_covariance,
)
from .mcmc import _BATCHES, run_chain
from .model import BETA_C, ModelParams, classify_region, critical_K, minimize_G
from .rates import DEFAULT_MIN_EXP, RateReport, default_ladder, run_all, run_case, run_rung

_SCHEMA_VERSION = 1
_MAX_SAMPLES = 10**6  # phase-diagram rows
_MAX_MOMENT = 1000  # limit-density orders: 501 even ones, each 1-4 ms of quadrature


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


class _Output:
    """Collects rows plus metadata and serialises to CSV or JSON.

    ``main`` builds one per run and the subcommand fills it.  The CSV header
    is the first row's keys in their order; ``columns`` overrides it only
    where a table may have no rows (``exact-law`` past ``--max-atoms-listed``).
    """

    def __init__(self, args: argparse.Namespace):
        self.fmt = args.format
        self.config = _resolved_config(args)
        self.meta: dict = {}
        self.columns: list[str] = []
        self.rows: list[dict] = []

    def emit(self, path: str | None) -> None:
        text = self._to_json() if self.fmt == "json" else self._to_csv()
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(f"cannot write output file {path!r}: {exc.strerror}") from exc

    def _to_json(self) -> str:
        doc = {
            "schema_version": _SCHEMA_VERSION,
            "config": self.config,
            "meta": self.meta,
            "rows": self.rows,
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=_fmt) + "\n"

    def _to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# schema_version={_SCHEMA_VERSION}\n")
        for k, v in self.config.items():
            buf.write(f"# config {k}={_fmt(v)}\n")
        for k, v in sorted(self.meta.items()):
            buf.write(f"# meta {k}={_fmt(v)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        columns = self.columns or list(self.rows[0] if self.rows else ())
        writer.writerow(columns)
        for row in self.rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_phase_diagram(args, out: _Output) -> None:
    out.meta["beta_c"] = BETA_C
    out.meta["K_c_at_beta_c"] = critical_K(BETA_C)
    if args.samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {args.samples}")
    if args.samples > _MAX_SAMPLES:  # every row, ~1.4 kB in JSON, is held until output
        raise ValidationError(f"--samples must be <= {_MAX_SAMPLES}, got {args.samples}")
    span, steps = args.beta_max - args.beta_min, max(args.samples - 1, 1)
    betas = [args.beta_min + i * span / steps for i in range(args.samples)]
    for beta in betas:
        kc = critical_K(beta)
        tags = [
            classify_region(ModelParams(beta, f * kc)).value for f in (0.9, 1.0, 1.1)
        ]
        out.rows.append({
            "beta": beta, "K_c": kc,
            "region_at_0p9Kc": tags[0], "region_at_Kc": tags[1], "region_at_1p1Kc": tags[2],
        })


def _cmd_exact_law(args, out: _Output) -> None:
    params = ModelParams(args.beta, args.K)
    law = build_joint_law(params, args.n, cap=args.cap)
    out.meta["log_partition"] = law.log_partition
    out.meta["region"] = classify_region(params).value
    for k in (2, 4, 6):
        out.meta[f"moment_w{k}"] = moment(law, args.gamma, k)
    if args.n >= 2:
        out.meta["pair_covariance"] = pair_covariance(params, args.n, law=law)
    out.columns = ["s", "M", "probability"]
    if args.n <= args.max_atoms_listed:
        for (s, M), p in law.atoms().items():
            out.rows.append({"s": s, "M": M, "probability": p})
    else:
        out.meta["atoms_omitted"] = True


def _cmd_limit_density(args, out: _Output) -> None:
    if args.max_moment < 0:
        raise ValidationError(f"--max-moment must be >= 0, got {args.max_moment}")
    if args.max_moment > _MAX_MOMENT:
        raise ValidationError(f"--max-moment must be <= {_MAX_MOMENT}, got {args.max_moment}")
    d = normalize_density(args.b1, args.b2, args.b3)
    out.meta.update(b1=d.b1, b2=d.b2, b3=d.b3, log_norm=d.log_norm,
                    quadrature_tol=_QUADRATURE_TOL)
    for k in range(0, args.max_moment + 1, 2):
        out.rows.append({"order": k, "moment": d.moment(k)})
    if args.stein_constants:
        consts = estimate_stein_constants(d)
        out.meta.update({f"stein_{k}": getattr(consts, k) for k in ("d1", "d2", "d3", "d4")})
        out.meta["stein_grid"] = json.dumps(consts.grid_spec, sort_keys=True)


def _cmd_kolmogorov(args, out: _Output) -> None:
    params = ModelParams(args.beta, args.K)
    law = build_joint_law(params, args.n, cap=args.cap)
    d_obj = normalize_density(args.b1, args.b2, args.b3)
    d = kolmogorov_distance(law, args.gamma, d_obj.cdf_at_sorted)
    out.rows.append({"comparison": f"poly({args.b1},{args.b2},{args.b3})", "d_k": d})


def _cmd_stein_bound(args, out: _Output) -> None:
    report = run_rung(case_by_id(args.case), args.n, cap=args.cap, bound=True,
                      halfwidth=args.halfwidth).bound
    out.meta["case_id"] = args.case
    out.meta["n"] = args.n
    out.meta["A"] = report.a_halfwidth
    out.meta["lambda"] = report.lam
    out.meta["total"] = report.total
    out.meta["exact_dk"] = report.exact_dk
    out.meta["dominates"] = report.dominates()
    for k, v in report.constants.items():
        out.meta[k] = v
    for name, value in report.terms.items():
        out.rows.append({"term": name, "value": value})


def _fit_fields(rep: RateReport, **own) -> dict:
    """A ladder's case, fit and verdicts around ``own``: the keys that a
    ``rate-scan`` summary row and its JSON report share, in the row's order."""
    return {
        "case_id": rep.case.case_id, "theorem": rep.case.theorem, "gamma": rep.case.gamma,
        "predicted_exponent": rep.case.predicted_exponent,
        "fitted_slope": rep.fitted_slope, "r_squared": rep.r_squared,
        **own,
        "slope_ok": rep.slope_ok(), "bounded_ok": rep.bounded_ok(),
    }


def _cmd_rate_scan(args, out: _Output) -> None:
    if args.all:
        reports = run_all(threads=args.threads, min_exp=args.min_exp, max_exp=args.max_exp)
    else:
        if not args.case:
            raise ValidationError("rate-scan needs --case ID or --all")
        case = case_by_id(args.case)
        reports = [run_case(case, default_ladder(case, args.min_exp, args.max_exp))]
    if args.per_n:
        for rep in reports:
            for p, scaled in zip(rep.ladder, rep.scaled_distances):
                out.rows.append({
                    "case_id": rep.case.case_id, "n": p.n, "d_k": p.d_k, "scaled_d_k": scaled,
                })
    else:
        for rep in reports:
            scaled = rep.scaled_distances
            out.rows.append(_fit_fields(
                rep, n_min=rep.ladder[0].n, n_max=rep.ladder[-1].n,
                d_k_at_n_max=rep.ladder[-1].d_k, scaled_max_over_first=max(scaled) / scaled[0],
            ))
        out.meta["all_slope_ok"] = all(r.slope_ok() for r in reports)
        out.meta["all_bounded_ok"] = all(r.bounded_ok() for r in reports)
        if not args.all and args.format == "json":
            rep = reports[0]
            out.meta["report"] = _fit_fields(
                rep, subcase=rep.case.subcase, fitted_intercept=rep.fitted_intercept,
                ladder=[{"n": p.n, "d_k": p.d_k, "moments": p.moments} for p in rep.ladder],
                skipped=rep.skipped,
            )


def _cmd_mcmc(args, out: _Output) -> None:
    params = ModelParams(args.beta, args.K)
    result = run_chain(
        params, args.n, args.sweeps, args.burn_in, args.seed, gamma=args.gamma,
        keep_trace=args.trace,
    )
    out.meta["m_fraction"] = result.m_fraction[0]
    out.meta["m_fraction_stderr"] = result.m_fraction[1]
    out.meta["batch_count"] = _BATCHES
    if args.trace:
        scale = float(args.n) ** (1.0 - args.gamma)
        for k, (est, se) in sorted(result.moments.items()):
            out.meta[f"moment_w{k}"] = est
            out.meta[f"moment_w{k}_stderr"] = se
        for sweep, s, M in result.trace:
            w = s / scale
            out.rows.append({"sweep": sweep, "s": s, "M": M, "w": w, "w2": w * w})
    else:
        for k, (est, se) in sorted(result.moments.items()):
            out.rows.append({"order": k, "estimate": est, "stderr": se})


def _cmd_case_catalog(args, out: _Output) -> None:
    for case in case_catalog():
        row = {
            "case_id": case.case_id, "theorem": case.theorem, "subcase": case.subcase,
            "gamma": case.gamma, "density_pattern": case.density_pattern,
            "predicted_exponent": case.predicted_exponent, "validity": case.validity,
            "mode": case.parameter_kind, "beta_fixed": "", "b": "", "k": "", "delta1": "",
            "delta2": "", "ladder_max_exp": case.ladder_max_exp,
        }
        s = case.schedule
        if s is not None:
            row.update({key: "" if v is None else v for key, v in asdict(s).items()})
        else:
            row["beta_fixed"] = case.fixed_params.beta
            row["k"] = case.fixed_params.K
        out.rows.append(row)
    out.meta["count"] = len(out.rows)


def _cmd_minimizers(args, out: _Output) -> None:
    params = ModelParams(args.beta, args.K)
    out.meta["region"] = classify_region(params).value
    for x in minimize_G(params):
        out.rows.append({"minimizer": x})


def _cmd_hs_check(args, out: _Output) -> None:
    params = ModelParams(args.beta, args.K)
    err = hs_check(params, args.n, args.gamma)
    out.rows.append({"n": args.n, "gamma": args.gamma, "sup_cdf_error": err})


# ---------------------------------------------------------------------------
# wiring


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend defaults from --config FILE (key=value per line); flags win.

    Keys are flag names without the dashes; ``_`` may stand for ``-``, so
    ``burn_in`` and ``burn-in`` both set ``--burn-in``.  A line without
    ``=`` sets a switch: ``trace`` gives ``--trace``.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValidationError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    extra: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        extra.append(f"--{key.strip().replace('_', '-')}")
        if eq:
            extra.append(value.strip())
    # subcommand first, then file defaults, then explicit flags (argparse
    # lets later occurrences win)
    return rest[:1] + extra + rest[1:]


# flags several subcommands share, each declared once
_SHARED_FLAGS = {
    "n": {"type": int, "required": True},
    "beta": {"type": float, "required": True},
    "K": {"type": float, "required": True},
    "gamma": {"type": float, "default": 0.5},
    "cap": {"type": int, "default": DEFAULT_N_CAP},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="begrates",
        description="Mean-field three-state spin model computations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, shared=()):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    p = command("phase-diagram", _cmd_phase_diagram, "sample the critical curve K_c(beta)")
    p.add_argument("--beta-min", type=float, default=0.2)
    p.add_argument("--beta-max", type=float, default=2.5)
    p.add_argument("--samples", type=int, default=64)

    p = command("exact-law", _cmd_exact_law, "exact (s, M) law and its statistics",
                ("n", "beta", "K", "gamma", "cap"))
    p.add_argument("--max-atoms-listed", type=int, default=512,
                   help="omit the atom table when n exceeds this")

    p = command("limit-density", _cmd_limit_density, "normalise a comparison density")
    p.add_argument("--b1", type=float, default=0.0)
    p.add_argument("--b2", type=float, default=0.0)
    p.add_argument("--b3", type=float, default=0.0)
    p.add_argument("--max-moment", type=int, default=8)
    p.add_argument("--stein-constants", action="store_true")

    p = command("kolmogorov", _cmd_kolmogorov,
                "exact Kolmogorov distance to the density exp(-(b1 x^2 + b2 x^4 + b3 x^6))",
                ("n", "beta", "K", "gamma", "cap"))
    p.add_argument("--b1", type=float, default=0.5)
    p.add_argument("--b2", type=float, default=0.0)
    p.add_argument("--b3", type=float, default=0.0)

    p = command("stein-bound", _cmd_stein_bound, "itemised bound vs exact distance",
                ("n", "cap"))
    p.add_argument("--case", required=True)
    p.add_argument("--halfwidth", type=float, default=None,
                   help="A in the bound (default 2 n^(gamma-1) (1 + 1e-9))")

    p = command("rate-scan", _cmd_rate_scan, "ladder experiments and slope fits")
    p.add_argument("--threads", type=int, default=1, help="worker cap for --all")
    p.add_argument("--case", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--min-exp", type=int, default=DEFAULT_MIN_EXP)
    p.add_argument("--max-exp", type=int, default=None,
                   help="top exponent of every ladder (default each case's own)")
    p.add_argument("--per-n", action="store_true",
                   help="one row per ladder point instead of a summary")

    p = command("mcmc", _cmd_mcmc, "heat-bath sampler with batch-means errors",
                ("n", "beta", "K", "gamma"))
    p.add_argument("--seed", type=int, default=0, help="64-bit sampler seed")
    p.add_argument("--sweeps", type=int, default=20000)
    p.add_argument("--burn-in", type=int, default=2000)
    p.add_argument("--trace", action="store_true",
                   help="one row per measured sweep instead of a summary")

    command("case-catalog", _cmd_case_catalog, "all 42 convergence-rate cases")
    command("minimizers", _cmd_minimizers, "global minimizers of G", ("beta", "K"))
    command("hs-check", _cmd_hs_check, "Gaussian-smoothing identity error",
            ("n", "beta", "K", "gamma"))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        out = _Output(args)
        args.func(args, out)
        out.emit(args.output)
        return 0
    except ValidationError as exc:
        sys.stderr.write(f"error kind=validation message={exc}\n")
        return 2
    except (ComputationError, MemoryError) as exc:
        sys.stderr.write(f"error kind=computation message={str(exc) or 'out of memory'}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
