"""Command-line front end: subcommand dispatch, JSON run specs, CSV/JSON
artifacts, and golden-data regeneration.

One table, COMMANDS, gives each command's handler and flags, and the one
argument parser is built from it.  A run spec is turned into the command
line it stands for and goes through that same parser: besides "command",
each field is the flag of its name with '_' for '-' (flags are never
abbreviated), and a field given twice is refused.  So
`invsq fixed-points --alpha -0.1875` and `invsq --spec spec.json` (with
{"command": "fixed-points", "alpha": -0.1875}) are interchangeable.
One runner, `run`, serves `main` and `regen-golden`: it builds the model
ModelParams(--alpha) as ns.params, calls the handler, writes the CSV
Table it returns (provenance "tool" and "alpha" first, 17 significant
digits) to --out or $INVSQ_OUTDIR, and ends the summary with " -> path"
and the JSON with "path".  Lengths are in units of x0 = 1, so "b x0" in
a CSV column label reads as b.

Exit codes: 0 success, 2 validation failure (a nan or +-inf input), 3 numerical
failure, 4 I/O failure.  Failures print a machine-readable JSON error line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import classical, propagator, rgflow, scattering, spectrum
from .core import (KIND_GENERIC, KIND_LINEAR, KIND_SQUARE, ModelParams, Regulator,
                   fixed_points, square_well)
from .numerics import NumericalError

OUTDIR_ENV = "INVSQ_OUTDIR"
SCHEMES = {"square": KIND_SQUARE, "linear": KIND_LINEAR, "generic": KIND_GENERIC}


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def write_csv(path: Path, header_lines, columns, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _regulator(ns, g) -> Regulator:
    """The regulator at depth g (None: no --g given) of --scheme, --b and --profile."""
    if g is None:
        raise ValueError("this run needs --g")
    if ns.scheme != "generic":
        if ns.profile is not None:
            raise ValueError(f"--profile is read by the generic scheme only, not {ns.scheme}")
        return Regulator(SCHEMES[ns.scheme], g, ns.b)
    if ns.profile is None:
        raise ValueError("the generic scheme needs --profile")
    prof = json.loads(Path(ns.profile).read_text())
    try:
        return Regulator(KIND_GENERIC, g, ns.b, tuple(prof["x"]), tuple(prof["f"]))
    except (TypeError, KeyError) as exc:
        raise ValueError(f"--profile needs a JSON object with x and f tables ({exc!r})") from exc


class Table(NamedTuple):
    """A command's CSV: file name, column labels, rows, provenance after tool and alpha."""
    name: str
    columns: list
    rows: list
    provenance: dict


def run(ns):
    """(summary, payload) of a parsed command, its Table written and its path in both."""
    alpha = getattr(ns, "alpha", None)
    ns.params = None if alpha is None else ModelParams(alpha)
    summary, payload, table = ns.handler(ns)
    if table is None:
        return summary, payload
    out = Path(ns.out or os.environ.get(OUTDIR_ENV, ".")) / table.name
    items = {"tool": f"invsq {__version__}", "alpha": alpha, **table.provenance}
    write_csv(out, [f"{k} = {_fmt(v)}" for k, v in items.items() if v is not None],
              table.columns, table.rows)
    return f"{summary} -> {out}", {**payload, "path": str(out)}


# ---------------------------------------------------------------------------
# command handlers: each returns (summary, payload, Table or None)
# ---------------------------------------------------------------------------

def cmd_fixed_points(ns):
    p = ns.params
    g_plus, g_minus = fixed_points(p)
    payload = {"alpha": p.alpha, "omega": p.omega, "nu_plus": p.nu_plus,
               "nu_minus": p.nu_minus, "g_plus": g_plus, "g_minus": g_minus}
    return f"g_plus={g_plus:.6f} g_minus={g_minus:.6f}", payload, None


def cmd_flow(ns):
    bs = np.geomspace(ns.b0, ns.b1, ns.steps) if ns.steps > 1 else [ns.b1]
    states = [rgflow.flow(ns.params, ns.gamma0, ns.b0, float(b)) for b in bs]
    rows = [(float(b), st.gamma, st.g, st.u, int(st.exited)) for b, st in zip(bs, states)]
    last = rows[-1]
    return f"flow to b={last[0]:g}: gamma={last[1]:.8f}", {"rows": len(rows)}, Table(
        "flow.csv", ["b (dimensionless)", "gamma (dimensionless)", "g (dimensionless)",
                     "u (dimensionless)", "exited (0/1)"], rows,
        {"gamma0": ns.gamma0, "b0": ns.b0})


def cmd_contours(ns):
    xi = np.geomspace(ns.xi_min, ns.xi_max, ns.n_xi)
    rows = [(xiv, g, r) for r in (float(r) for r in ns.ratios.split(","))
            for (xiv, g) in rgflow.contour_constant_ratio(ns.params, r, xi)]
    return f"{len(rows)} contour points", {"rows": len(rows)}, Table(
        "contours.csv", ["xi (b x0 sqrt(E), dimensionless)", "g (dimensionless)",
                         "ratio (C+/C-)"], rows, {"ratios": ns.ratios})


def cmd_bound_state(ns):
    p = ns.params
    if ns.g is None and not ns.g_list:
        raise ValueError("bound-state needs --g or --g-list")
    if ns.g_list:
        if ns.g is not None:
            raise ValueError("give --g or --g-list, not both")
        if ns.scheme != "square" or ns.profile is not None:
            raise ValueError("--g-list sweeps the square well only")
        rows = []
        for g in (float(v) for v in ns.g_list.split(",")):
            reg = square_well(g, ns.b)
            st = spectrum.bound_state(p, reg)
            rows.append((p.alpha, reg.kind, reg.b, g) + ((math.nan,) * 3 if st is None else
                        (st.energy, st.xi, spectrum.mean_position(p, reg))))
        return f"{len(rows)} sweep rows", {"rows": len(rows)}, Table(
            "bound_state_sweep.csv", ["alpha (dimensionless)", "scheme", "b (dimensionless)",
                                      "g (dimensionless)", "E (1/length^2)",
                                      "xi (dimensionless)", "mean_x (length)"], rows,
            {"scheme": KIND_SQUARE})
    st = spectrum.bound_state(p, _regulator(ns, ns.g))
    if st is None:
        return "no bound state (g <= g_minus)", {"bound": None}, None
    payload = {"energy": st.energy, "xi": st.xi, "A": st.A, "C": st.C, "norm": st.norm}
    return f"E={st.energy:.10g}", {"bound": payload}, None


def cmd_exponent(ns):
    p = ns.params
    reg = _regulator(ns, 0.0)  # the fit sets each depth from the profile's own g_*
    fit = spectrum.generic_bound_threshold(p, reg, window=(ns.window_lo, ns.window_hi),
                                           n_points=ns.n_points)
    rows = [(p.alpha, reg.kind, reg.b, g, -e, reg.b * math.sqrt(e), fit.exponent)
            for g, e in zip(fit.g, fit.eps)]
    found = {"g_star": fit.g_star, "exponent": fit.exponent, "amplitude": fit.amplitude,
             "residual": fit.residual}
    return (f"exponent={fit.exponent:.4f} (1/omega={1.0 / p.omega:.4f}) g*={fit.g_star:.6f}",
            {**found, "one_over_omega": 1.0 / p.omega}, Table(
                f"exponent_{reg.kind.lower()}.csv",
                ["alpha (dimensionless)", "scheme", "b (dimensionless)", "g (dimensionless)",
                 "E (1/length^2)", "xi (dimensionless)", "slope (fit, dimensionless)"], rows,
                {"scheme": reg.kind, **found,
                 "tolerance": f"window [{ns.window_lo},{ns.window_hi}]"}))


def cmd_propagator(ns):
    p = ns.params
    reg = _regulator(ns, ns.g)
    smp = propagator.propagator_quadrature(p, reg, ns.x, ns.y, ns.t, rtol=ns.rtol)
    g_plus, g_minus = (spectrum.threshold(p, reg, nu) for nu in (p.nu_plus, p.nu_minus))
    sign = 1 if abs(reg.g - g_plus) <= abs(reg.g - g_minus) else -1
    u = reg.g - g_plus if sign == 1 else g_minus - reg.g
    payload = {"alpha": p.alpha, "b": reg.b, "g": reg.g, "x": ns.x, "y": ns.y,
               "t": ns.t, "G": smp.value, "quad_error": smp.quad_error}
    return f"G={smp.value:.12g} (err {smp.quad_error:.1e})", payload, Table(
        "propagator.csv", ["alpha (dimensionless)", "sign (nearest fixed point)",
                           "b (dimensionless)", "u (reduced coupling)", "x (length)",
                           "y (length)", "t (length^2)", "G (1/length)",
                           "quad_error (1/length)"],
        [(p.alpha, sign, reg.b, u, ns.x, ns.y, ns.t, smp.value, smp.quad_error)],
        {"rtol": ns.rtol})


def cmd_scaling_check(ns):
    p = ns.params
    if ns.law != "exact" and (ns.scheme != "square" or ns.g is not None
                              or ns.profile is not None):
        # the (b, u) laws build square wells of their own from --b and --u
        raise ValueError(f"the {ns.law} law takes --b and --u on the square well, "
                         "not --scheme, --g or --profile")
    unread = {"exact": ("u", "sign"), "callan-symanzik": ("lam",)}.get(ns.law, ())
    given = [name for name in unread if getattr(ns, name) is not None]
    if given:
        raise ValueError(f"the {ns.law} law does not read {', '.join(given)}")
    u = 1e-3 if ns.u is None else ns.u
    sign = 1 if ns.sign is None else ns.sign
    lam = 2.0 if ns.lam is None else ns.lam
    if ns.law == "exact":
        r = propagator.check_exact_law(p, _regulator(ns, ns.g), ns.x, ns.y, ns.t, lam)
    elif ns.law == "asymptotic":
        r = propagator.check_asymptotic_law(p, ns.b, u, sign, ns.x, ns.y, ns.t, lam)
    elif ns.law == "scaling":
        r = propagator.check_scaling_relation(p, ns.b, u, sign, lam, ns.x, ns.y, ns.t)
    else:  # callan-symanzik, the last of the flag's choices
        r = propagator.callan_symanzik_residual(p, ns.b, u, sign, ns.x, ns.y, ns.t)
    return f"{ns.law} residual = {r:.3e}", {"law": ns.law, "residual": r}, None


def cmd_collapse(ns):
    tab = propagator.scaling_collapse(ns.params, sign=ns.sign, b0=ns.b0, u0=ns.u0,
                                      n_b=ns.n_b, n_u=ns.n_u, x=ns.x, t=ns.t)
    fit = {"spread": tab.spread, "exponent_steep": tab.exponent_steep,
           "exponent_shallow": tab.exponent_shallow, "c": tab.c}
    return (f"collapse spread={tab.spread:.4f} exponents=({tab.exponent_steep:.4f},"
            f"{tab.exponent_shallow:.4f})"), fit, Table(
        "collapse.csv", ["z (b (u/u0)^{1/2 omega}, dimensionless)",
                         "Phi (length^{-1/2} scale)"], list(zip(tab.z, tab.phi)),
        {"u0": ns.u0, **fit})


def cmd_phase_shift(ns):
    reg = _regulator(ns, ns.g)
    ks = np.geomspace(ns.k_min, ns.k_max, ns.n_k)
    deltas = scattering.phase_shift_sweep(ns.params, reg, ks)
    r = -np.exp(2j * deltas)
    rows = list(zip(ks * reg.b, [reg.g] * len(ks), r.real, r.imag, deltas))
    return f"{len(rows)} phase-shift points", {"rows": len(rows)}, Table(
        "phase_shift.csv", ["mu (k b x0, dimensionless)", "g (dimensionless)",
                            "Re r (dimensionless)", "Im r (dimensionless)", "delta (rad)"],
        rows, {"g": reg.g, "b": reg.b})


def cmd_phase_curve(ns):
    path = scattering.constant_phase_curve(ns.params, ns.mu0, ns.g0, ns.mu1)
    return (f"curve of {len(path)} points, g({ns.mu1:g})={path[-1][1]:.8f}",
            {"rows": len(path), "g_end": path[-1][1]},
            Table("phase_curve.csv", ["mu (dimensionless)", "g (dimensionless)"], path,
                  {"mu0": ns.mu0, "g0": ns.g0}))


def cmd_feynman_kac(ns):
    if ns.mode == "barrier" and (ns.g is not None or ns.profile is not None
                                 or ns.scheme != "square" or ns.b != 1.0):
        raise ValueError("barrier mode has no well: it takes no --g, --profile, --b "
                         "or --scheme")
    if ns.mode == "regulated" and ns.alpha is None:
        raise ValueError("regulated mode needs --alpha")
    regs = [_regulator(ns, ns.g)] if ns.mode == "regulated" else []
    spec = classical.PathEnsembleSpec(y=ns.y, x=ns.x, t=ns.t, n_steps=ns.n_steps,
                                      n_samples=ns.n_samples, seed=ns.seed)
    stats = {}
    [(w, err)] = classical.feynman_kac_batch(ns.params, regs, spec, ns.mode, ns.threads,
                                             stats=stats)
    diagnostics = {"ess_fraction": stats["ess_fraction"][0],
                   "max_weight_share": stats["max_weight_share"][0]}
    return f"W = {w:.8g} +- {err:.2g}", \
        {"W": w, "stderr": err, "diagnostics": diagnostics}, Table(
            "feynman_kac.csv", ["x (length)", "y (length)", "t (length^2)", "N", "n_samples",
                                "W (1/length)", "stderr (1/length)"],
            [(ns.x, ns.y, ns.t, spec.n_links, ns.n_samples, w, err)],
            {"mode": ns.mode, "seed": ns.seed, **diagnostics})


def cmd_chain(ns):
    reg = _regulator(ns, ns.g)
    res = classical.free_energy_density(ns.params, reg, threads=ns.threads,
                                        eps_list=tuple(map(float, ns.eps_list.split(","))))
    rows = [(reg.g, e, res.n_grid, f, res.E0) for e, f in zip(res.eps_used, res.f_raw)]
    rows.append((reg.g, 0.0, res.n_grid, res.f_xy, res.E0))
    diagnostics = {"eigen_iterations": list(res.eigen_iterations),
                   "eigen_residual": res.eigen_residual}
    return f"f={res.f_xy:.8g} (E0={res.E0:.8g}, {res.phase})", \
        {"f": res.f_xy, "E0": res.E0, "phase": res.phase, "diagnostics": diagnostics}, Table(
            "chain.csv", ["g (dimensionless)", "epsilon (length^2)", "n_grid",
                          "f (1/length^2)", "E0_ref (1/length^2)"], rows,
            {"phase": res.phase, "order": res.order,
             "eigen_iterations": " ".join(map(str, res.eigen_iterations)),
             "eigen_residual": res.eigen_residual,
             "note": "epsilon = 0 row is the extrapolation"})


def cmd_limit_cycle(ns):
    p = ns.params
    bs = [ns.b * math.exp(-shift * math.pi / p.omega) for shift in range(ns.n_periods)]
    states = [rgflow.limit_cycle(p, b, ns.eps) for b in bs]
    rows = [(math.log(b), ns.eps, i, g) for b, st in zip(bs, states)
            for i, g in enumerate(st.g_branches)]
    gs = states[0].g_branches
    return f"roots at b={ns.b:g}: {[f'{g:.8f}' for g in gs]}", \
        {"phi": states[0].phi, "roots": list(gs)}, Table(
            "limit_cycle.csv", ["log_b (dimensionless)", "eps (-E x0^2, dimensionless)",
                                "g_root_index", "g (dimensionless)"], rows,
            {"abs_omega": p.omega, "phi": states[0].phi})


def cmd_regen_golden(ns):
    out = [f"--out={ns.out}"] if ns.out else []
    results = {key: run(_build_parser().parse_args(job.split() + ["--alpha=-0.1875"] + out))[1]
               for key, job in GOLDEN_JOBS.items()}
    return f"golden data regenerated in {Path(results['collapse']['path']).parent}", \
        results, None


# the runs behind golden/: result key -> command line, at alpha = -3/16
GOLDEN_JOBS = {
    "contours": "contours --ratios 1,2,4 --xi-min 1e-4 --xi-max 0.5 --n-xi 40",
    "collapse": "collapse",
    "exponent-square": "exponent --scheme square",
    "exponent-linear": "exponent --scheme linear",
}


# ---------------------------------------------------------------------------
# the command table, and the parser and run-spec loader built from it
# ---------------------------------------------------------------------------

def finite_list(text: str) -> str:
    """A comma-separated list flag's text, once each of its numbers is finite."""
    if not all(math.isfinite(float(item)) for item in text.split(",")):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite: nan and +-inf are refused")
    return text


def finite(text: str) -> float:
    """A number flag's value, refusing nan and +-inf as finite_list does."""
    return float(finite_list(text))


def positive(text: str) -> float:
    """A finite number flag's value that must be > 0 (an end of a geometric grid)."""
    x = finite(text)
    if not x > 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive: it must be > 0")
    return x


def count(text: str) -> int:
    """A count flag's value: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a count: it must be >= 1")
    return n


class Flag(NamedTuple):
    """One flag: --name (with '-' for '_') on the command line, name in a run spec."""
    name: str
    type: Callable = finite
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str | None = None


MODEL = (Flag("alpha", required=True, help="dimensionless coupling of alpha/x^2"),)
OPTIONAL_MODEL = (Flag("alpha", help="dimensionless coupling of alpha/x^2 "
                       "(regulated mode; barrier mode does not read it)"),)
WELL = (Flag("scheme", str, "square", choices=tuple(SCHEMES)),
        Flag("b", default=1.0, help="width factor: the well fills 0 < x < b x0"),
        Flag("profile", str, help="JSON file with {x: [...], f: [...]} (generic)"))
DEPTH = (Flag("g", required=True, help="well depth"),)
OPTIONAL_DEPTH = (Flag("g", help="well depth"),)
OUT = Flag("out", str, help=f"output directory (default ${OUTDIR_ENV} or .)")
THREADS = Flag("threads", count, 1)

COMMANDS = {
    "fixed-points": (cmd_fixed_points, MODEL),
    "flow": (cmd_flow, MODEL + (
        Flag("gamma0", required=True),
        Flag("b0", positive, 1.0),
        Flag("b1", positive, required=True),
        Flag("steps", count, 1),
        OUT)),
    "contours": (cmd_contours, MODEL + (
        Flag("ratios", finite_list, "1"),
        Flag("xi_min", positive, 1e-4),
        Flag("xi_max", positive, 0.5),
        Flag("n_xi", count, 40),
        OUT)),
    "bound-state": (cmd_bound_state, MODEL + WELL + OPTIONAL_DEPTH + (
        Flag("g_list", finite_list, help="comma-separated depths: write the sweep CSV instead"),
        OUT)),
    "exponent": (cmd_exponent, MODEL + WELL + (
        Flag("window_lo", default=1e-4),
        Flag("window_hi", default=1e-2),
        Flag("n_points", count, 20),
        OUT)),
    "propagator": (cmd_propagator, MODEL + WELL + DEPTH + (
        Flag("x", required=True),
        Flag("y", required=True),
        Flag("t", required=True),
        Flag("rtol", default=1e-9),
        OUT)),
    "scaling-check": (cmd_scaling_check, MODEL + WELL + OPTIONAL_DEPTH + (
        Flag("law", str, required=True,
             choices=("exact", "asymptotic", "scaling", "callan-symanzik")),
        Flag("u", help="reduced coupling, default 1e-3 (not read by the exact law)"),
        Flag("sign", int, choices=(1, -1),
             help="fixed point g_+ (1, default) or g_- (-1) (not read by the exact law)"),
        Flag("lam", help="rescaling factor, default 2 (not read by callan-symanzik)"),
        Flag("x", default=1.0),
        Flag("y", default=1.0),
        Flag("t", default=1.0))),
    "collapse": (cmd_collapse, MODEL + (
        Flag("sign", int, 1, choices=(1, -1)),
        Flag("b0", default=1.0),
        Flag("u0", default=2e-3),
        Flag("n_b", count, 5),
        Flag("n_u", count, 5),
        Flag("x", default=2.0),
        Flag("t", default=1e5),
        OUT)),
    "phase-shift": (cmd_phase_shift, MODEL + WELL + DEPTH + (
        Flag("k_min", positive, 1e-4),
        Flag("k_max", positive, 1.0),
        Flag("n_k", count, 50),
        OUT)),
    "phase-curve": (cmd_phase_curve, MODEL + (
        Flag("mu0", required=True),
        Flag("g0", required=True),
        Flag("mu1", required=True),
        OUT)),
    "feynman-kac": (cmd_feynman_kac, OPTIONAL_MODEL + WELL + OPTIONAL_DEPTH + (
        Flag("x", required=True),
        Flag("y", required=True),
        Flag("t", required=True),
        Flag("n_steps", count, 16, help="bridge links, at most 16 are drawn; each is weighed "
             "exactly (link kernel, or crossing factor in barrier mode)"),
        Flag("n_samples", count, 100000),
        Flag("seed", int, 20260808),
        Flag("mode", str, "regulated", choices=("regulated", "barrier")),
        OUT,
        THREADS)),
    "chain": (cmd_chain, MODEL + WELL + DEPTH + (
        Flag("eps_list", finite_list, "0.1,0.05,0.025", help="time steps in units of (b x0)^2; "
             "the grid pitch divides b x0"),
        OUT,
        THREADS)),
    "limit-cycle": (cmd_limit_cycle, MODEL + (
        Flag("b", default=1.0),
        Flag("eps", required=True),
        Flag("n_periods", count, 1),
        OUT)),
    "regen-golden": (cmd_regen_golden, (OUT,)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed argv is reported like a malformed run spec: one JSON line, exit 2
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="invsq", allow_abbrev=False,
                 description="numerical laboratory for the regulated inverse-square potential")
    ap.add_argument("--spec", help="JSON run-spec file instead of a subcommand")
    sub = ap.add_subparsers(dest="command")
    for name, (handler, flags) in COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for f in flags:
            sp.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=f.type,
                            default=f.default, required=f.required, choices=f.choices,
                            help=f.help)
        sp.set_defaults(handler=handler)
    return ap


def _spec_argv(spec) -> list:
    """The command line a run-spec object stands for: each field but "command" is a flag."""
    if not isinstance(spec, dict) or spec.get("command") not in tuple(COMMANDS):
        raise ValueError(f"a run spec needs a 'command' among {list(COMMANDS)}")
    fields = [(k, v) for k, v in spec.items() if k != "command"]
    for key, val in fields:
        if not key.isidentifier() or isinstance(val, bool) or not isinstance(val, (int, float, str)):
            raise ValueError(f"unsupported run-spec field {key!r}: {val!r}")
    return [spec["command"]] + [f"--{k.replace('_', '-')}={v}" for k, v in fields]


def _unique_fields(pairs) -> dict:
    """A JSON object's fields, refusing a name given twice (json.loads keeps the last)."""
    names = [k for k, _ in pairs]
    twice = sorted({k for k in names if names.count(k) > 1})
    if twice:
        raise ValueError(f"run-spec fields given twice: {twice}")
    return dict(pairs)


def _join_negative_values(argv) -> list:
    """`--flag -1e-1` as `--flag=-1e-1`: argparse takes only plain decimals for negative values."""
    out = []
    for token in argv:
        try:
            negative = float(token) < 0.0
        except ValueError:
            negative = False
        if negative and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
        ns = _build_parser().parse_args(argv)
        if ns.spec:
            if ns.command:
                raise ValueError("give a subcommand or --spec, not both")
            spec = json.loads(Path(ns.spec).read_text(encoding="utf-8"),
                              object_pairs_hook=_unique_fields)
            ns = _build_parser().parse_args(_spec_argv(spec))
        if not ns.command:
            raise ValueError("give a subcommand or --spec")
        summary, payload = run(ns)
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}))
        return 2
    except NumericalError as exc:
        print(json.dumps({"error": "numerical", "detail": str(exc)}))
        return 3
    except OSError as exc:
        print(json.dumps({"error": "io", "detail": str(exc)}))
        return 4
    print(summary)
    print(json.dumps(payload, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
