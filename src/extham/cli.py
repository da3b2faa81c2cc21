"""Command-line front end: verification sweeps, trajectories, CCM, tables.

All machine-readable reports go to stdout as JSON; human-oriented notes go
to stderr. Exit codes: 0 verified, 1 failed verification, 2 any other error,
reported as a JSON error. Reports quote the RNG (counter-based Philox) and seed, so
identical flags reproduce byte-identical output.
"""

import argparse
import functools
import inspect
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .catalog import BASES, FLOWS, MODELS, catalog_listing, ccm_pair
from .ccm import rescale_radial
from .duals import primal
from .dynamics import drift_report, integrate
from .extension import jacobian_rank, row_norms
from .ladder import ladder_eigen_pattern, ladder_from_base, ladder_residuals
from .phase import PhasePoint, bracket_of_gradients, evaluate_batch, partials_at
from .sampling import RNG_NAME, sample_points, sample_scalars
from .tagged_trig import GammaProfile, gamma, gamma_prime


def _emit(report):
    print(json.dumps(report, sort_keys=True, indent=2))


def _log(msg):
    print(msg, file=sys.stderr)


def _verdict(args, report, passed):
    """Emit a sampled check's report with the fields every one shares; exit 0 if passed, else 1."""
    report.update({"num_points": args.points, "rng": RNG_NAME, "rng_seed": args.seed,
                   "tolerance": args.tol, "pass": passed})
    _emit(report)
    return 0 if passed else 1


def _checked(convert, accept, what):
    """An argparse type that converts, then refuses values that fail accept."""
    def parse(text):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_finite_float = _checked(float, math.isfinite, "a finite number")
_nonzero_float = _checked(float, lambda v: math.isfinite(v) and v != 0.0,
                          "a finite nonzero number")
_seed = _checked(int, lambda v: 0 <= v < 2**128, "an integer in [0, 2**128)")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")


def _bracket_sweep(H, integrals, z):
    """(max |{H,K}|, max |{H,K}|/(|grad H||grad K|), jac) over the rows of z.

    Each function's gradient is taken once for all points: the columns of the
    (num, 2*dof) draw z go in as float64 arrays, which partials_at seeds in
    Duals, so every power and math function still runs entry by entry.
    jac[i, j] is the gradient of the j-th function at z[i], from which
    jacobian_rank gives the ranks. The brackets and their scales equal
    poisson_bracket and bracket_scale at each point; both take their norms
    from row_norms, so a scale stays finite where squared gradients overflow.
    Where the scale itself overflows, the bracket is divided by one norm at a
    time; where it underflows below the smallest normal double while both
    norms are positive, the bracket is taken of the gradients divided by
    their norms, so a non-integral cannot pass there. An inf or NaN gradient
    entry or bracket raises ValueError naming its point, the one PhasePoint
    built here; evaluate_batch refuses an overflow inside a gradient by its
    function: no bracket there can be checked. Each maximum is numpy's over
    finite values, which picks the same value Python's max does, and is
    returned as a float, so verdicts stay plain bools.
    """
    fs = [("H", H)] + list(integrals)
    d = H.dof
    q, p = tuple(z.T[:d]), tuple(z.T[d:])
    jac = np.empty((len(z), len(fs), 2 * d))
    for j, (name, f) in enumerate(fs):
        _, dq, dp = evaluate_batch(f"the gradient of {name}", partials_at, f, q, p)
        for s, v in enumerate(dq + dp):
            jac[:, j, s] = primal(v)  # a tangent that is a scalar zero broadcasts
    bad = np.flatnonzero(~np.isfinite(jac).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"non-finite gradient at sample point {bad[0]}: {PhasePoint.from_array(z[bad[0]])}")
    norms = row_norms(jac)
    max_abs = 0.0
    max_rel = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused or rescaled
        for j in range(1, len(fs)):
            b = abs(bracket_of_gradients(jac[:, 0].T, jac[:, j].T))
            bad = np.flatnonzero(~np.isfinite(b))
            if bad.size:
                raise ValueError(f"non-finite bracket {{H, {fs[j][0]}}} at sample point {bad[0]}: "
                                 f"{PhasePoint.from_array(z[bad[0]])}")
            max_abs = float(np.max(b, initial=max_abs))
            s = norms[:, 0] * norms[:, j]
            over = np.isinf(s)
            b[over] /= norms[over, 0]
            s[over] = norms[over, j]
            under = (s < sys.float_info.min) & (norms[:, 0] > 0.0) & (norms[:, j] > 0.0)
            if under.any():  # the bracket of the unit gradients, relative by itself
                unit = jac[under][:, [0, j]] / norms[under][:, [0, j], None]
                b[under] = abs(bracket_of_gradients(unit[:, 0].T, unit[:, 1].T))
                s[under] = 1.0
            max_rel = float(np.max(b[s > 0] / s[s > 0], initial=max_rel))
    return max_abs, max_rel, jac


# Highest momentum degree of a Minkowski wedge integral that verify checks. Past it
# the wedge integrals overflow double precision or break the rank SVD (k = 14, 15).
MAX_MINKOWSKI_DEGREE = 30


@functools.cache
def _reads(builder):
    """The flags a table entry reads: its builder's parameter names."""
    return tuple(inspect.signature(builder).parameters)


def _build(table, selector, args):
    """The table entry that --selector chose, built from the flags it reads.

    A flag that only other entries read is refused unless it keeps the
    subcommand's default (--k compared as text), so it cannot look as if it
    had an effect.
    """
    key = getattr(args, selector)
    ignored = {flag for entry in table.values() for flag in _reads(entry)} - set(_reads(table[key]))
    for flag in sorted(ignored):
        if getattr(args, flag) != args.default_of(flag):
            raise ValueError(f"--{flag.replace('_', '-')} is not read by --{selector} {key}")
    return table[key](**{flag: getattr(args, flag) for flag in _reads(table[key])})


def _verify_model(args):
    """The catalog model that verify checks for these flags."""
    model = _build(MODELS, "model", args)
    degree = (model.extension.first_integral_degree()
              if model.id == "minkowski" and model.extension else 0)
    if degree > MAX_MINKOWSKI_DEGREE:
        raise ValueError(f"{model.known_integrals[-1][0]} has momentum degree {degree}, "
                         f"above the cap of {MAX_MINKOWSKI_DEGREE} for the Minkowski wedge")
    return model


def cmd_verify(args):
    model = _verify_model(args)
    _log(f"verifying {model.id} ({model.chart}) with "
         f"{[name for name, _ in model.known_integrals]} at {args.points} points, seed {args.seed}")
    z = sample_points(args.points, args.seed, model.H.dof, q_ranges=model.q_windows)
    max_abs, max_rel, jac = _bracket_sweep(model.H, model.known_integrals, z)
    rank = int(jacobian_rank(jac).min())
    expected_rank = 1 + len(model.known_integrals)

    passed = (max_rel <= args.tol) and (rank == expected_rank)
    report = {
        "tool": f"extham {__version__}",
        "model": model.describe(),
        "integrals_checked": [name for name, _ in model.known_integrals],
        "max_abs_bracket": max_abs,
        "max_rel_bracket": max_rel,
        "independence_rank": rank,
        "expected_rank": expected_rank,
    }
    if model.extension is not None:
        report["m"] = model.extension.spec.m
        report["n"] = model.extension.spec.n
        report["Omega"] = args.omega
    return _verdict(args, report, passed)


def cmd_integrate(args):
    H, drift_fns, u_min = _build(FLOWS, "model", args)
    if u_min is None and args.u_min != args.default_of("u_min"):
        raise ValueError(f"--u-min is not read by --chart {args.chart}")
    x0 = PhasePoint(tuple(args.x0[:2]), tuple(args.x0[2:]))
    # open the output first, so a path that cannot be written fails before any step;
    # an existing file is overwritten in place and cut to the new length only once
    # there is a trajectory to replace it (on ext4, truncating a rewritten file to
    # zero stalled for 30-45 ms; cutting it at the written length did not)
    with open(os.open(args.csv, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as csv_file:
        H(x0)  # an x0 outside H's domain raises here, before the first step
        _log(f"integrating {args.model} for {args.steps} steps at h={args.h}")
        traj = integrate(H, x0, args.h, args.steps, u_min=u_min)
        if traj.status != "completed":
            _log(f"trajectory truncated: {traj.status} at step {traj.exit_step}")
        drifts = drift_report(traj, drift_fns)
        traj.write_csv(csv_file)
        csv_file.truncate()
    report = {
        "model": args.model,
        "h": args.h,
        "steps_requested": args.steps,
        "steps_completed": len(traj.states) - 1,
        "status": traj.status,
        "exit_step": traj.exit_step,
        "drift": drifts,
        "csv": args.csv,
        "method": traj.method,
    }
    _emit(report)
    return 0 if traj.status == "completed" else 1


_GAMMA_PRIME_EXPECTED = {
    (1, 1, False): "-sin^-2(u)",
    (1, -1, False): "-sinh^-2(u)",
    (-1, 1, False): "+sin^-2(u)",
    (-1, -1, False): "+sinh^-2(u)",
    (1, 1, True): "-cos^-2(u)",
    (1, -1, True): "+cosh^-2(u)",
    (-1, 1, True): "+cos^-2(u)",
    (-1, -1, True): "-cosh^-2(u)",
}

_GAMMA_SQ_EXPECTED = {
    (1, False): "tan^-2(u)",
    (-1, False): "tanh^-2(u)",
    (1, True): "tan^2(u)",
    (-1, True): "tanh^2(u)",
}

_CLASSIFY_SAMPLES = (0.37, 0.71, 1.13)


def _form(label, u):
    """The value at u of a table label [+-]fn^[-]2(u), fn a function of math: -sin^-2(u)."""
    sign, fn, power = re.fullmatch(r"([+-]?)(\w+)\^(-?2)\(u\)", label).groups()
    v = getattr(math, fn)(u) ** 2
    if power == "-2":
        v = 1.0 / v
    return -v if sign == "-" else v


def _classify(values, candidates):
    for label in candidates:
        forms = [_form(label, u) for u in _CLASSIFY_SAMPLES]
        if all(abs(v - f) <= 1e-10 * (1.0 + abs(f)) for v, f in zip(values, forms)):
            return label
    return "unclassified"


def _table_rows(cases, evaluate):
    """One row per (c, kappa, translated, expected): evaluate on the profile and classify
    among the expected labels."""
    candidates = [expected for *_, expected in cases]
    rows = []
    for c, kappa, translated, expected in cases:
        prof = GammaProfile.from_c_kappa(float(c), float(kappa), translated=translated)
        got = _classify([evaluate(prof, u) for u in _CLASSIFY_SAMPLES], candidates)
        rows.append({"c": c, "kappa": kappa, "translated": translated, "expected": expected,
                     "classified": got, "match": got == expected})
    return rows


def _constant_gamma_prime_rows():
    rows = []
    for C in (1.0, -1.0):
        prof = GammaProfile.from_c_C(0.0, C)
        values = {gamma_prime(prof, u) for u in _CLASSIFY_SAMPLES}
        ok = values == {-C}
        rows.append({"c": 0, "C": C, "expected": "-C (constant)", "match": ok})
    return rows


def cmd_gamma_table(args):
    """Evaluate gamma' and gamma^2 for c = +-1, kappa = +-1, both branches, and classify."""
    gp = _table_rows([(c, kappa, t, e) for (c, kappa, t), e in _GAMMA_PRIME_EXPECTED.items()],
                     gamma_prime)
    gs = _table_rows([(c, kappa, t, e) for (kappa, t), e in _GAMMA_SQ_EXPECTED.items() for c in (1, -1)],
                     lambda prof, u: gamma(prof, u) ** 2)
    cz = _constant_gamma_prime_rows()
    ok = all(r["match"] for r in gp + gs + cz)
    if args.json:
        _emit({"gamma_prime": gp, "gamma_squared": gs, "c_zero": cz, "pass": ok})
    else:
        for title, rows in (("gamma'", gp), ("gamma^2", gs)):
            print(f"{title} translation table")
            for r in rows:
                tag = "ok" if r["match"] else "MISMATCH"
                branch = "translated" if r["translated"] else "principal"
                print(f"  c={r['c']:+d} kappa={r['kappa']:+d} {branch:10s} -> {r['classified']:12s} [{tag}]")
        for r in cz:
            tag = "ok" if r["match"] else "MISMATCH"
            print(f"  c=0 C={r['C']:+.0f} -> gamma' = -C [{tag}]")
    return 0 if ok else 1


def cmd_ladder(args):
    base = _build(BASES, "branch", args)
    data = ladder_from_base(base)
    col = sample_scalars(args.points, args.seed, *base.psi_window)
    r1, r2, s = evaluate_batch("the ladder residual", ladder_residuals, data, col)
    # r2 carries c1, so a non-finite c1 is refused at every point; max() would skip NaN
    finite = np.isfinite(r1) & np.isfinite(r2) & np.isfinite(s)
    bad = np.flatnonzero(~np.broadcast_to(finite, col.shape))
    if bad.size:
        raise ValueError(f"non-finite ladder residual at sample point {bad[0]}: psi={col[bad[0]].item()!r}")
    worst = max(float(np.max(abs(r1) / s, initial=0.0)), float(np.max(abs(r2) / s, initial=0.0)))
    passed = worst <= args.tol

    diag = {"status": "reported"}
    try:
        x = PhasePoint((col[0],), (0.8,))
        pattern = ladder_eigen_pattern(data, x)
        diag.update({k: float(v) for k, v in pattern.items()})
    except ValueError as exc:
        diag = {"status": "domain-invalid", "reason": str(exc)}

    report = {
        "branch": args.branch,
        "family": base.family,
        "c1": data.c1,
        "max_rel_residual": worst,
        "eigen_diagnostic": diag,
    }
    return _verdict(args, report, passed)


def cmd_ccm(args):
    Hp, Kp, windows = ccm_pair(args.m, args.n, args.eta, args.alpha, args.beta, args.E)
    z = sample_points(args.points, args.seed, 2, q_ranges=windows)
    max_abs, max_rel, _ = _bracket_sweep(Hp, [("Kprime", Kp)], z)
    max_abs2, max_rel2, _ = _bracket_sweep(rescale_radial(Hp), [("K2", rescale_radial(Kp))], z)

    passed = max_rel <= args.tol and max_rel2 <= args.tol
    report = {
        "transform": {"U": "u^2", "Etilde": "-eta^4 Omega", "E": args.E},
        "m": args.m,
        "n": args.n,
        "eta": args.eta,
        "max_rel_bracket": max_rel,
        "rescaled_max_rel_bracket": max_rel2,
        "max_abs_bracket": max(max_abs, max_abs2),
    }
    return _verdict(args, report, passed)


def cmd_catalog(args):
    _emit({"models": catalog_listing(), "rng": RNG_NAME})
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors and failed writes raise, so main reports them like every other error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")

    def _print_message(self, message, file=None):
        (file or sys.stderr).write(message)  # argparse's own swallows OSError: --help would exit 0 unread


def build_parser():
    ap = _ArgumentParser(
        prog="extham",
        description="Build extended Hamiltonians and verify their first integrals numerically.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=7, help="RNG seed (Philox counter-based)")
        p.add_argument("--points", type=_positive_int, default=50, help="number of sample points")
        p.add_argument("--tol", type=_tolerance, default=1e-9,
                       help="relative bracket tolerance")

    pv = sub.add_parser("verify", help="bracket and independence sweep for a catalog model")
    common(pv)
    pv.add_argument("--model", required=True, choices=list(MODELS))
    pv.add_argument("--k", default="1",
                    help="rational parameter p/q; write a negative k as --k=-1/2")
    pv.add_argument("--alpha", type=_finite_float, default=1.0)
    pv.add_argument("--beta", type=_finite_float, default=2.0)
    pv.add_argument("--omega", type=_finite_float, default=0.0)
    pv.add_argument("--eta", type=_finite_float, default=2.0)
    pv.add_argument("--psi0", type=_finite_float, default=0.2)
    pv.add_argument("--m", type=int, default=2)
    pv.add_argument("--n", type=int, default=1)
    pv.add_argument("--d", type=_finite_float, default=2.0)
    pv.add_argument("--no-integral", action="store_true",
                    help="allow irrational k; verifies only L conservation")
    pv.set_defaults(func=cmd_verify, default_of=pv.get_default)

    pi = sub.add_parser("integrate", help="implicit-midpoint trajectory with drift summary")
    pi.add_argument("--model", default="minkowski", choices=list(FLOWS))
    pi.add_argument("--k", default="1",
                    help="rational parameter p/q; write a negative k as --k=-1/2")
    pi.add_argument("--alpha", type=_finite_float, default=1.0)
    pi.add_argument("--beta", type=_finite_float, default=2.0)
    pi.add_argument("--omega", type=_finite_float, default=0.0)
    pi.add_argument("--chart", default="pseudo-polar", choices=["pseudo-polar", "null"])
    pi.add_argument("--x0", type=_finite_float, nargs=4, required=True,
                    metavar=("Q1", "Q2", "P1", "P2"),
                    help="initial point; write a negative value without an exponent (-3.2)")
    pi.add_argument("--h", type=_nonzero_float, default=1e-3,
                    help="nonzero step size; negative runs the exact time reversal "
                         "(write --h=-1e-3: after a space, -1e-3 reads as an option)")
    pi.add_argument("--steps", type=_positive_int, default=10000)
    pi.add_argument("--u-min", type=_finite_float, default=0.05,
                    help="truncate when the pseudo-polar radial coordinate u drops below this")
    pi.add_argument("--csv", default="trajectory.csv")
    pi.add_argument("--no-integral", action="store_true")
    pi.set_defaults(func=cmd_integrate, default_of=pi.get_default)

    pg = sub.add_parser("gamma-table", help="reproduce the gamma'/gamma^2 translation tables")
    pg.add_argument("--json", action="store_true", help="one JSON report instead of text tables")
    pg.set_defaults(func=cmd_gamma_table)

    pl = sub.add_parser("ladder", help="ladder-function residuals for a base family")
    common(pl)
    pl.add_argument("--branch", default="hyperbolic", choices=list(BASES))
    pl.add_argument("--alpha", type=_finite_float, default=0.7)
    pl.add_argument("--beta", type=_finite_float, default=1.3)
    pl.add_argument("--eta", type=_finite_float, default=2.0)
    pl.add_argument("--psi0", type=_finite_float, default=0.2)
    pl.set_defaults(func=cmd_ladder, default_of=pl.get_default, tol=1e-10)

    pc = sub.add_parser("ccm", help="coupling-constant metamorphosis verification")
    common(pc)
    pc.add_argument("--m", type=int, default=2)
    pc.add_argument("--n", type=int, default=1)
    pc.add_argument("--eta", type=_finite_float, default=2.0)
    pc.add_argument("--alpha", type=_finite_float, default=0.7)
    pc.add_argument("--beta", type=_finite_float, default=1.3)
    pc.add_argument("--E", type=_finite_float, default=0.4)
    pc.set_defaults(func=cmd_ccm)

    pcat = sub.add_parser("catalog", help="machine-readable model catalog")
    pcat.set_defaults(func=cmd_catalog)

    return ap


@functools.cache
def _parser():
    """The parser main uses, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None):
    """Run one subcommand; any error that is not a verdict exits 2, a closed stdout included."""
    try:
        try:
            args = _parser().parse_args(argv)
            return args.func(args)
        except BrokenPipeError:
            raise
        except Exception as exc:
            _log(f"error: {type(exc).__name__}: {exc}")
            _emit({"error": str(exc)})
            return 2
        finally:
            sys.stdout.flush()  # a closed stdout raises here rather than at interpreter exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush cannot raise
        _log("error: stdout has no reader")
        return 2


if __name__ == "__main__":
    sys.exit(main())
