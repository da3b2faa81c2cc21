"""Correctness checks the benchmark applies to the program's outputs.

Each check compares an output against a property the method must have, or
against a computation written here apart from the package: the integral
index rule, central-difference Poisson brackets, the pseudo-polar -> null
map and the paper's null-coordinate Hamiltonian. None compares against a
stored copy of an earlier output.
"""

import csv
import math
from fractions import Fraction

# relative agreement of recursive and closed-form constructions
ORACLE_TOL = 1e-10
# the verify sweep's relative bracket tolerance, reused for {H, K_recursive}
BRACKET_TOL = 1e-9
# implicit midpoint is second order: the relative H drift over the flow
# window stays below DRIFT_AT_MS * (h / 1 ms)^2
DRIFT_AT_MS = 5e-4
# halving h must divide the H drift by a factor in this range (ideal: 4)
ORDER_RATIO = (3.0, 5.5)


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# -- sweep: verdicts and integral labels -------------------------------------

CURVED = ("sphere", "pseudosphere", "de-sitter", "anti-de-sitter")


def expected_integrals(model, k, omega, m, n):
    """Labels of the integrals a catalog model must carry, from its parameters.

    The extension indices satisfy m/n = 2(k+1) on the Minkowski wedge and
    m/n = k+1 on the curved backgrounds, in lowest terms; the flat TTW model
    takes (m, n) as given. With Omega != 0 the integral is Kbar(m, n) for
    even m and Kbar(2m, 2n) for odd m.
    """
    if model == "remark-h1":
        return ["I1"]
    if model == "remark-h2":
        return ["I2"]
    if model == "minkowski":
        ratio = 2 * (Fraction(k) + 1)
        m, n = ratio.numerator, ratio.denominator
    elif model in CURVED:
        ratio = Fraction(k) + 1
        m, n = ratio.numerator, ratio.denominator
    elif model != "ttw-flat":
        raise ValueError(f"unknown model {model!r}")
    if omega == 0.0:
        label = f"K({m},{n})"
    elif m % 2 == 0:
        label = f"Kbar({m},{n})"
    else:
        label = f"Kbar({2 * m},{2 * n})"
    return ["L", label]


def refused(code, report):
    """Exit code 2: the package refused the input, a failed operation."""
    return code == 2 and "error" in report


def check_exit_code(code, report):
    require(code == (0 if report["pass"] else 1),
            f"exit code {code} disagrees with pass={report['pass']}")


def check_verify_report(code, report, labels):
    """The verdict follows from the report's own figures; returns the verdict."""
    if refused(code, report):
        return False
    require(report["integrals_checked"] == labels,
            f"integrals {report['integrals_checked']} != index rule {labels}")
    require(report["expected_rank"] == 1 + len(labels),
            f"expected_rank {report['expected_rank']} for {len(labels)} integrals")
    verdict = (report["max_rel_bracket"] <= report["tolerance"]
               and report["independence_rank"] == report["expected_rank"])
    require(report["pass"] == verdict,
            f"pass={report['pass']} but max_rel_bracket={report['max_rel_bracket']:.3e}, "
            f"tol={report['tolerance']}, rank {report['independence_rank']}/{report['expected_rank']}")
    check_exit_code(code, report)
    return report["pass"]


def check_ccm_report(code, report):
    if refused(code, report):
        return False
    verdict = (report["max_rel_bracket"] <= report["tolerance"]
               and report["rescaled_max_rel_bracket"] <= report["tolerance"])
    require(report["pass"] == verdict, f"ccm pass={report['pass']} disagrees with its brackets")
    check_exit_code(code, report)
    return report["pass"]


def check_ladder_report(code, report):
    if refused(code, report):
        return False
    verdict = report["max_rel_residual"] <= report["tolerance"]
    require(report["pass"] == verdict, f"ladder pass={report['pass']} disagrees with its residual")
    check_exit_code(code, report)
    return report["pass"]


# -- sweep: brackets from central differences ----------------------------------


# Ridders' extrapolation of central differences: the step shrinks by
# RIDDERS_CON per stage, at most RIDDERS_STAGES stages, and stops once the
# extrapolated values start to diverge (round-off has taken over)
RIDDERS_CON = 1.4
RIDDERS_STAGES = 10
RIDDERS_SAFE = 2.0


def ridders_derivative(g, h):
    """d/dt g(t) at t = 0 from central differences of g: (value, error estimate).

    The Neville tableau extrapolates the differences at h, h/1.4, ... to a
    zero step; its error estimate covers both the truncation error and the
    round-off in the differences, since it grows when round-off dominates.
    """
    con2 = RIDDERS_CON * RIDDERS_CON
    prev = [(g(h) - g(-h)) / (2.0 * h)]
    best, err = prev[0], math.inf
    for _ in range(1, RIDDERS_STAGES):
        h /= RIDDERS_CON
        row = [(g(h) - g(-h)) / (2.0 * h)]
        fac = con2
        for j in range(1, len(prev) + 1):
            row.append((row[j - 1] * fac - prev[j - 1]) / (fac - 1.0))
            fac *= con2
            errt = max(abs(row[j] - row[j - 1]), abs(row[j] - prev[j - 1]))
            if errt <= err:
                best, err = row[j], errt
        if abs(row[-1] - prev[-1]) >= RIDDERS_SAFE * err:
            break
        prev = row
    return best, err


def fd_gradient(f, z):
    """Gradient of f at z = (q..., p...) by Ridders' method: (values, errors).

    The first step is s or s/5, whichever ends with the smaller error, where
    s is 0.05 for a momentum and 0.05 min(1, |q_i|) for a coordinate; this
    keeps the stencil clear of a singularity at q_i = 0.
    """
    d = len(z) // 2
    grad, errs = [], []
    for i, zi in enumerate(z):
        s = 0.05 * (min(1.0, abs(zi)) if i < d else 1.0)

        def along(t, i=i):
            w = list(z)
            w[i] += t
            return f(w)

        value, err = min((ridders_derivative(along, h) for h in (s, s / 5)),
                         key=lambda r: r[1])
        grad.append(value)
        errs.append(err)
    return grad, errs


def fd_bracket(H, K, z):
    """({H, K}, its error bound, |grad H| |grad K|) from Ridders differences."""
    d = len(z) // 2
    gh, eh = fd_gradient(H, z)
    gk, ek = fd_gradient(K, z)
    bracket = sum(gh[i] * gk[d + i] - gh[d + i] * gk[i] for i in range(d))
    err = sum(eh[i] * abs(gk[d + i]) + abs(gh[i]) * ek[d + i] + eh[i] * ek[d + i]
              + eh[d + i] * abs(gk[i]) + abs(gh[d + i]) * ek[i] + eh[d + i] * ek[i]
              for i in range(d))
    scale = math.hypot(*gh) * math.hypot(*gk)
    return bracket, err, scale


def check_fd_bracket(H, K, z, floor=1e-9):
    """{H, K} = 0 at z to within the error of the differences.

    The bracket from Ridders-extrapolated central differences must vanish
    within four times its propagated error estimate, plus floor |grad H||grad K|.
    """
    b, err, scale = fd_bracket(H, K, z)
    require(abs(b) <= 4.0 * err + floor * scale,
            f"central-difference bracket {b:.3e} exceeds its error {err:.3e} "
            f"(scale {scale:.3e}) at {z}")
    return abs(b) / scale if scale > 0 else 0.0


# -- oracle -------------------------------------------------------------------


def check_agreement(recursive, closed, magnitude, what):
    scale = 1.0 + abs(closed) + magnitude
    err = abs(recursive - closed) / scale
    require(err <= ORACLE_TOL,
            f"{what}: recursive {recursive!r} vs closed {closed!r}, relative {err:.3e}")
    return err


def check_vanishing_bracket(bracket, scale, what):
    rel = abs(bracket) / scale if scale > 0 else abs(bracket)
    require(rel <= BRACKET_TOL, f"{what}: |{{H, K}}| / scale = {rel:.3e}")
    return rel


# -- flow: the null-coordinate energy along a CSV trajectory ---------------------


def read_trajectory(path):
    """Rows of (t, u, psi, p_u, p_psi) floats from an integrate CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["t", "q1", "q2", "p1", "p2"], f"bad CSV header in {path}")
    return [tuple(float(v) for v in row) for row in rows[1:]]


def polar_to_null(k, u, psi, pu, ppsi):
    """Null coordinates (q1, q2, p1, p2) of a pseudo-polar point.

    The chart is u^2 = 2 q1 q2, psi = (k+1)/2 log(q1/q2); its cotangent lift
    gives u p_u = q1 p1 + q2 p2 and (k+1) p_psi = q1 p1 - q2 p2.
    """
    chi = psi / (k + 1.0)
    q1 = u * math.exp(chi) / math.sqrt(2.0)
    q2 = u * math.exp(-chi) / math.sqrt(2.0)
    a = u * pu
    b = (k + 1.0) * ppsi
    return q1, q2, (a + b) / (2.0 * q1), (a - b) / (2.0 * q2)


def null_hamiltonian(k, alpha, beta, omega, q1, q2, p1, p2):
    """H = p1 p2 - alpha q2^(2k+1) q1^(-2k-3) - beta/2 q2^k q1^(-k-2) + 2 Omega q1 q2."""
    return (p1 * p2
            - alpha * q2 ** (2 * k + 1) * q1 ** (-2 * k - 3)
            - 0.5 * beta * q2**k * q1 ** (-k - 2)
            + 2.0 * omega * q1 * q2)


def energy_drift(rows, k, alpha, beta, omega):
    """max |H(x_t) - H(x_0)| / (1 + |H(x_0)|) along the rows, in null coordinates."""
    energies = [null_hamiltonian(k, alpha, beta, omega, *polar_to_null(k, *row[1:]))
                for row in rows]
    h0 = energies[0]
    return max(abs(e - h0) for e in energies) / (1.0 + abs(h0))


def check_flow(report, rows, steps, h, k, alpha, beta, omega):
    """Checks on one integrate call; returns the H drift recomputed from the CSV."""
    require(report["status"] == "completed",
            f"status {report['status']} at step {report['exit_step']}")
    require(len(rows) == steps + 1, f"{len(rows)} CSV rows for {steps} steps")
    drift = energy_drift(rows, k, alpha, beta, omega)
    bound = DRIFT_AT_MS * (h / 1e-3) ** 2
    require(drift <= bound, f"H drift {drift:.3e} over the bound {bound:.3e} at h={h}")
    reported = report["drift"]["H"]
    require(abs(drift - reported) <= 1e-6 * reported + 1e-13,
            f"H drift from the CSV {drift:.6e} != reported {reported:.6e}")
    return drift


def check_order(drift_h, drift_half, what):
    ratio = drift_h / drift_half if drift_half > 0 else math.inf
    lo, hi = ORDER_RATIO
    require(lo <= ratio <= hi, f"{what}: halving h divides the H drift by {ratio:.3f}")
    return ratio
