"""Concrete Hamiltonian families: Minkowski wedge system, base-potential
families, constant-curvature generalizations, the flat TTW form, and the
non-extendable pair, plus the null <-> pseudo-polar canonical transforms.

make_base_family's hyperbolic branch gives the exponential, cosh and sinh base
potentials, its trig branch the trigonometric ones. _base makes every base
system L = p^2/2 + V with seed G = g(psi) p_psi and c0 = 0, and _extended_model
every curved or flat extension's model, H with the integrals L and K.
PSI_WINDOW is the bases' default psi window; ccm_pair builds the ccm pair.

Rational parameters are passed as fractions.Fraction so the integral indices
(m, n) come out exact; irrational k is accepted for Hamiltonian construction
but characteristic-integral construction is refused.
"""

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from . import duals as dm
from .ccm import ccm_transform
from .duals import any_true, primal
from .extension import BaseSystem, Extension, ExtensionSpec
from .phase import PhaseFunction, lift_last
from .tagged_trig import GammaProfile

_SQRT2 = math.sqrt(2.0)
PSI_WINDOW = (0.3, 2.0)


@dataclass
class ModelInstance:
    """A catalog Hamiltonian with its known first integrals and metadata."""

    id: str
    H: PhaseFunction
    known_integrals: list
    chart: str
    params: dict
    extendable: bool
    extension: Extension = None
    base: BaseSystem = None
    q_windows: tuple = None

    def integral(self, label):
        for name, f in self.known_integrals:
            if name == label:
                return f
        raise KeyError(label)

    def describe(self):
        return {
            "id": self.id,
            "chart": self.chart,
            "params": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in self.params.items()},
            "known_integrals": [name for name, _ in self.known_integrals],
            "extendable": self.extendable,
        }


# -- base-potential families -------------------------------------------------


def _window_free_of_zeros(C1, C2, eta, branch, window):
    """Refuse a psi window that is empty or holds a zero of the gauge function g.

    g is C1 e^(eta psi) + C2 e^(-eta psi) on the hyperbolic branch and
    C1 cos(eta psi) + C2 sin(eta psi), eta > 0, on the trig one; both have
    their zeros in closed form.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"{branch}(C1={C1}, C2={C2}): empty psi window {window}")
    if branch == "hyperbolic":
        # zero where e^(2 eta psi) = -C2/C1, if that is positive
        ratio = -C2 / C1 if C1 else 0.0
        vanishes = ratio > 0.0 and lo <= math.log(ratio) / (2.0 * eta) <= hi
    else:
        # g = R cos(eta psi - phi): zeros at eta psi = phi + pi/2 + j pi; take the first j past lo
        phi = math.atan2(C2, C1) + 0.5 * math.pi
        vanishes = (phi + math.ceil((eta * lo - phi) / math.pi) * math.pi) / eta <= hi
    if vanishes:
        raise ValueError(f"{branch}(C1={C1}, C2={C2}): gauge function vanishes inside psi window {window}")


def _check_eta(eta):
    """Refuse eta = 0, and an eta whose c = +-eta^2 or c^2 is not a finite, normal, nonzero
    double; eta * eta, unlike eta ** 2, does not raise where it overflows."""
    if eta == 0.0:
        raise ValueError("eta must be nonzero")
    c = eta * eta
    if not sys.float_info.min <= c * c <= sys.float_info.max:
        raise ValueError(f"eta={eta!r} is out of range: c = +-eta^2 and c^2 must be finite, "
                         "normal, nonzero doubles")


def _base(family, params, c, V_rule, g, eta_hat, psi_window):
    """The BaseSystem L = p^2/2 + V with seed G = g(psi) p_psi and c0 = 0."""
    return BaseSystem(
        family=family, params=params, c=c, c0=0.0, V=PhaseFunction(V_rule, 1),
        L=PhaseFunction(lambda q, p: 0.5 * p[0] * p[0] + V_rule(q, p), 1),
        G=PhaseFunction(lambda q, p: g(q[0]) * p[0], 1), g_scalar=g, eta_hat=eta_hat, psi_window=psi_window,
    )


def make_base_family(C1, C2, C3, C4, eta, branch, psi_window=PSI_WINDOW):
    """Base system with seed G = g(psi) p_psi.

    hyperbolic branch: g = C1 e^(eta psi) + C2 e^(-eta psi), c = -eta^2;
    trig branch:       g = C1 cos(|eta| psi) + C2 sin(|eta| psi), c = +eta^2;
    both with V = (C3 + C4 g'/eta_hat) / g^2 and c0 = 0.
    """
    if (C1, C2) == (0.0, 0.0):
        raise ValueError("C1 and C2 must not both vanish")
    if (C3, C4) == (0.0, 0.0):
        raise ValueError("C3 and C4 must not both vanish")
    _check_eta(eta)
    eta_hat = abs(eta)
    # g_and_slope returns g and g'/eta_hat from one pair of transcendentals
    if branch == "hyperbolic":
        c = -(eta_hat**2)

        def g(psi):
            return C1 * dm.exp(eta_hat * psi) + C2 * dm.exp(-eta_hat * psi)

        def g_and_slope(psi):
            up = dm.exp(eta_hat * psi)
            down = dm.exp(-eta_hat * psi)
            return C1 * up + C2 * down, C1 * up - C2 * down

    elif branch == "trig":
        c = eta_hat**2

        def g(psi):
            return C1 * dm.cos(eta_hat * psi) + C2 * dm.sin(eta_hat * psi)

        def g_and_slope(psi):
            cos = dm.cos(eta_hat * psi)
            sin = dm.sin(eta_hat * psi)
            return C1 * cos + C2 * sin, -C1 * sin + C2 * cos

    else:
        raise ValueError(f"unknown branch {branch!r}")

    def V_rule(q, p):
        gv, slope = g_and_slope(q[0])
        return (C3 + C4 * slope) / (gv * gv)

    _window_free_of_zeros(C1, C2, eta_hat, branch, psi_window)
    return _base(f"V2-{branch}", {"C1": C1, "C2": C2, "C3": C3, "C4": C4, "eta": eta}, c,
                 V_rule, g, eta_hat, psi_window)


def exp_base(alpha_t, beta_t, eta=2.0):
    """V = alpha_t e^(-2 eta psi) + beta_t e^(-eta psi), the Minkowski wedge base."""
    if alpha_t == 0.0 and beta_t == 0.0:
        return _free_base(eta)
    return make_base_family(1.0, 0.0, alpha_t, beta_t, eta, "hyperbolic")


def _free_base(eta):
    """V = 0: the seed G = e^(eta psi) p_psi still solves the c = -eta^2 equation."""
    _check_eta(eta)

    def g(psi):
        return dm.exp(eta * psi)

    return _base("free", {"C1": 1.0, "C2": 0.0, "C3": 0.0, "C4": 0.0, "eta": eta}, -(eta**2),
                 lambda q, p: 0.0, g, eta, PSI_WINDOW)


def trig_base(A, psi0, alpha, beta, abs_eta=1.0):
    """g = A sin(|eta| psi + psi0), V = (alpha + beta cos(|eta| psi + psi0))/sin^2(...)."""
    C1 = A * math.sin(psi0)
    C2 = A * math.cos(psi0)
    _check_eta(abs_eta)  # before the window divides by it
    # keep |eta| psi + psi0 inside (0.3, pi - 0.4), away from the sin zeros
    lo = max(0.05, (0.3 - psi0) / abs_eta)
    hi = (math.pi - 0.4 - psi0) / abs_eta
    if hi <= lo:
        raise ValueError(f"psi0={psi0} leaves an empty psi window ({lo}, {hi}) at |eta|={abs_eta}")
    return make_base_family(C1, C2, alpha * A * A, beta * A, abs_eta, "trig", (lo, hi))


# -- null <-> pseudo-polar canonical transforms --------------------------------


def _check_k(k):
    kf = float(k)
    if kf == -1.0:
        raise ValueError("k = -1 degenerates the pseudo-polar map")
    return kf


def polar_coords_generic(k, q, p):
    """(u, psi, p_u, p_psi) from null coordinates; generic in duals."""
    kf = _check_k(k)
    q1, q2 = q
    p1, p2 = p
    if any_true(primal(q1) <= 0.0) or any_true(primal(q2) <= 0.0):
        raise ValueError("pseudo-polar chart requires the wedge q1 > 0, q2 > 0")
    u = dm.sqrt(2.0 * q1 * q2)
    chi = 0.5 * dm.log(q1 / q2)
    ech = dm.exp(chi)
    pu = (p1 * ech + p2 / ech) / _SQRT2
    ppsi = u * (p1 * ech - p2 / ech) / (_SQRT2 * (kf + 1.0))
    return (u, (kf + 1.0) * chi), (pu, ppsi)


def null_coords_generic(k, q, p):
    """Inverse of polar_coords_generic, also a cotangent lift."""
    kf = _check_k(k)
    u, psi = q
    pu, ppsi = p
    if any_true(primal(u) <= 0.0):
        raise ValueError("pseudo-polar chart requires u > 0")
    chi = psi / (kf + 1.0)
    ech = dm.exp(chi)
    q1 = u * ech / _SQRT2
    q2 = u / (ech * _SQRT2)
    rad = (kf + 1.0) * ppsi / u
    p1 = (pu + rad) / (ech * _SQRT2)
    p2 = ech * (pu - rad) / _SQRT2
    return (q1, q2), (p1, p2)


def pullback_to_null(f_polar, k):
    """f on the (u, psi) chart composed with the pseudo-polar map."""
    rule = f_polar.rule

    def new_rule(q, p):
        qq, pp = polar_coords_generic(k, q, p)
        return rule(qq, pp)

    return PhaseFunction(new_rule, 2)


# -- Minkowski wedge model ------------------------------------------------------


def minkowski_indices(k):
    """(m, n) with m/n = 2(k+1) in lowest terms; k must be rational and > -1."""
    if not isinstance(k, Fraction):
        raise ValueError(
            "characteristic integrals need rational k given as a Fraction; "
            "irrational k only supports H construction and L conservation"
        )
    ratio = 2 * (k + 1)
    if ratio <= 0:
        raise ValueError("k must exceed -1 for positive integral indices")
    return ratio.numerator, ratio.denominator


def make_minkowski_hamiltonian(k, alpha, beta, Omega=0.0):
    """H = p1 p2 - alpha q2^(2k+1) q1^(-2k-3) - beta/2 q2^k q1^(-k-2) + 2 Omega q1 q2."""
    kf = _check_k(k)
    e1, e2 = 2 * kf + 1, -2 * kf - 3
    e3, e4 = kf, -kf - 2

    def H_rule(q, p):
        q1, q2 = q
        if any_true(primal(q1) <= 0.0) or any_true(primal(q2) <= 0.0):
            raise ValueError("Minkowski family is defined on the wedge q1, q2 > 0")
        val = (
            p[0] * p[1]
            - alpha * dm.pow_(q2, e1) * dm.pow_(q1, e2)
            - 0.5 * beta * dm.pow_(q2, e3) * dm.pow_(q1, e4)
        )
        if Omega != 0.0:
            val = val + 2.0 * Omega * q1 * q2
        return val

    H = PhaseFunction(H_rule, 2)

    alpha_t = 2.0 * alpha / (kf + 1.0) ** 2
    beta_t = beta / (kf + 1.0) ** 2
    base = exp_base(alpha_t, beta_t, eta=2.0)
    integrals = [("L", pullback_to_null(lift_last(base.L, 2), kf))]

    extension = None
    if isinstance(k, Fraction):
        m, n = minkowski_indices(k)
        # catalog Omega multiplies u^2 = 2 q1 q2; the extension scalar is
        # Omega_ext / gamma^2 = c^2 Omega_ext u^2, so Omega_ext = Omega/c^2
        spec = ExtensionSpec(m, n, base.c, 0.0, Omega / base.c**2, GammaProfile.from_c_C(base.c, 0.0))
        extension = Extension(spec, base)
        label, K_polar = extension.first_integral()
        integrals.append((label, pullback_to_null(K_polar, kf)))

    return ModelInstance(
        id="minkowski", H=H, known_integrals=integrals, chart="null-coordinates",
        params={"k": k, "alpha": alpha, "beta": beta, "Omega": Omega}, extendable=True,
        extension=extension, base=base, q_windows=((0.3, 2.0), (0.3, 2.0)),
    )


# -- constant-curvature and flat TTW models -------------------------------------


# (sign of c, kappa) -> (model id, chart)
_CURVED_CHARTS = {
    (1, 1): ("sphere", "sphere S2"),
    (1, -1): ("pseudosphere", "pseudosphere H2"),
    (-1, 1): ("de-sitter", "de Sitter dS2"),
    (-1, -1): ("anti-de-sitter", "anti-de Sitter AdS2"),
}


def _extended_model(base, m, n, Omega, profile, model_id, chart, params, u_window):
    """The ModelInstance of base extended by (m, n, Omega) on profile: H, and L with K."""
    ext = Extension(ExtensionSpec(m, n, base.c, 0.0, Omega, profile), base)
    integrals = [("L", lift_last(base.L, 2)), ext.first_integral()]
    return ModelInstance(
        id=model_id, H=ext.hamiltonian(), known_integrals=integrals, chart=chart,
        params={**params, **base.params}, extendable=True, extension=ext, base=base,
        q_windows=(u_window, base.psi_window),
    )


def make_curved_hamiltonian(base, k, kappa, Omega=0.0, model_id=None):
    """Extension of the base on a curved background: kappa = +1 or -1.

    The warp is (k+1)^2 c / S_kappa^2(c u) with m/n = k+1, and the scalar
    term Omega / gamma^2 equals Omega tan^2(c u) (kappa=+1) or
    Omega tanh^2(c u) (kappa=-1).
    """
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    if not isinstance(k, Fraction):
        raise ValueError("curved models take rational k (a Fraction)")
    ratio = k + 1
    if ratio <= 0:
        raise ValueError("k must exceed -1")
    c = base.c
    curved_id, chart = _CURVED_CHARTS[(1 if c > 0 else -1, kappa)]
    u_max = 1.25 if kappa == 1 else 2.0
    return _extended_model(
        base, ratio.numerator, ratio.denominator, Omega, GammaProfile.from_c_kappa(c, float(kappa)),
        model_id or curved_id, chart, {"k": k, "c": c, "kappa": kappa, "Omega": Omega},
        (0.3 / abs(c), u_max / abs(c)),
    )


def make_flat_ttw_hamiltonian(base, m, n, Omega=0.0):
    """H = p_u^2/2 + m^2/(|eta|^2 n^2 u^2) L + eta^4 u^2 Omega on the plane."""
    if base.c <= 0.0:
        raise ValueError("the flat model needs a trig-branch base (c > 0)")
    return _extended_model(base, m, n, Omega, GammaProfile.from_c_C(base.c, 0.0), "ttw-flat",
                           "euclidean E2", {"m": m, "n": n, "Omega": Omega}, (0.3, 2.0))


# -- the non-extendable pair ------------------------------------------------


def make_remark_pair(d1=2.0, d2=3.0):
    """Two wedge Hamiltonians with quadratic integrals that admit no extension.

    The bracket identities {H1, I1} = {H2, I2} = 0 hold for every real d (I2
    needs d2 != -1); the integer-derived choices d1 in {p, (1-2p)/2} and d2 in
    {(1-p)/p, (1+2p)/(1-2p)} (p natural) are recorded as metadata only.
    """
    d1f, d2f = float(d1), float(d2)
    if d2f == -1.0:
        raise ValueError("remark-h2 needs d != -1: I2 = p1^2 + q2^(d+1)/(d+1) divides by d+1 = 0")

    def _wedge(q):
        if any_true(primal(q[0]) <= 0.0):
            raise ValueError("q1 > 0 required")

    def H1_rule(q, p):
        _wedge(q)
        return 2.0 * p[0] * p[1] + dm.pow_(q[1], d1f) / dm.sqrt(q[0])

    def I1_rule(q, p):
        _wedge(q)
        return 2.0 * p[0] * (q[1] * p[1] - p[0] * q[0]) + dm.pow_(q[1], d1f + 1.0) / dm.sqrt(q[0])

    def H2_rule(q, p):
        return 2.0 * p[0] * p[1] + q[0] * dm.pow_(q[1], d2f)

    def I2_rule(q, p):
        return p[0] * p[0] + dm.pow_(q[1], d2f + 1.0) / (d2f + 1.0)

    def model(model_id, H_rule, label, I_rule, d, rule):
        return ModelInstance(
            id=model_id, H=PhaseFunction(H_rule, 2),
            known_integrals=[(label, PhaseFunction(I_rule, 2))], chart="null-coordinates",
            params={"d": d, "rule": rule}, extendable=False, q_windows=((0.3, 2.0), (0.3, 2.0)),
        )

    return (
        model("remark-h1", H1_rule, "I1", I1_rule, d1f, "d = p or d = (1-2p)/2, p natural"),
        model("remark-h2", H2_rule, "I2", I2_rule, d2f, "d = (1-p)/p or d = (1+2p)/(1-2p), p natural"),
    )


# -- the command line's model tables -------------------------------------------
# A builder's parameters are the flags it reads, named as argparse dests; --k comes
# as text. Builders look make_* up when called, so a patched module binding runs.


def _parse_k(text, allow_float=False):
    """--k as a Fraction p/q, or as a finite float where allow_float (--no-integral)."""
    refusal = ValueError(f"--k must be a rational p/q, or a decimal with --no-integral; got {text!r}")
    try:
        if "." not in text:
            k = Fraction(text)
            float(k)  # a rational past double range raises OverflowError
            return k
        if allow_float and math.isfinite(float(text)):
            return float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise refusal from None
    raise refusal


BASES = {
    "hyperbolic": lambda alpha, beta, eta: exp_base(alpha, beta, abs(eta)),
    "trig": lambda psi0, alpha, beta, eta: trig_base(1.0, psi0, alpha, beta, abs(eta)),
}

MODELS = {
    "minkowski": lambda k, alpha, beta, omega, no_integral:
        make_minkowski_hamiltonian(_parse_k(k, no_integral), alpha, beta, omega),
    "sphere": lambda k, psi0, alpha, beta, eta, omega:
        make_curved_hamiltonian(BASES["trig"](psi0, alpha, beta, eta), _parse_k(k), 1, omega),
    "pseudosphere": lambda k, psi0, alpha, beta, eta, omega:
        make_curved_hamiltonian(BASES["trig"](psi0, alpha, beta, eta), _parse_k(k), -1, omega),
    "de-sitter": lambda k, alpha, beta, eta, omega:
        make_curved_hamiltonian(BASES["hyperbolic"](alpha, beta, eta), _parse_k(k), 1, omega),
    "anti-de-sitter": lambda k, alpha, beta, eta, omega:
        make_curved_hamiltonian(BASES["hyperbolic"](alpha, beta, eta), _parse_k(k), -1, omega),
    "ttw-flat": lambda psi0, alpha, beta, eta, m, n, omega:
        make_flat_ttw_hamiltonian(BASES["trig"](psi0, alpha, beta, eta), m, n, omega),
    "remark-h1": lambda d: make_remark_pair(d1=d)[0],
    "remark-h2": lambda d: make_remark_pair(d2=d)[1],
}


def _minkowski_flow(k, alpha, beta, omega, no_integral, chart, u_min):
    """(H, {label: function} of H and the integrals verify checks, floor of u) of a wedge
    orbit in chart, the same labels in both; the null chart has no coordinate u, so no floor."""
    model = MODELS["minkowski"](k, alpha, beta, omega, no_integral)
    if chart == "null":
        return model.H, {"H": model.H, **dict(model.known_integrals)}, None
    if model.extension is None:
        raise ValueError(f"--k {k} builds no extension, so the pseudo-polar chart has no H; use --chart null")
    H = model.extension.hamiltonian()
    integrals = [("L", lift_last(model.base.L, 2)), model.extension.first_integral()]
    return H, {"H": H, **dict(integrals)}, u_min


def _free_flow():
    H = PhaseFunction(lambda q, p: 0.5 * (p[0] * p[0] + p[1] * p[1]), 2)
    return H, {"H": H}, None


# what integrate follows for each --model
FLOWS = {"minkowski": _minkowski_flow, "free": _free_flow}


def ccm_pair(m, n, eta, alpha, beta, E):
    """(H', K', the (u, psi) sample windows) that ccm checks, from its flags' values.

    H = Hhat - Etilde u^2 is the (m, n) extension at Omega = -Etilde/eta^4, whose
    first integral (Kbar(m, n) for even m, Kbar(2m, 2n) for odd m) is K' with
    Etilde replaced by H'.
    """
    base = exp_base(alpha, beta, abs(eta))
    spec = ExtensionSpec(m, n, base.c, 0.0, 0.0, GammaProfile.from_c_C(base.c, 0.0))

    def K_builder(etilde):
        return Extension(replace(spec, Omega=(-1.0 / eta**4) * etilde), base).first_integral()[1]

    Hhat = Extension(spec, base).hamiltonian()
    U = PhaseFunction(lambda q, p: q[0] * q[0], 2)
    return (*ccm_transform(Hhat, K_builder, U, E), ((0.3, 2.0), base.psi_window))


# -- machine-readable catalog -------------------------------------------------


def default_models():
    """One representative instance per catalog family."""
    tb = trig_base(1.0, 0.2, 1.0, 0.5, 1.0)
    models = [
        make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.0),
        make_curved_hamiltonian(tb, Fraction(1), 1, 0.0),
        make_curved_hamiltonian(tb, Fraction(1), -1, 0.0),
        make_curved_hamiltonian(exp_base(0.7, 1.3), Fraction(1), 1, 0.0),
        make_curved_hamiltonian(exp_base(0.7, 1.3), Fraction(1), -1, 0.0),
        make_flat_ttw_hamiltonian(tb, 2, 1, 0.0),
    ]
    models.extend(make_remark_pair())
    return models


def catalog_listing():
    return [m.describe() for m in default_models()]
