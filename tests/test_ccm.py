import json

import numpy as np
import pytest

from extham import cli
from extham.catalog import ccm_pair, exp_base
from extham.ccm import ccm_transform, rescale_radial
from extham.duals import Dual, new_tag, primal
from extham.extension import Extension, ExtensionSpec, bracket_scale
from extham.phase import (
    PhaseFunction,
    PhasePoint,
    gradient,
    partials_at,
    poisson_bracket,
)
from extham.sampling import sample_points
from extham.tagged_trig import GammaProfile

from references import columns, fd_gradient, leaf_bits, phase_points

ETA = 2.0
ETA4 = ETA**4


@pytest.fixture(scope="module")
def setup():
    base = exp_base(0.7, 1.3, ETA)
    profile = GammaProfile.from_c_C(base.c, 0.0)

    def K_builder(etilde):
        # the Omega-family integral with Omega = -Etilde/eta^4; must stay
        # generic in etilde so the substitution chain-rules through
        spec = ExtensionSpec(2, 1, base.c, 0.0, (-1.0 / ETA4) * etilde, profile)
        return Extension(spec, base).kbar_closed(1, 1)

    Hhat = Extension(ExtensionSpec(2, 1, base.c, 0.0, 0.0, profile), base).hamiltonian()
    U = PhaseFunction(lambda q, p: q[0] * q[0], 2)
    return base, Hhat, U, K_builder


def test_unit_coupling_is_identity(setup):
    _, Hhat, _, K_builder = setup
    one = PhaseFunction(lambda q, p: 1.0, 2)
    Hp, Kp = ccm_transform(Hhat, K_builder, one, 0.0)
    for x in phase_points(sample_points(10, 71, 2)):
        assert Hp(x) == pytest.approx(Hhat(x), rel=1e-14)
        assert Kp(x) == pytest.approx(K_builder(Hhat(x))(x), rel=1e-13)


def test_level_set_identity(setup):
    _, Hhat, U, K_builder = setup
    E = 0.4
    Hp, _ = ccm_transform(Hhat, K_builder, U, E)
    for x in phase_points(sample_points(20, 72, 2)):
        # substituting Etilde = H'(x) back into Hhat - Etilde U recovers E
        assert abs(Hhat(x) - Hp(x) * U(x) - E) <= 1e-12 * (1.0 + abs(Hhat(x)))


def test_composition_sanity_on_level_sets(setup):
    _, Hhat, _, K_builder = setup
    one = PhaseFunction(lambda q, p: 1.0, 2)
    _, Kp = ccm_transform(Hhat, K_builder, one, 0.0)
    for x in phase_points(sample_points(10, 73, 2)):
        et0 = Hhat(x)  # the level set through x
        assert Kp(x) == pytest.approx(K_builder(et0)(x), rel=1e-13)


def test_main_transform_bracket(setup):
    _, Hhat, U, K_builder = setup
    Hp, Kp = ccm_transform(Hhat, K_builder, U, 0.4)
    for x in phase_points(sample_points(30, 74, 2)):
        assert abs(poisson_bracket(Hp, Kp, x)) <= 1e-9 * bracket_scale(Hp, Kp, x)


def test_rescaled_form_bracket_and_values(setup):
    _, Hhat, U, K_builder = setup
    Hp, Kp = ccm_transform(Hhat, K_builder, U, 0.4)
    H2, K2 = rescale_radial(Hp), rescale_radial(Kp)
    # v = 1/2 corresponds to u = 1
    for psi, pv, pp in ((0.6, 0.3, -0.8), (1.1, -0.2, 0.5)):
        a = H2(PhasePoint((0.5, psi), (pv, pp)))
        b = Hp(PhasePoint((1.0, psi), (pv, pp)))  # p_u = u p_v = p_v at u=1
        assert a == pytest.approx(b, rel=1e-12)
    for x in phase_points(sample_points(30, 75, 2)):
        assert abs(poisson_bracket(H2, K2, x)) <= 1e-9 * bracket_scale(H2, K2, x)


def test_rescale_is_canonical():
    # {v, p_v} = 1 survives the lift: the rescaled pair (u, p_u) has bracket 1
    u_of = rescale_radial(PhaseFunction(lambda q, p: q[0], 1))
    pu_of = rescale_radial(PhaseFunction(lambda q, p: p[0], 1))
    for x in phase_points(sample_points(10, 76, 1)):
        assert poisson_bracket(u_of, pu_of, x) == pytest.approx(1.0, rel=1e-13)


def test_rescale_free_kinetic_term():
    free = PhaseFunction(lambda q, p: 0.5 * p[0] * p[0], 1)
    vp2 = rescale_radial(free)
    x = PhasePoint((0.5,), (1.3,))
    assert vp2(x) == pytest.approx(0.5 * 1.3**2, rel=1e-14)
    with pytest.raises(ValueError):
        vp2(PhasePoint((-0.1,), (1.0,)))


def test_chain_rule_reaches_kprime_derivatives(setup):
    # nabla K' must include the dEtilde/dx contribution; the frozen version
    # differs in the gradient even though both brackets vanish (the bracket
    # chain term is proportional to {H', H'} = 0)
    _, Hhat, U, K_builder = setup
    Hp, Kp = ccm_transform(Hhat, K_builder, U, 0.4)

    def frozen_rule(q, p):
        et = primal(Hp.rule(q, p))
        return K_builder(et).rule(q, p)

    K_frozen = PhaseFunction(frozen_rule, 2)
    for x in phase_points(sample_points(5, 77, 2)):
        chained = gradient(Kp, x)
        fd = fd_gradient(Kp, x)
        assert np.max(np.abs(chained - fd)) <= 1e-5 * (1.0 + np.max(np.abs(fd)))
        frozen = gradient(K_frozen, x)
        assert np.max(np.abs(chained - frozen)) > 1e-4 * (1.0 + np.max(np.abs(chained)))


@pytest.mark.parametrize("m, n", [(2, 1), (4, 3)])
def test_the_catalog_pair_takes_kbar_from_the_first_integral(m, n):
    # ccm_pair's K' comes from Extension.first_integral; it must equal, bit for
    # bit, the pair whose builder names Kbar(m, n) itself
    eta, alpha, beta, E = 2.0, 0.7, 1.3, 0.4
    Hp, Kp, windows = ccm_pair(m, n, eta, alpha, beta, E)
    base = exp_base(alpha, beta, eta)
    profile = GammaProfile.from_c_C(base.c, 0.0)

    def K_builder(etilde):
        spec = ExtensionSpec(m, n, base.c, 0.0, (-1.0 / eta**4) * etilde, profile)
        return Extension(spec, base).kbar_closed(m // 2, n)

    Hhat = Extension(ExtensionSpec(m, n, base.c, 0.0, 0.0, profile), base).hamiltonian()
    Hr, Kr = ccm_transform(Hhat, K_builder, PhaseFunction(lambda q, p: q[0] * q[0], 2), E)
    assert windows == ((0.3, 2.0), base.psi_window)
    q, p = columns(sample_points(20, 78, 2, q_ranges=windows))
    tag = new_tag()
    dual_q = (Dual(q[0], 1.0, tag), q[1])
    for new, ref in ((Hp, Hr), (Kp, Kr)):
        assert leaf_bits(new.rule(q, p)) == leaf_bits(ref.rule(q, p))  # array leaves
        assert leaf_bits(new.rule(dual_q, p)) == leaf_bits(ref.rule(dual_q, p))  # a Dual over arrays
        assert leaf_bits(partials_at(new, q, p)) == leaf_bits(partials_at(ref, q, p))
        x = PhasePoint((q[0][3], q[1][3]), (p[0][3], p[1][3]))
        assert gradient(new, x).tolist() == gradient(ref, x).tolist()  # Duals over floats


def test_ccm_refuses_odd_m(capsys):
    with pytest.raises(ValueError, match=r"ccm demo requires even m \(Kbar indices\)"):
        ccm_pair(3, 1, 2.0, 0.7, 1.3, 0.4)
    assert cli.main(["ccm", "--m", "3"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "ccm demo requires even m (Kbar indices)"}
