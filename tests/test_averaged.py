import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_polar
from symevol.averaged import (AVG11, AVG12_FIRST, AVG12_SECOND, AVG13, ZeroAmplitudeError,
                              _chi3_paper_coeffs, _phase_drifts_13, average_slow_field,
                              avg11_cart, avg12_first_cart, avg12_second_cart, avg13_cart,
                              polar_to_slow_cart, polar_view, second_order_average,
                              slow_cart_amplitudes)
from symevol.integrate import IntegratorConfig, integrate
from symevol.model import ModelParams
from symevol.resonance import RESONANCES, _chi2_coeffs, cartesian_invariant
from symevol.transforms import polar_to_cart


@pytest.fixture
def p11():
    return ModelParams(1.0, 1.0, 0.75, 1.5, omega=1.0, epsilon=0.1, n=2)


@pytest.fixture
def p13():
    return ModelParams(1.0, 1.0, 0.75, 1.5, omega=3.0, epsilon=0.1, n=2)


# ---------------------------------------------------------------- 1:2 first


def test_avg12_first_frozen_at_chi_zero(params12):
    # at chi = 2*psi1 - psi2 = 0 the amplitudes are frozen: r_k*r_k' =
    # x_k*x_k' + y_k*y_k' is exactly zero at A1 = 3 + 4i, A2 = A1^2 = -7 + 24i,
    # where kappa = eps*a4/2 = 1/2 keeps every product exact
    p = ModelParams(1.0, 1.0, 0.75, 2.0, omega=2.0, epsilon=0.5, n=2)
    x1, y1, x2, y2 = 3.0, 4.0, -7.0, 24.0
    dx1, dy1, dx2, dy2, _ = avg12_first_cart(0.0, (x1, y1, x2, y2, 0.0), p)
    assert x1 * dx1 + y1 * dy1 == 0.0 and x2 * dx2 + y2 * dy2 == 0.0
    # the polar view too, at psi1 = psi2 = 0 where its chart is exact
    d = polar_view(avg12_first_cart, 0.0, np.array([0.6, 0.0, 0.3, 0.0, 0.5]), params12)
    assert d[0] == 0.0 and d[2] == 0.0


def test_avg12_first_requires_omega_and_amplitudes(params12, p11):
    with pytest.raises(ValueError):
        polar_view(avg12_first_cart, 0.0, np.array([0.5, 0, 0.5, 0, 0]), p11)
    with pytest.raises(ZeroAmplitudeError):
        polar_view(avg12_first_cart, 0.0, np.array([0.0, 0, 0.5, 0, 0]), params12)


def _e0_12_derivative(y, d):
    t1 = y[0] * d[0]
    t2 = 4.0 * y[2] * d[2]
    return t1 + t2, abs(t1) + abs(t2)


def _i3_12_derivative(y, d, a4):
    r1, psi1, r2, psi2 = y[:4]
    chi = 2 * psi1 - psi2
    terms = np.array([
        2 * a4 * r1 * r2 * math.cos(chi) * d[0],
        -2 * a4 * r1**2 * r2 * math.sin(chi) * d[1],
        a4 * r1**2 * math.cos(chi) * d[2],
        a4 * r1**2 * r2 * math.sin(chi) * d[3],
    ])
    return terms.sum(), np.abs(terms).sum()


def test_avg12_first_conserves_both_integrals(params12, rng):
    for _ in range(300):
        y = random_polar(rng)
        d = polar_view(avg12_first_cart, 0.0, y, params12)
        num, scale = _e0_12_derivative(y, d)
        assert abs(num) <= 1e-12 * max(scale, 1e-300)
        num, scale = _i3_12_derivative(y, d, params12.a4)
        assert abs(num) <= 1e-12 * max(scale, 1e-300)


def test_avg12_first_matches_quadrature_average(params12, rng):
    for _ in range(30):
        y = random_polar(rng)
        oracle = average_slow_field(y, params12)
        field = polar_view(avg12_first_cart, 0.0, y, params12)
        assert np.max(np.abs(oracle - field)) < 1e-10


def test_first_order_averages_vanish_off_the_12_resonance(rng):
    # at omega = 1 and omega = 3 every first-order average is zero, so the
    # first-order normal form is trivial there
    for omega in (1.0, 3.0):
        p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=omega, epsilon=0.1, n=2)
        for _ in range(15):
            y = random_polar(rng)
            avg = average_slow_field(y, p)
            assert np.max(np.abs(avg[:4])) < 1e-12


def _chi12_drift(y, p):
    """2*psi1' - psi2' of the first-order 1:2 field's polar view at y."""
    d = polar_view(avg12_first_cart, 0.0, y, p)
    return float(2.0 * d[1] - d[3])


def test_chi12_consistency_and_zeros(params12, rng):
    # the drift of chi = arg(A1^2*conj(A2)) read off the Cartesian field:
    # psi_k' = (x_k*y_k' - y_k*x_k')/r_k^2
    for _ in range(50):
        y = random_polar(rng)
        x1, y1, x2, y2, tau = polar_to_slow_cart(y).tolist()
        dx1, dy1, dx2, dy2, _ = avg12_first_cart(0.0, (x1, y1, x2, y2, tau), params12)
        direct = 2 * (x1 * dy1 - y1 * dx1) / y[0] ** 2 - (x2 * dy2 - y2 * dx2) / y[2] ** 2
        assert abs(direct - _chi12_drift(y, params12)) < 1e-13
    # on the resonance manifold r1^2 = 8 r2^2 the drift vanishes for any chi
    r2 = 0.4
    y = np.array([math.sqrt(8.0) * r2, 0.7, r2, 0.1, 0.3])
    assert abs(_chi12_drift(y, params12)) < 1e-15
    # and for chi = pi/2 at any amplitudes
    y = np.array([0.9, math.pi / 4, 0.5, 0.0, 0.0])
    assert abs(_chi12_drift(y, params12)) < 1e-16
    with pytest.raises(ZeroAmplitudeError):
        _chi12_drift(np.array([0.5, 0.0, 0.0, 0.0, 0.0]), params12)


# --------------------------------------------------------------- 1:2 second


def _autonomous_second_order_reference(y, p):
    """Late-time (decayed) limit of the second-order 1:2 system, coded
    independently for regression."""
    r1, psi1, r2, psi2, _ = y
    u, w = r1 * r1, r2 * r2
    e2 = p.epsilon**2
    dpsi1 = -e2 * (p.a1**2 * u / 24.0 + 0.5 * p.a1 * p.a2 * w)
    dpsi2 = -e2 * ((0.25 * p.a1 * p.a2 + p.a2**2 / 30.0) * u + 29.0 * p.a2**2 * w / 120.0)
    return np.array([0.0, dpsi1, 0.0, dpsi2, p.delta])


def test_avg12_second_autonomous_limit(params12, rng):
    for _ in range(40):
        y = random_polar(rng)
        y[4] = np.inf
        np.testing.assert_allclose(polar_view(avg12_second_cart, 0.0, y, params12),
                                   _autonomous_second_order_reference(y, params12),
                                   rtol=0.0, atol=1e-15)


def test_avg12_second_amplitudes_equal_first_order(params12, rng):
    for _ in range(40):
        y = random_polar(rng)
        d1 = polar_view(avg12_first_cart, 0.0, y, params12)
        d2 = polar_view(avg12_second_cart, 0.0, y, params12)
        assert d2[0] == pytest.approx(d1[0], abs=1e-16)
        assert d2[2] == pytest.approx(d1[2], abs=1e-16)


def test_avg12_second_phase_drift_value():
    # a1 = a2 = 1, r1 = r2 = 1, decayed limit: psi1'/eps^2 = -(1/24 + 1/2)
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y = np.array([1.0, 0.3, 1.0, -0.2, np.inf])
    d = polar_view(avg12_second_cart, 0.0, y, p)
    assert d[1] / p.epsilon**2 == pytest.approx(-13.0 / 24.0, abs=1e-14)


def test_avg12_second_all_coefficients_zero():
    p = ModelParams(0.0, 0.0, 0.0, 0.0, omega=2.0, epsilon=0.1, n=2)
    d = polar_view(avg12_second_cart, 0.0, np.array([0.7, 0.1, 0.4, 0.9, 0.2]), p)
    assert np.all(d[:4] == 0.0)


def _drift(coeffs, r1, r2, eps=0.1):
    """eps^2*(c_u*r1^2 + c_w*r2^2), the chi drift of coefficients (c_u, c_w)."""
    c_u, c_w = coeffs
    return eps**2 * (c_u * r1 * r1 + c_w * r2 * r2)


def test_chi2_matches_second_order_phases(params12, rng):
    # chi2' = 4*psi1' - 2*psi2' in the decayed limit
    coeffs = _chi2_coeffs(params12.a1, params12.a2)
    for _ in range(40):
        y = random_polar(rng)
        y[4] = np.inf
        d = polar_view(avg12_second_cart, 0.0, y, params12)
        assert abs(4 * d[1] - 2 * d[3] - _drift(coeffs, y[0], y[2], params12.epsilon)) < 1e-15


def test_chi2_root_and_signs():
    # r1^2/r2^2 = 91/24 is the zero
    assert abs(_drift(_chi2_coeffs(1.0, 1.0), math.sqrt(91.0), math.sqrt(24.0))) < 1e-12
    assert _drift(_chi2_coeffs(0.0, 0.0), 0.9, 0.4) == 0.0
    for r1 in (0.2, 0.7, 1.5):
        for r2 in (0.2, 0.7, 1.5):
            assert _drift(_chi2_coeffs(0.0, 1.0), r1, r2) > 0.0


# --------------------------------------------------------------------- 1:3


def test_avg13_amplitudes_exactly_frozen(p13, rng):
    for _ in range(20):
        # the field is the pure rotation A_k' = i*phi_k*A_k, bit for bit
        y = random_polar(rng)
        x1, y1, x2, y2, tau = polar_to_slow_cart(y).tolist()
        phi1, phi2 = _phase_drifts_13(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, p13.a1, p13.a2)
        phi1, phi2 = -p13.epsilon**2 * phi1, -p13.epsilon**2 * phi2
        assert avg13_cart(0.0, (x1, y1, x2, y2, tau), p13) == (
            -phi1 * y1, phi1 * x1, -phi2 * y2, phi2 * x2, p13.delta)
        # and the polar view, at psi1 = psi2 = 0 where its chart is exact
        y[1] = y[3] = 0.0
        d = polar_view(avg13_cart, 0.0, y, p13)
        assert d[0] == 0.0 and d[2] == 0.0


def test_avg13_decayed_limit_matches_oracle(p13, rng):
    # at alpha = 0 the 1:3 field is the second-order average: at a1 = 0 and
    # r1 = 0, psi1' = -eps^2*a2^2*r2^2/35, pinned on the drift helper since
    # the polar chart is undefined at r1 = 0
    for _ in range(10):
        y = random_polar(rng)[:4]
        oracle = second_order_average(y, p13, al=0.0)
        field = polar_view(avg13_cart, 0.0, np.append(y, np.inf), p13)[:4]
        assert np.max(np.abs(oracle - field)) < 1e-8 * np.max(np.abs(oracle))
    zero, one = Fraction(0), Fraction(1)
    assert _phase_drifts_13(zero, one, zero, one)[0] == Fraction(1, 35)
    with pytest.raises(ValueError, match="omega = 1 or 3"):
        second_order_average(y, ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1))


def test_avg13_phase_values(p13):
    # at r2 = 0, psi1' = -eps^2*5/12*a1^2*r1^2: pinned on the drift helper,
    # since the polar chart rejects r2 = 0
    zero, one = Fraction(0), Fraction(1)
    assert _phase_drifts_13(one, zero, one, one)[0] == Fraction(5, 12)
    with pytest.raises(ZeroAmplitudeError):
        polar_view(avg13_cart, 0.0, np.array([1.0, 0.0, 0.0, 0.0, 0.0]), p13)
    pz = ModelParams(0.0, 0.0, 0.75, 1.5, omega=3.0, epsilon=0.1, n=2)
    d = polar_view(avg13_cart, 0.0, np.array([0.8, 0.1, 0.5, 0.7, 0.2]), pz)
    assert np.all(d[:4] == 0.0)


def _chi3_paper_drift(a1, a2, r1, r2):
    """The paper's reading of the chi3 drift, -eps^2*(c_u*r1^2 - c_w*r2^2)."""
    c_u, c_w = _chi3_paper_coeffs(a1, a2)
    return _drift((-c_u, c_w), r1, r2)


def test_chi3_root_and_readings():
    assert abs(_chi3_paper_drift(1.0, 1.0, math.sqrt(1401.0), math.sqrt(976.0))) < 1e-11
    assert _chi3_paper_drift(0.0, 0.0, 0.5, 0.5) == 0.0
    # a1 = 0: the r1^2 coefficient has fixed sign, no positive-amplitude zero
    for r1 in (0.2, 0.7, 1.5):
        for r2 in (0.2, 0.7, 1.5):
            assert _chi3_paper_drift(0.0, 1.0, r1, r2) > 0.0


def test_chi3_field_drift_is_not_the_paper_reading():
    # 6*psi1' - 2*psi2' of the 1:3 field is -eps^2*(451/210*r1^2 + 199/70*r2^2)
    # at a1 = a2 = 1: one sign, so no manifold; the paper's reading gives 1401/976
    zero, one = Fraction(0), Fraction(1)
    field = [6 * phi1 - 2 * phi2 for phi1, phi2 in (_phase_drifts_13(one, zero, one, one),
                                                    _phase_drifts_13(zero, one, one, one))]
    assert field == [Fraction(451, 210), Fraction(199, 70)]
    c_u, c_w = _chi3_paper_coeffs(1, 1)
    assert c_w / c_u == Fraction(1401, 976)
    # the integrated field agrees, and is far from zero at the paper's ratio
    p = ModelParams(1.0, 1.0, 0.0, 0.0, omega=3.0, epsilon=0.1, n=2)
    y = np.array([math.sqrt(1401.0), 0.3, math.sqrt(976.0), -0.2, 0.0])
    d = polar_view(avg13_cart, 0.0, y, p)
    expected = -p.epsilon**2 * (451.0 / 210.0 * 1401.0 + 199.0 / 70.0 * 976.0)
    assert 6 * d[1] - 2 * d[3] == pytest.approx(expected, rel=1e-13)


# --------------------------------------------------------------------- 1:1


def test_avg11_conserves_total_action(p11, rng):
    for _ in range(300):
        y = random_polar(rng)
        d = polar_view(avg11_cart, 0.0, y, p11)
        t1, t2 = y[0] * d[0], y[2] * d[2]
        assert abs(t1 + t2) <= 1e-12 * max(abs(t1) + abs(t2), 1e-300)


def test_avg11_frozen_when_sin2chi_vanishes(p11):
    for chi in (0.0, math.pi / 2, math.pi):
        y = np.array([0.7, chi, 0.4, 0.0, 0.3])
        d = polar_view(avg11_cart, 0.0, y, p11)
        assert abs(d[0]) < 1e-16 and abs(d[2]) < 1e-16


def test_avg11_symmetric_limit_matches_oracle(p11, rng):
    for _ in range(10):
        y = random_polar(rng)[:4]
        oracle = second_order_average(y, p11, al=0.0)
        field = polar_view(avg11_cart, 0.0, np.append(y, np.inf), p11)[:4]
        assert np.max(np.abs(oracle - field)) < 1e-8


def test_avg11_decayed_terms_match_oracle(rng):
    # alpha frozen at al: the terms quadratic in (a3, a4) carry al^2 = exp(-2*tau);
    # with a1 = a2 = 0 (or a3 = a4 = 0) no term linear in alpha is left out
    for a in ((0.0, 0.0, 0.75, 1.5), (1.0, 1.0, 0.0, 0.0)):
        p = ModelParams(*a, omega=1.0, epsilon=0.1, n=2)
        for al in (0.3, 1.0):
            for _ in range(5):
                y = random_polar(rng)[:4]
                oracle = second_order_average(y, p, al=al)
                field = polar_view(avg11_cart, 0.0, np.append(y, -math.log(al)), p)[:4]
                assert np.max(np.abs(oracle - field)) < 1e-8


def test_avg11_validation(p11, params12):
    with pytest.raises(ValueError):
        polar_view(avg11_cart, 0.0, np.array([0.5, 0, 0.5, 0, 0]), params12)
    with pytest.raises(ZeroAmplitudeError):
        polar_view(avg11_cart, 0.0, np.array([0.5, 0, 0.0, 0, 0]), p11)


# -------------------------------------------------------------- invariants


def test_invariant_fig1_values(params12):
    st = np.array([0.0, 0.5, 0.0, 0.5])
    assert cartesian_invariant("I3_12", st, params12) == 0.0
    assert cartesian_invariant("E0_12", st, params12) == pytest.approx(0.25, abs=1e-15)


def test_invariant_cross_form_agreement(params12, rng):
    # the invariants read in the slow phases (the chart at t = 0) agree with
    # the same state at any time t
    for _ in range(200):
        y = random_polar(rng)
        t = rng.uniform(0.0, 20.0)
        for name in ("E0_12", "I3_12"):
            a = cartesian_invariant(name, polar_to_cart(0.0, y, 2.0), params12)
            b = cartesian_invariant(name, polar_to_cart(t, y, 2.0), params12)
            assert abs(a - b) < 1e-11


def test_invariant_e0_11_and_i3_11(p11, rng):
    pol = [0.6, 0.2, 0.5, -0.3]
    slow, cart = polar_to_cart(0.0, pol, 1.0), polar_to_cart(2.7, pol, 1.0)
    for name in ("E0_11", "I3_11"):
        assert cartesian_invariant(name, slow, p11) == pytest.approx(
            cartesian_invariant(name, cart, p11), abs=1e-13)


def test_invariant_name_and_omega_validation(params12, p11):
    st = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        cartesian_invariant("E9_99", st, params12)
    with pytest.raises(ValueError):
        cartesian_invariant("E0_12", st, p11)
    with pytest.raises(ValueError):
        cartesian_invariant("E0_11", st, params12)
    # every record's invariant works at its own omega only, and at no untabulated one
    for omega, name in ((w, name) for w, entry in RESONANCES.items() for name in entry.invariants):
        assert np.isfinite(cartesian_invariant(name, st, params12.replace(omega=omega)))
        for other in (w for w in (*RESONANCES, 1.5) if w != omega):
            with pytest.raises(ValueError, match=f"omega = {other:g}"):
                cartesian_invariant(name, st, params12.replace(omega=other))


# ----------------------------------------------------------- I3_11 closed form


def test_i3_11_conserved_by_the_symmetric_flow():
    # the I3_11 of the states along symmetric avg11_cart runs (t = 6000,
    # 1000 samples) keeps a relative spread <= 1.2e-7 as measured, while its
    # r1^2*r2^2*cos(2*chi) term moves by 2.5e-2 to 9.4e-2
    y0 = polar_to_slow_cart(np.array([0.55, 0.2, 0.4, -0.5, 0.0]))
    cfg = IntegratorConfig(t_end=6000.0, sample_dt=6.0, rtol=1e-10, atol=1e-12)
    for a1, a2 in ((1.0, 1.0), (0.3, -0.8), (-1.2, 0.5)):
        p = ModelParams(a1, a2, 0.0, 0.0, omega=1.0, epsilon=0.1, n=2)
        x1, y1, x2, y2 = integrate(AVG11.at(p), y0, cfg).states[:, :4].T
        # the chart at t = 0: q = x, v = -y
        i3 = cartesian_invariant("I3_11", np.stack([x1, -y1, x2, -y2], axis=-1), p)
        cos2chi_term = (x1 * x2 + y1 * y2) ** 2 - (x1 * y2 - y1 * x2) ** 2
        assert np.ptp(i3) <= 1e-6 * np.max(np.abs(i3))
        assert np.ptp(cos2chi_term) >= 1e-2


def test_i3_11_at_unit_coefficients(p11, rng):
    # a1 = a2 = 1: k = -5/12 and I3_11/k = r1^2*r2^2*cos(2*chi) - u^2 + 2*E0*u + 2*E0^2
    # with u = r1^2 and E0 = (r1^2 + r2^2)/2; a3, a4 do not enter
    for _ in range(50):
        y = random_polar(rng)
        r1, r2, chi = y[0], y[2], y[1] - y[3]
        u, e0 = r1 * r1, 0.5 * (r1 * r1 + r2 * r2)
        expected = -5.0 / 12.0 * (u * r2 * r2 * math.cos(2.0 * chi) - u * u + 2.0 * e0 * u
                                  + 2.0 * e0 * e0)
        got = cartesian_invariant("I3_11", polar_to_cart(rng.uniform(0.0, 20.0), y, 1.0), p11)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)


# ------------------------------------------------------------ regular chart


def test_slow_cart_chart_consistent_with_polar(params12, p11, p13, rng):
    # the polar fields are the chain-rule view of these fields by construction;
    # the single-row integrator's form, a tuple of floats, gives a tuple of
    # floats with the bits of an ndarray state's answer
    for rhs_cart, p, tau in ((avg12_first_cart, params12, None),
                             (avg12_second_cart, params12, None),
                             (avg11_cart, p11, None),
                             (avg11_cart, p11, np.inf),
                             (avg13_cart, p13, None)):
        for _ in range(40):
            y = random_polar(rng)
            if tau is not None:
                y[4] = tau
            u = polar_to_slow_cart(y)
            d_cart = rhs_cart(0.0, u, p)
            d_tuple = rhs_cart(0.0, tuple(u.tolist()), p)
            assert type(d_tuple) is tuple and all(type(v) is float for v in d_tuple)
            assert type(d_cart) is tuple and d_tuple == d_cart


def test_slow_cart_fields_take_batch_columns(params12, p11, p13):
    # a field generated from its text takes batch columns: its call gives
    # every entry the bits of the call on floats, and a batch row of its
    # Taylor run equals the single run byte for byte
    y0 = np.array([polar_to_slow_cart(np.array([0.5, 0.3, 0.4, -0.2, 0.3])),
                   polar_to_slow_cart(np.array([0.4, 0.1, 0.5, 0.7, 0.0]))])
    cfg = IntegratorConfig(t_end=50.0, sample_dt=0.5)
    for equations, rhs_cart, p in ((AVG12_FIRST, avg12_first_cart, params12),
                                   (AVG12_SECOND, avg12_second_cart, params12),
                                   (AVG13, avg13_cart, p13), (AVG11, avg11_cart, p11)):
        columns = rhs_cart(0.0, tuple(y0.T), p)
        batch = integrate(equations.at(p), y0, cfg)
        assert batch.stats["failures"] == []
        for i, row in enumerate(y0):
            single = rhs_cart(0.0, tuple(row.tolist()), p)
            assert [column[i] for column in columns[:4]] == list(single[:4])
            run = integrate(equations.at(p), row, cfg)
            assert np.array_equal(batch.states[i], run.states)


def test_slow_cart_chart_crosses_normal_mode(params12):
    # 1:2: fig-style data with chi = -pi/2 drains mode 2 through zero.
    # 1:1: the normal modes are invariant, and data next to the separatrix of
    # the unstable q2 mode (a1 = 0) brings r2 close to zero.
    # The regular chart passes while conserving the quadratic integral.
    p11 = ModelParams(0.0, 1.0, 0.0, 0.0, omega=1.0, epsilon=0.1, n=2)
    cases = ((AVG12_FIRST, params12, [0.5, -math.pi / 2, 0.25, -math.pi / 2, 0.0],
              60.0, (0.5, 2.0)),
             (AVG11, p11, [0.9, 1.18, 0.3, 0.0, 0.0], 2500.0, (0.5, 0.5)))
    for equations, p, y0, horizon, (c1, c2) in cases:
        cfg = IntegratorConfig(t_end=horizon, sample_dt=0.1, rtol=1e-11, atol=1e-13)
        traj = integrate(equations.at(p), polar_to_slow_cart(np.array(y0)), cfg)
        r1, r2 = slow_cart_amplitudes(traj.states)
        e0 = c1 * r1**2 + c2 * r2**2
        assert r2[0] >= 0.25 and np.min(r2) < 0.02  # passes near the mode
        assert np.max(np.abs(e0 - e0[0])) < 1e-8  # conserved to integrator error
