from dataclasses import asdict

import numpy as np
import pytest

from nematic1d.coefficients import (InvalidCoefficients, LeslieSet,
                                    NearSingularMatrix, derive_viscosities,
                                    dissipation_parts, inverse_matrix_entries,
                                    matrix_entries, quadratic_form,
                                    random_valid_set, validate)


def test_example_set_passes_all_checks(base_set):
    report = validate(base_set)
    assert report.is_valid
    assert all(c.passed for c in report.checks)


def test_example_set_derived_viscosities(base_set):
    d = derive_viscosities(base_set)
    assert base_set.gamma1 == pytest.approx(2.0, abs=1e-15)
    assert base_set.gamma2 == pytest.approx(0.0, abs=1e-15)
    # closed form is min{1 - 0, 2 - 0} and is attained for this set
    assert d.lambda_closed_form == pytest.approx(1.0, abs=1e-14)
    assert d.lambda_lo == pytest.approx(1.0, abs=1e-12)
    assert d.lambda_hi == pytest.approx(1.0, abs=1e-12)


def test_negative_alpha4_fails_named_check(base_set):
    bad = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=-1.0, gamma_ad=2.0)
    report = validate(bad)
    assert not report.is_valid
    failed = {c.name for c in report.failed()}
    assert "alpha4_positive" in failed
    margin = next(c.margin for c in report.checks
                  if c.name == "alpha4_positive")
    assert margin == pytest.approx(-1.0)


def test_parodi_violation_detected():
    # alpha5 = 1, alpha6 = 0 breaks alpha2 + alpha3 = alpha6 - alpha5
    bad = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0, alpha5=1.0,
                    alpha6=0.0, gamma_ad=2.0)
    report = validate(bad)
    assert not report.is_valid
    assert "parodi" in {c.name for c in report.failed()}


def test_gamma_ad_must_exceed_one():
    bad = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0, gamma_ad=1.0)
    report = validate(bad)
    assert "adiabatic_exponent" in {c.name for c in report.failed()}


def test_report_serialization(base_set):
    report = validate(base_set)
    text = report.as_text()
    assert "parodi" in text and "valid" in text
    data = asdict(report)
    assert data["is_valid"] and len(data["checks"]) == 9


def test_derive_viscosities_rejects_invalid():
    bad = LeslieSet(alpha2=1.0, alpha3=-1.0, alpha4=1.0, gamma_ad=2.0)
    with pytest.raises(InvalidCoefficients, match="rotational_viscosity"):
        derive_viscosities(bad)


def test_closed_form_specialization(rng):
    # gamma2 = 0 and alpha1 = 0 reduce the closed form to
    # min{a4 + a7, 2 a4 + a5 + a6 - (a0 + a5 + a6 + a8)}
    for _ in range(20):
        c = random_valid_set(rng)
        if abs(c.gamma2) > 1e-14 or abs(c.alpha1) > 1e-14:
            c = LeslieSet(alpha0=c.alpha0, alpha1=0.0, alpha2=c.alpha2,
                          alpha3=c.alpha3, alpha4=c.alpha4, alpha5=c.alpha5,
                          alpha6=c.alpha5, alpha7=c.alpha7, alpha8=c.alpha8,
                          gamma_ad=c.gamma_ad)
            # force Parodi with gamma2 = 0: alpha2 + alpha3 must vanish
            c = LeslieSet(alpha0=c.alpha0, alpha1=0.0,
                          alpha2=-0.5 * (c.alpha3 - c.alpha2),
                          alpha3=0.5 * (c.alpha3 - c.alpha2),
                          alpha4=c.alpha4, alpha5=c.alpha5, alpha6=c.alpha5,
                          alpha7=c.alpha7, alpha8=c.alpha8,
                          gamma_ad=c.gamma_ad)
        if not validate(c).is_valid:
            continue
        d = derive_viscosities(c)
        a = c.alphas()
        expected = min(a[4] + a[7],
                       2 * a[4] + a[5] + a[6] - (a[0] + a[5] + a[6] + a[8]))
        assert d.lambda_closed_form == pytest.approx(expected, rel=1e-13)


def test_example_matrix_is_identity(base_set):
    for n in np.linspace(-np.pi, np.pi, 17):
        a11, a12, a21, a22 = matrix_entries(base_set, n)
        assert abs(a11 - 1.0) < 1e-14
        assert abs(a22 - 1.0) < 1e-14
        assert abs(a12) < 1e-14
        assert abs(a21) < 1e-14


def test_matrix_pi_periodicity(rng):
    for _ in range(10):
        c = random_valid_set(rng)
        n = rng.uniform(-np.pi, np.pi, 64)
        a = np.array(matrix_entries(c, n))
        b = np.array(matrix_entries(c, n + np.pi))
        assert np.max(np.abs(a - b)) < 1e-12


def test_ellipticity_bounds_hold(rng):
    # sampled Rayleigh quotients stay inside [lambda_lo, lambda_hi]
    for _ in range(20):
        c = random_valid_set(rng)
        d = derive_viscosities(c)
        assert c.gamma1 > 0.0
        assert 0.0 < d.lambda_lo <= d.lambda_hi
        n = rng.uniform(-np.pi, np.pi, 2000)
        theta = rng.uniform(0.0, 2.0 * np.pi, 2000)
        y1, y2 = np.cos(theta), np.sin(theta)
        ratio = quadratic_form(c, n, y1, y2)
        assert np.min(ratio) >= d.lambda_lo - 1e-10
        assert np.max(ratio) <= d.lambda_hi + 1e-10


def test_quadratic_form_expansion_matches_entries(rng):
    for _ in range(20):
        c = random_valid_set(rng)
        n = rng.uniform(-np.pi, np.pi, 500)
        y1 = rng.uniform(-3, 3, 500)
        y2 = rng.uniform(-3, 3, 500)
        direct = quadratic_form(c, n, y1, y2)
        expanded = sum(dissipation_parts(c, n, y1, y2, 0.0))
        scale = 1.0 + np.max(np.abs(direct))
        assert np.max(np.abs(direct - expanded)) < 1e-12 * scale


def test_inverse_is_identity_for_example(base_set):
    i11, _, _, i22 = inverse_matrix_entries(base_set, 1.234)
    assert abs(i11 - 1.0) < 1e-14
    assert abs(i22 - 1.0) < 1e-14


def test_inverse_times_matrix_is_identity(rng):
    for _ in range(20):
        c = random_valid_set(rng)
        n = rng.uniform(-np.pi, np.pi)
        a = np.reshape(matrix_entries(c, n), (2, 2))
        inv = np.reshape(inverse_matrix_entries(c, n), (2, 2))
        assert np.max(np.abs(inv @ a - np.eye(2))) < 1e-12
        assert inv[0, 0] > 0.0


def test_near_singular_inverse_raises():
    degenerate = LeslieSet()   # all-zero coefficients, det A = 0
    with pytest.raises(NearSingularMatrix):
        inverse_matrix_entries(degenerate, 0.3)


def test_random_valid_sets_are_valid(rng):
    for _ in range(50):
        c = random_valid_set(rng)
        assert validate(c).is_valid
