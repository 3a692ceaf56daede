import numpy as np
import pytest

from nematic1d.coefficients import (LeslieSet, dissipation_parts,
                                    example_set, inverse_matrix_entries,
                                    matrix_entries, quadratic_form,
                                    random_valid_set)
from nematic1d.derivation import (KinematicSample, TrigProfile, _richardson_dx,
                                  assemble_stress, check_director_identity,
                                  check_divergence_identity,
                                  check_energy_identity,
                                  director_normal_component,
                                  run_identity_suite, stack_profiles,
                                  standard_profiles)
from nematic1d.fields import Grid1D, flux_bracket


def test_stress_vanishes_without_rates(base_set):
    s = KinematicSample(n=0.7, n_x=1.3, n_xx=-2.0)
    out = assemble_stress(s, base_set)
    assert np.max(np.abs(out.sigma)) == 0.0
    assert np.max(np.abs(out.g)) == 0.0


def test_stress_pure_rotation_at_zero_angle(base_set):
    # ndot = 1, u_x = v_x = 0, n = 0: only the two rotational terms survive
    s = KinematicSample(n=0.0, ndot=1.0)
    out = assemble_stress(s, base_set)
    expect = np.array([[0.0, 1.0], [-1.0, 0.0]])   # a3 = 1 upper, a2 = -1 lower
    assert np.max(np.abs(out.sigma - expect)) < 1e-15


def test_stress_trace_term():
    # the isotropic-trace coefficient contributes a7 * u_x * I
    lo = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0, alpha7=0.0)
    hi = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0, alpha7=2.5)
    s = KinematicSample(n=0.9, u_x=0.8, v_x=-0.4, ndot=0.3)
    diff = assemble_stress(s, hi).sigma - assemble_stress(s, lo).sigma
    assert np.max(np.abs(diff - 2.5 * 0.8 * np.eye(2))) < 1e-14


def test_assemble_stress_broadcasts(rng):
    c = random_valid_set(rng)
    assert min(abs(c.alpha0), abs(c.alpha7), abs(c.alpha8)) > 1e-3
    fields = ("n", "n_x", "n_xx", "u_x", "v_x", "ndot")
    draws = {f: rng.uniform(-3, 3, (3, 4)) for f in fields}
    out = assemble_stress(KinematicSample(**draws), c)
    assert out.sigma.shape == (3, 4, 2, 2)
    assert out.g.shape == (3, 4, 2)
    for idx in np.ndindex(3, 4):
        point = assemble_stress(
            KinematicSample(**{f: draws[f][idx] for f in fields}), c)
        assert point.sigma.shape == (2, 2)
        assert point.g.shape == (2,)
        for name in ("sigma", "g"):
            ref = getattr(point, name)
            got = getattr(out, name)[idx]
            assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    # fields left at their float defaults broadcast against the arrays
    partial = assemble_stress(KinematicSample(n=draws["n"], ndot=draws["ndot"]), c)
    assert partial.sigma.shape == (3, 4, 2, 2)
    # a point sample still yields plain scalars from the identity checks
    point = KinematicSample(**{f: float(draws[f][0, 0]) for f in fields})
    assert isinstance(check_director_identity(point, c), float)
    assert isinstance(director_normal_component(point, c), float)
    assert isinstance(check_energy_identity(0.1, 0.2, 0.3, 0.4, c), float)


# -----------------------------------------------------------------------------
# divergence identity
# -----------------------------------------------------------------------------

def test_divergence_identity_constant_fields(base_set):
    profile = TrigProfile(au=0.0, av=0.0, an=0.0, n0=0.6, ad=0.0)
    err = check_divergence_identity(base_set, profile, Grid1D(16))
    assert err < 1e-12


def test_divergence_identity_named_profile(base_set):
    profile = TrigProfile(au=1.0, ku=1, av=1.0, kv=2, an=1.0, kn=1, ad=0.5)
    err = check_divergence_identity(base_set, profile, Grid1D(32))
    assert err < 1e-8


def random_profile(rng):
    return TrigProfile(
        au=rng.uniform(-1.5, 1.5), ku=int(rng.integers(1, 4)),
        av=rng.uniform(-1.5, 1.5), kv=int(rng.integers(1, 4)),
        an=rng.uniform(-1.2, 1.2), kn=int(rng.integers(1, 4)),
        n0=rng.uniform(-np.pi, np.pi), ad=rng.uniform(-1.0, 1.0),
        kd=int(rng.integers(1, 4)),
    )


def test_divergence_identity_random_sets(rng):
    for _ in range(5):
        c = random_valid_set(rng)
        p = random_profile(rng)
        assert check_divergence_identity(c, p, Grid1D(24)) < 1e-8


@pytest.mark.parametrize("cells", [16, 64])
@pytest.mark.parametrize("which", ["example", "random"])
def test_stacked_profiles_give_the_single_profile_answer(rng, which, cells):
    # the suite checks the five profiles as (5, 1) columns in one call:
    # that must be the worst single-profile gap, bit for bit
    c = example_set() if which == "example" else random_valid_set(rng)
    grid = Grid1D(cells)
    profiles = standard_profiles()
    stacked = check_divergence_identity(c, stack_profiles(profiles), grid)
    assert stacked == max(check_divergence_identity(c, p, grid) for p in profiles)


def test_divergence_canary_detects_corruption(base_set, corrupt_flux_bracket):
    corrupt_flux_bracket()
    profile = standard_profiles()[0]
    err = check_divergence_identity(base_set, profile, Grid1D(24))
    assert err > 1e-4


# -----------------------------------------------------------------------------
# director identity
# -----------------------------------------------------------------------------

def test_director_identity_static(base_set):
    s = KinematicSample(n=1.2)
    assert check_director_identity(s, base_set) == pytest.approx(0.0, abs=1e-15)


def test_director_identity_fuzz(rng):
    for _ in range(300):
        c = random_valid_set(rng)
        s = KinematicSample(n=rng.uniform(-np.pi, np.pi),
                            n_x=rng.uniform(-2, 2),
                            n_xx=rng.uniform(-20, 20),
                            u_x=rng.uniform(-3, 3),
                            v_x=rng.uniform(-3, 3),
                            ndot=rng.uniform(-3, 3))
        assert abs(check_director_identity(s, c)) < 1e-12
        assert abs(director_normal_component(s, c)) < 1e-12


# -----------------------------------------------------------------------------
# energy identity
# -----------------------------------------------------------------------------

def test_energy_identity_zero_rates(base_set):
    assert check_energy_identity(0.0, 0.0, 0.0, 0.9, base_set) == 0.0


def test_energy_identity_example_expansion(base_set):
    # for the example set the direct form is 2 m^2 - 2 b m + a^2 + b^2
    for a, b, m, n in [(1.0, 2.0, 0.5, 0.3), (-0.4, 0.7, 1.1, -2.0)]:
        lhs = 2 * m * m - 2 * b * m + a * a + b * b
        sq = (np.sqrt(2) * m - b / np.sqrt(2)) ** 2
        rhs = sq + a * a + 0.5 * b * b
        assert lhs == pytest.approx(rhs, rel=1e-14)
        assert check_energy_identity(a, b, m, n, base_set) == \
            pytest.approx(0.0, abs=1e-12)


def test_energy_identity_fuzz(rng):
    for _ in range(30):
        c = random_valid_set(rng)
        a = rng.uniform(-3, 3, 200)
        b = rng.uniform(-3, 3, 200)
        m = rng.uniform(-3, 3, 200)
        n = rng.uniform(-np.pi, np.pi, 200)
        scale = 1.0 + np.max(a * a + b * b + m * m)
        res = np.array([check_energy_identity(a[i], b[i], m[i], n[i], c)
                        for i in range(a.size)])
        assert np.max(np.abs(res)) < 1e-11 * scale


def test_longitudinal_coefficient_normalization(rng):
    # doubling the (alpha4 + alpha7) coefficient breaks the identity by
    # exactly (alpha4 + alpha7) a^2; the printed single coefficient is the
    # algebraically correct one
    for _ in range(20):
        c = random_valid_set(rng)
        a = rng.uniform(0.5, 2.0)
        b, m, n = rng.uniform(-2, 2, 3)
        base = check_energy_identity(a, b, m, n, c)
        doubled_rhs_residual = base - (c.alpha4 + c.alpha7) * a * a
        assert abs(base) < 1e-11 * (1 + a * a + b * b + m * m)
        assert doubled_rhs_residual == pytest.approx(
            -(c.alpha4 + c.alpha7) * a * a, rel=1e-10)


def test_reduced_form_lower_bound(rng):
    # with the director rate chosen to zero the first square, the remaining
    # sum is >= min{branch1, branch2/4} * (a^2 + b^2)
    for _ in range(40):
        c = random_valid_set(rng)
        g1, g2 = c.gamma1, c.gamma2
        al = c.alphas()
        q = al[1] + g2 * g2 / g1
        branch1 = (al[4] + al[7]) - 0.25 * q
        branch2 = (2 * al[4] + al[5] + al[6] - g2 * g2 / g1) \
            - (al[0] + al[1] + al[5] + al[6] + al[8])
        floor = min(branch1, 0.25 * branch2)
        a, b = rng.uniform(-3, 3, 2)
        n = rng.uniform(-np.pi, np.pi)
        s2n, c2n = np.sin(2 * n), np.cos(2 * n)
        m = (g2 * a * s2n + (g1 - g2 * c2n) * b) / (2.0 * g1)
        lhs = (g1 * m * m - g2 * a * m * s2n - (g1 - g2 * c2n) * b * m)
        from nematic1d.coefficients import quadratic_form
        reduced = lhs + quadratic_form(c, n, a, b)
        assert reduced >= floor * (a * a + b * b) - 1e-10 * (1 + a * a + b * b)


# -----------------------------------------------------------------------------
# the full suite
# -----------------------------------------------------------------------------

def test_identity_suite_passes():
    rows = run_identity_suite(seed=3, samples=1500, num_sets=5, grid_cells=24)
    assert all(r.passed for r in rows)


def _point_by_point_suite(seed, samples, num_sets, grid_cells):
    """run_identity_suite written one point at a time: one assemble_stress
    call per node and one KinematicSample per drawn sample, with the draws
    in the order the suite consumes them."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(grid_cells)
    sets = [example_set()] + [random_valid_set(rng) for _ in range(num_sets - 1)]
    rows = []

    worst = 0.0
    for c in sets:
        for p in standard_profiles():
            def stress_col(xx):
                col = np.empty((2, xx.size))
                for i, xi in enumerate(xx):
                    sigma = assemble_stress(p.sample(xi), c).sigma
                    col[0, i], col[1, i] = sigma[0, 0], sigma[1, 0]
                return col

            def bracket(xx):
                s = p.sample(xx)
                return np.stack(flux_bracket(c, s.u_x, s.v_x, s.n, s.ndot))

            lhs = _richardson_dx(stress_col, grid.x)
            rhs = _richardson_dx(bracket, grid.x)
            scale = max(np.max(np.abs(rhs)), 1.0)
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    rows.append(("divergence: stress column vs flux bracket", worst, 1e-8))

    worst = 0.0
    per_set = max(1, samples // len(sets))
    for c in sets:
        for _ in range(per_set):
            s = KinematicSample(n=rng.uniform(-np.pi, np.pi),
                                n_x=rng.uniform(-2, 2),
                                n_xx=rng.uniform(-20, 20),
                                u_x=rng.uniform(-3, 3),
                                v_x=rng.uniform(-3, 3),
                                ndot=rng.uniform(-3, 3))
            worst = max(worst, abs(check_director_identity(s, c)),
                        abs(director_normal_component(s, c)))
    rows.append(("director: vector projection vs scalar form", worst, 1e-12))

    worst = 0.0
    for c in sets:
        a, b, m = (rng.uniform(-3, 3, per_set) for _ in range(3))
        nn = rng.uniform(-np.pi, np.pi, per_set)
        scale = 1.0 + np.max(a * a + b * b + m * m)
        res = [abs(check_energy_identity(a[i], b[i], m[i], nn[i], c))
               for i in range(per_set)]
        worst = max(worst, max(res) / scale)
    rows.append(("energy: direct vs completed squares (scaled)", worst, 1e-11))

    worst = 0.0
    for c in sets:
        nn = rng.uniform(-np.pi, np.pi, per_set)
        y1 = rng.uniform(-3, 3, per_set)
        y2 = rng.uniform(-3, 3, per_set)
        direct = quadratic_form(c, nn, y1, y2)
        expanded = sum(dissipation_parts(c, nn, y1, y2, 0.0))
        worst = max(worst, float(np.max(np.abs(direct - expanded))
                                 / (1.0 + np.max(np.abs(direct)))))
    rows.append(("quadratic form: entries vs expansion (scaled)", worst, 1e-12))

    worst = 0.0
    inv11_min = np.inf
    for c in sets:
        nn = rng.uniform(-np.pi, np.pi, 64)
        a11, a12, a21, a22 = matrix_entries(c, nn)
        i11, i12, i21, i22 = inverse_matrix_entries(c, nn)
        worst = max(worst, np.max(np.abs(i11 * a11 + i12 * a21 - 1.0)),
                    np.max(np.abs(i11 * a12 + i12 * a22)),
                    np.max(np.abs(i21 * a11 + i22 * a21)),
                    np.max(np.abs(i21 * a12 + i22 * a22 - 1.0)))
        inv11_min = min(inv11_min, float(np.min(i11)))
    rows.append(("inverse: A^-1 A = I", float(worst), 1e-12))
    rows.append(("inverse: (A^-1)_11 > 0 (negated min)", -inv11_min, 0.0))
    return rows


@pytest.mark.parametrize("seed", [0, 11])
def test_identity_suite_matches_point_by_point_reference(seed):
    args = dict(samples=300, num_sets=4, grid_cells=16)
    rows = run_identity_suite(seed=seed, **args)
    ref = _point_by_point_suite(seed, **args)
    assert len(rows) == len(ref) == 6
    for row, (name, residual, threshold) in zip(rows, ref):
        assert row.name == name
        assert row.threshold == threshold
        assert row.passed == (residual <= threshold)
        assert abs(row.max_residual - residual) <= 1e-13


def test_identity_suite_canary_fails(corrupt_flux_bracket):
    corrupt_flux_bracket()
    rows = run_identity_suite(seed=3, samples=500, num_sets=3, grid_cells=16)
    assert not rows[0].passed
