"""spectral: eigenvalues, affine decomposition, and the residual-norm bound."""

import numpy as np
import pytest

from kneserlab.errors import DomainError
from kneserlab.families import (
    GroundParams,
    SetFamily,
    build_family,
    disjoint_pairs,
    enumerate_masks,
)
from kneserlab.spectral import (
    decompose_affine,
    eigenvalue_multiplicity,
    kneser_eigenvalue,
    residual_bound_check,
)
from oracles import quadratic_form, residual_min_eigenvalue

TOL = 1e-9


def slice_vectors(params):
    """0/1 coordinate matrix of the slice, rows in canonical vertex order."""
    masks = list(enumerate_masks(params.n, params.k))
    x = np.zeros((len(masks), params.n))
    for r, m in enumerate(masks):
        for i in range(params.n):
            if (m >> i) & 1:
                x[r, i] = 1.0
    return masks, x


def lstsq_residual_oracle(family):
    """Exact least-squares affine fit by explicit slice enumeration."""
    params = family.params
    masks, x = slice_vectors(params)
    member = set(family.members)
    f = np.array([1.0 if m in member else 0.0 for m in masks])
    design = np.hstack([np.ones((len(masks), 1)), x])
    coef, *_ = np.linalg.lstsq(design, f, rcond=None)
    resid = f - design @ coef
    return float(np.mean(resid ** 2))


def test_eigenvalue_examples():
    params = GroundParams(5, 2)
    assert [kneser_eigenvalue(params, i) for i in range(3)] == [3, -2, 1]
    assert {type(kneser_eigenvalue(params, i)) for i in range(3)} == {int}
    with pytest.raises(DomainError):
        kneser_eigenvalue(params, 3)
    assert eigenvalue_multiplicity(params, 0) == 1
    assert eigenvalue_multiplicity(params, 1) == 4
    assert eigenvalue_multiplicity(params, 2) == 5


def test_eigenvalues_match_petersen_numerics():
    params = GroundParams(5, 2)
    masks = list(enumerate_masks(5, 2))
    a = np.array([[1.0 if (u & v) == 0 else 0.0 for v in masks] for u in masks])
    computed = np.sort(np.linalg.eigvalsh(a))
    expected = np.sort([3.0] + [1.0] * 5 + [-2.0] * 4)
    assert np.allclose(computed, expected, atol=1e-9)


def test_decompose_trivial_families():
    params = GroundParams(5, 2)
    full = SetFamily.from_masks(params, enumerate_masks(5, 2))
    dec = decompose_affine(full)
    assert dec.f0 == pytest.approx(1.0)
    assert dec.f1_norm_sq == pytest.approx(0.0, abs=TOL)
    assert dec.f2_norm_sq == pytest.approx(0.0, abs=TOL)
    star = decompose_affine(build_family(params, "star:1"))
    assert star.f2_norm_sq == pytest.approx(0.0, abs=TOL)
    assert star.affine_coeffs == pytest.approx((0.4, 0.8, -0.2, -0.2, -0.2, -0.2))


def test_decompose_two_disjoint_sets():
    params = GroundParams(5, 2)
    dec = decompose_affine(SetFamily.from_masks(params, [0b00011, 0b01100]))
    assert 0.0 < dec.f2_norm_sq <= 1.5


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3), (8, 3), (9, 4)])
def test_decompose_matches_lstsq_oracle(n, k):
    params = GroundParams(n, k)
    for seed in range(8):
        m = (seed * 29 + 5) % params.slice_size + 1
        fam = build_family(params, f"random:{m}:{seed}")
        dec = decompose_affine(fam)
        assert dec.f2_norm_sq == pytest.approx(lstsq_residual_oracle(fam), abs=1e-9)
        assert dec.parseval_residual <= TOL


def test_residual_orthogonal_to_affine_functions():
    params = GroundParams(6, 2)
    fam = build_family(params, "random:7:3")
    dec = decompose_affine(fam)
    masks, x = slice_vectors(params)
    member = set(fam.members)
    f = np.array([1.0 if m in member else 0.0 for m in masks])
    g = dec.affine_coeffs[0] + x @ np.array(dec.affine_coeffs[1:])
    resid = f - g
    assert abs(np.mean(resid)) <= TOL
    for i in range(params.n):
        assert abs(np.mean(resid * x[:, i])) <= TOL


def test_affine_coeffs_gauge():
    fam = build_family(GroundParams(7, 3), "random:12:9")
    dec = decompose_affine(fam)
    assert sum(dec.affine_coeffs[1:]) == pytest.approx(0.0, abs=TOL)


def test_quadratic_form_examples():
    params = GroundParams(5, 2)
    assert quadratic_form(build_family(params, "star:1")) == 0
    assert quadratic_form(build_family(params, "antistar:5")) == 6
    full = SetFamily.from_masks(params, enumerate_masks(5, 2))
    assert quadratic_form(full) == 30


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (10, 4)])
def test_quadratic_form_is_twice_dp(n, k):
    params = GroundParams(n, k)
    for seed in range(10):
        m = (seed * 53 + 13) % params.slice_size + 1
        fam = build_family(params, f"random:{m}:{seed + 100}")
        assert quadratic_form(fam) == 2 * disjoint_pairs(fam)


def test_residual_bound_examples():
    params = GroundParams(5, 2)
    rep = residual_bound_check(build_family(params, "star:1"), 1)
    assert (rep.lhs, rep.rhs, rep.holds) == (0.0, 0.0, True)
    rep = residual_bound_check(build_family(params, "antistar:5"), 1)
    assert rep.lhs == pytest.approx(0.0, abs=TOL)
    assert rep.rhs == pytest.approx(0.5)
    assert rep.holds
    rep = residual_bound_check(SetFamily.from_masks(params, [0b00011, 0b01100]), 1)
    assert rep.rhs == pytest.approx(1.5)
    assert rep.holds


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (7, 3), (9, 3), (9, 4), (11, 5)])
@pytest.mark.parametrize("ell", [1, 2])
def test_residual_bound_randomized(n, k, ell):
    params = GroundParams(n, k)
    for seed in range(25):
        m = (seed * 31 + 1) % params.slice_size + 1
        fam = build_family(params, f"random:{m}:{seed + 7 * ell}")
        assert residual_bound_check(fam, ell).holds


def test_spectral_bound_chain():
    # lambda_0 ||f0||^2 + lambda_1 ||f1||^2 + lambda_min_res ||f2||^2
    #   <= f^T A f / C(n,k)
    for n, k in [(7, 3), (9, 4), (7, 2)]:
        params = GroundParams(n, k)
        lam0 = kneser_eigenvalue(params, 0)
        lam1 = kneser_eigenvalue(params, 1)
        lam_res = residual_min_eigenvalue(params)
        for seed in range(10):
            m = (seed * 19 + 3) % params.slice_size + 1
            fam = build_family(params, f"random:{m}:{seed}")
            dec = decompose_affine(fam)
            lhs = (lam0 * dec.f0 ** 2 + lam1 * dec.f1_norm_sq
                   + lam_res * dec.f2_norm_sq)
            rhs = quadratic_form(fam) / params.slice_size
            assert lhs <= rhs + TOL


def test_union_of_two_stars_has_residual():
    # max of >= 2 coordinates is not affine on the slice when n > 2k + 1
    for n, k in [(6, 2), (8, 3), (10, 4)]:
        fam = build_family(GroundParams(n, k), "union:1,2")
        assert decompose_affine(fam).f2_norm_sq > 0
    for n, k in [(6, 2), (8, 3)]:
        star = build_family(GroundParams(n, k), "star:1")
        assert decompose_affine(star).f2_norm_sq == pytest.approx(0.0, abs=TOL)


def test_decompose_requires_gap():
    with pytest.raises(DomainError):
        decompose_affine(build_family(GroundParams(4, 2), "star:1"))


def test_decomposition_json_fields():
    dec = decompose_affine(build_family(GroundParams(5, 2), "star:1"))
    payload = dec.to_json_dict()
    assert set(payload) == {"f0", "affine_coeffs", "f1_norm_sq", "f2_norm_sq",
                            "parseval_residual"}
    assert len(payload["affine_coeffs"]) == 6


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (9, 4), (12, 2), (14, 3), (20, 4)])
def test_integer_decomposition_matches_fraction_loop(n, k):
    import json

    from oracles import decompose_affine_fraction

    params = GroundParams(n, k)
    total = params.slice_size
    specs = ["star:1", "union:1,2", "complement-of:star:2"] + [
        f"random:{m}:{seed}" for seed, m in enumerate(
            {1, 2, total // 3, total // 2, total - 1, total})]
    for spec in specs:
        fam = build_family(params, spec)
        got, want = decompose_affine(fam), decompose_affine_fraction(fam)
        assert got == want, spec
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def test_one_decomposition_per_family(monkeypatch):
    from kneserlab import spectral
    from kneserlab.removal import RemovalConfig, center_set_check

    params = GroundParams(12, 3)
    fam = build_family(params, "random:60:5")
    outside = next(m for m in enumerate_masks(12, 3) if m not in fam)
    other = SetFamily.from_masks(params, fam.members[1:] + (outside,))
    decompose_affine.cache_clear()
    runs = []
    run = decompose_affine.__wrapped__
    monkeypatch.setattr(spectral.decompose_affine, "__wrapped__",
                        lambda family: runs.append(family) or run(family))
    for family in (fam, other):
        dec = decompose_affine(family)
        residual = [residual_bound_check(family, ell) for ell in (1, 2)]
        centre = center_set_check(family, RemovalConfig(1))
        assert [r.lhs for r in residual] == [dec.f2_norm_sq] * 2
        assert centre.eps_in == dec.f2_norm_sq
        assert dec == run(family)
    assert runs == [fam, other]
    assert decompose_affine(other) != decompose_affine(fam)
