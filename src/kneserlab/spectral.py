"""Spectral decomposition of family indicators on the k-uniform slice.

The indicator f of a family splits as f = f0 + f1 + f2: constant part,
best affine part, and the residual orthogonal to every affine function
(uniform measure on C([n],k)).  The affine space is exactly the span of the
top two Kneser eigenspaces, so the projection can be computed in closed form
from the degree profile: with y_i = x_i - k/n,

    E[y_i y_j] = k(n-k)/n^2 * (delta_ij - 1/(n-1) (i != j)),

which is c*(n*I - J) with c = k(n-k)/(n^2 (n-1)); on the gauge slice
sum_i a_i = 0 this is diagonal, so the normal equations solve in O(n).
Norms are exact integer ratios; the dataclass keeps float views and the exact ||f2||^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .errors import DomainError
from .families import (GroundParams, SetFamily, degree_profile, disjoint_pairs, excess_ratio,
                       integer, recent_family_memo)


def kneser_eigenvalue(params: GroundParams, i: int) -> int:
    """lambda_i = (-1)^i * C(n-k-i, k-i) for 0 <= i <= k."""
    n, k, i = params.n, params.k, integer("i", i, 0, params.k)
    if n < 2 * k:
        raise DomainError(f"Kneser eigenvalues need n >= 2k, got n={n} k={k}")
    return (-1) ** i * math.comb(n - k - i, k - i)


def eigenvalue_multiplicity(params: GroundParams, i: int) -> int:
    """dim of the i-th eigenspace: C(n,i) - C(n,i-1); gives 1 and n-1 for i=0,1."""
    i = integer("i", i, 0, params.k)
    below = math.comb(params.n, i - 1) if i >= 1 else 0
    return math.comb(params.n, i) - below


@dataclass(frozen=True)
class SpectralDecomposition:
    """f = f0 + f1 + f2 with float report views and the exact ||f2||^2.

    affine_coeffs = (a0, a1..an) describes g = f0 + f1 as a0 + sum a_i x_i
    under the gauge sum_{i>=1} a_i = 0 (the one linear dependency on the
    slice, sum_i x_i == k, is absorbed into a0).
    """

    params: GroundParams
    f0: float
    affine_coeffs: tuple[float, ...]
    f1_norm_sq: float
    f2_norm_sq: float
    parseval_residual: float
    f2_norm_sq_exact: Fraction = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "f0": self.f0,
            "affine_coeffs": list(self.affine_coeffs),
            "f1_norm_sq": self.f1_norm_sq,
            "f2_norm_sq": self.f2_norm_sq,
            "parseval_residual": self.parseval_residual,
        }


@recent_family_memo
def decompose_affine(family: SetFamily) -> SpectralDecomposition:
    """Least-squares affine approximation of the family indicator (n > 2k),
    memoised for the most recent family: every check of it reads one."""
    params = family.params
    params.require_gap("decompose_affine")
    n, k = params.n, params.k
    total = params.slice_size
    size = len(family)
    degrees = degree_profile(family)

    # b_i = E[f y_i] = b_num[i] / (total n), and the gauge solution is
    # a_i = b_i n(n-1) / (k(n-k)) = b_num[i] (n-1) / (total k(n-k)).  Each
    # quantity is an integer over a common denominator, and int / int true
    # division rounds correctly, as float(Fraction) does.
    b_num = [n * d - k * size for d in degrees]
    a_den = total * k * (n - k)
    f1_num = (n - 1) * sum(b * b for b in b_num)
    f1_den = a_den * total * n
    # f2 = mean - mean^2 - f1, over f1's denominator
    f2_num = size * (total - size) * k * (n - k) * n - f1_num

    f0_f = size / total
    f1_f = f1_num / f1_den
    f2_f = f2_num / f1_den
    residual = abs(f0_f - f0_f * f0_f - f1_f - f2_f)
    return SpectralDecomposition(
        params=params,
        f0=f0_f,
        affine_coeffs=(f0_f, *(b * (n - 1) / a_den for b in b_num)),
        f1_norm_sq=f1_f,
        f2_norm_sq=f2_f,
        parseval_residual=residual,
        f2_norm_sq_exact=Fraction(f2_num, f1_den),
    )


@dataclass(frozen=True)
class ResidualBoundReport:
    lhs: float
    rhs: float
    holds: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def residual_bound_check(family: SetFamily, ell: int) -> ResidualBoundReport:
    """Residual-norm inequality ||f2||^2 <= FamilyStats.excess at l, decided in
    integers; int / int true division rounds as float(Fraction) does."""
    family.params.require_gap("residual_bound_check")
    num, den = excess_ratio(family.params, ell, len(family), disjoint_pairs(family))
    dec = decompose_affine(family)
    f2, f2_den = dec.f2_norm_sq_exact.as_integer_ratio()
    return ResidualBoundReport(dec.f2_norm_sq, num / den, f2 * den <= num * f2_den)
