"""Slow reference implementations that the tests check the package against."""

from __future__ import annotations

import math
from typing import Sequence

from kneserlab.errors import DomainError, SearchBudgetExceeded
from kneserlab.families import GroundParams, SetFamily, degree_profile, enumerate_masks
from kneserlab.removal import union_distance


def brute_force_maximum(adjacency: Sequence[int]) -> tuple[int, list[int]]:
    """2^nv subset scan: (alpha, all maximum independent sets)."""
    nv = len(adjacency)
    if nv > 22:
        raise SearchBudgetExceeded("brute force oracle limited to 22 vertices")
    best = 0
    sols: list[int] = []
    for mask in range(1 << nv):
        size = mask.bit_count()
        if size < best:
            continue
        m = mask
        ok = True
        while m:
            low = m & -m
            if adjacency[low.bit_length() - 1] & mask:
                ok = False
                break
            m ^= low
        if not ok:
            continue
        if size > best:
            best = size
            sols = [mask]
        else:
            sols.append(mask)
    return best, sols


def quadratic_form(family: SetFamily) -> int:
    """f^T A f via an explicit double sum over ordered disjoint pairs."""
    mem = family.members
    return sum(1 for a in mem for b in mem if not a & b)


def residual_min_eigenvalue(params: GroundParams) -> int:
    """Most negative eigenvalue on the non-affine part: lambda_3 when k >= 3, else 0."""
    if params.k < 3:
        return 0
    return -math.comb(params.n - params.k - 3, params.k - 3)


def nearest_union_heuristic(family: SetFamily, ell: int) -> tuple[tuple[int, ...], int]:
    """Top-l-degree centre set (ties to smallest element) and its exact distance."""
    if ell > family.params.n:
        raise DomainError(f"l={ell} exceeds n={family.params.n}")
    degrees = degree_profile(family)
    order = sorted(range(1, family.params.n + 1), key=lambda i: (-degrees[i - 1], i))
    centres = tuple(sorted(order[:ell]))
    return centres, union_distance(family, centres)


def baranyai_backtrack(n: int, k: int) -> list[list[int]]:
    """Exact backtracking 1-factorisation of the slice, as lists of set masks."""
    all_masks = list(enumerate_masks(n, k))
    full = (1 << n) - 1
    unused = set(all_masks)
    classes: list[list[int]] = []

    def extend(current: list[int], union: int) -> bool:
        if union == full:
            classes.append(current.copy())
            for mask in current:
                unused.discard(mask)
            if not unused:
                return True
            nxt: list[int] = []
            if extend(nxt, 0):
                return True
            for mask in current:
                unused.add(mask)
            classes.pop()
            return False
        for mask in sorted(unused):
            if mask & union:
                continue
            if current and mask < current[-1]:
                continue
            current.append(mask)
            if extend(current, union | mask):
                return True
            current.pop()
        return False

    if not extend([], 0):
        raise AssertionError("backtracking failed to factorise the slice")
    return classes
