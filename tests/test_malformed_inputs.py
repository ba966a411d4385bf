"""Malformed inputs to the public functions raise DomainError, never a raw
TypeError or ValueError from deeper in the call."""

import json

import numpy as np
import pytest

from kneserlab.errors import DomainError
from kneserlab.families import GroundParams, build_family
from kneserlab.graphs import spectrum_cross_check
from kneserlab.removal import (RemovalConfig, calibrate_constant, nearest_union_exact,
                               removal_bound_check)
from kneserlab.spectral import eigenvalue_multiplicity, kneser_eigenvalue
from kneserlab.threshold import (ThresholdParams, analytic_bounds, estimate_probabilities,
                                 estimate_probability, find_threshold, wilson_interval)

P = GroundParams(12, 2)
STAR = build_family(GroundParams(7, 3), "star:1")
NOT_INTEGERS = (1.5, 2.0, "2")
NOT_REALS = (None, "1.5", 1.5 + 0j)
NO_DOUBLE = 10**400  # a finite real above every double

# (name, call of one value, malformed values, start of the message)
MALFORMED = [
    ("estimate_probability",
     lambda w: estimate_probability(ThresholdParams(P, 0.5, 30, 1), workers=w),
     NOT_INTEGERS, "workers"),
    ("estimate_probabilities", lambda w: estimate_probabilities(P, [0.5], 30, 1, workers=w),
     NOT_INTEGERS, "workers"),
    ("find_threshold", lambda w: find_threshold(P, 30, 1, workers=w), NOT_INTEGERS, "workers"),
    ("kneser_eigenvalue", lambda i: kneser_eigenvalue(P, i), (1.0, "1"), "i"),
    ("eigenvalue_multiplicity", lambda i: eigenvalue_multiplicity(P, i), (1.0, "1"), "i"),
    ("nearest_union_exact", lambda ell: nearest_union_exact(STAR, ell), (-1, 1.0), "ell"),
    ("wilson_interval", lambda s: wilson_interval(s, 2), (3, -1, 1.5), "successes"),
    ("wilson_interval", lambda t: wilson_interval(1, t), (2.5, "2"), "trials"),
    ("calibrate_constant", lambda f: calibrate_constant([], floor=f), ("x", 0.5, NO_DOUBLE),
     "floor"),
    ("spectrum_cross_check", lambda t: spectrum_cross_check(P, tol=t), ("x",), "tol"),
    ("RemovalConfig", lambda c: RemovalConfig(1, c), (*NOT_REALS, NO_DOUBLE), "c_const"),
    ("analytic_bounds", lambda z: analytic_bounds(P, z, 1, 1), NOT_REALS, "zeta"),
    ("analytic_bounds", lambda c: analytic_bounds(P, 1.1, 1, 1, c_const=c), NOT_REALS,
     "c_const"),
    ("analytic_bounds", lambda e: analytic_bounds(P, 1.1, 1, 1, epsilon=e), NOT_REALS,
     "epsilon"),
    ("build_family", lambda spec: build_family(P, spec), (None, 5, b"star:1"), "family spec"),
]
CASES = [pytest.param(call, value, field, id=f"{name} {field}={value!r:.24}")  # NO_DOUBLE cut
         for name, call, values, field in MALFORMED for value in values]


@pytest.mark.parametrize("call,value,field", CASES)
def test_malformed_input_is_a_domain_error(call, value, field):
    with pytest.raises(DomainError, match=f"^{field}"):
        call(value)


def test_nearest_union_at_l_0_is_the_empty_centre_set():
    assert nearest_union_exact(STAR, 0) == ((), len(STAR))


def test_reports_built_from_numpy_floats_dump():
    # each real is kept as the float it reads as, so the reports dump
    removal = removal_bound_check(STAR, RemovalConfig(1, np.float32(2.0))).to_json_dict()
    bounds = analytic_bounds(P, np.float32(1.1), 1, 1, c_const=np.float64(2),
                             epsilon=np.float32(0.1)).to_json_dict()
    assert json.loads(json.dumps(removal))["c_const"] == 2.0
    assert json.loads(json.dumps(bounds))["zeta"] == float(np.float32(1.1))
    floor = calibrate_constant([], floor=np.float32(1.5))
    assert type(floor) is float and floor == 1.5
