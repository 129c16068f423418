"""Golden digests of the repair plans.

Each digest is the sha256 of the plans' ``plan_to_json`` documents, one
sorted-key JSON line per plan, so any change to a group, a transmission or
their order shows up here.
"""

import hashlib
import json

import pytest

from arraycode import Code
from arraycode.codes import FAMILIES
from arraycode.planner import plan_evenodd_single, plan_to_json

PRIMES = (5, 7, 11, 13)


def _single_plans():
    for p in PRIMES:
        for family in FAMILIES:
            code = Code.make(family, p)
            for col in code.systematic_cols():
                yield code.spec.plan(code, (col,))


def _evenodd_x_plans():
    for p in PRIMES:
        code = Code.evenodd(p)
        for col in code.systematic_cols():
            for x in range(p):
                yield plan_evenodd_single(code, col, x)


def _extended_plans():
    for p in PRIMES:
        for r in range(2, min(5, p - 1) + 1):
            code = Code.evenodd_ext(p, r)
            for col in code.systematic_cols():
                yield code.spec.plan(code, (col,))


def _star_double_plans():
    for p in PRIMES:
        code = Code.star(p)
        for a in code.systematic_cols():
            for b in code.systematic_cols():
                if a != b:
                    yield code.spec.plan(code, (a, b))


GOLDEN = {
    _single_plans:
        "1c97bc5e27483ae11df3064149fb7537fbc2923cb357ab30be363588fb356177",
    _evenodd_x_plans:
        "2cf134e7f374936a9086058b8a4ff2cab73b42db7d939bdbf191b6ab738b75e9",
    _extended_plans:
        "f2e875c05c210a7567ccc99fa7a7756670581bb8eb4fbcb661855b5bf1623b37",
    _star_double_plans:
        "a13eeb0fa362554df3c0a596a796013a07e1fd852034f9647bfbbce3a672998c",
}


def _digest(plans) -> str:
    h = hashlib.sha256()
    for plan in plans:
        h.update(json.dumps(plan_to_json(plan), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("plans", list(GOLDEN), ids=lambda f: f.__name__[1:])
def test_plan_json_digest(plans):
    assert _digest(plans()) == GOLDEN[plans]
