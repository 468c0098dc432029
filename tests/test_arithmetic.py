"""Per-kind group arithmetic against the string-dispatched reference.

Each GroupSpec binds its multiplication, inverse, word length and
structural key once, as closures.  oracles.py keeps the if-chains that
dispatched on the kind per call; both must agree on every pair of Ball(3)
for every kind, and the canonical order must follow the reference key.
"""

import random

import pytest

import oracles
from coarsekit import groups

SPECS = [
    "Z", "Z^2", "Z^3", "F(2)", "F(3)", "DihInf", "Zmod(1)", "Zmod(2)", "Zmod(6)",
    "product(Z,DihInf)", "product(F(2),Zmod(3))",
]


@pytest.mark.parametrize("text", SPECS)
def test_arithmetic_matches_reference(text):
    spec = groups.parse_group_spec(text)
    pool = groups.ball(spec, 3).elements
    for a in pool:
        assert groups.invert(spec, a) == oracles.ref_invert(spec, a), a
        assert groups.word_length(spec, a) == oracles.ref_word_length(spec, a), a
        assert groups.sort_key(spec, a) == oracles.ref_sort_key(spec, a), a
        for b in pool:
            assert groups.multiply(spec, a, b) == oracles.ref_multiply(spec, a, b), (a, b)
            assert groups.conjugate(spec, a, b) == oracles.ref_multiply(
                spec, oracles.ref_multiply(spec, oracles.ref_invert(spec, b), a), b
            ), (a, b)


@pytest.mark.parametrize("text", SPECS)
def test_canonical_order_follows_reference_key(text):
    spec = groups.parse_group_spec(text)
    pool = list(groups.ball(spec, 3).elements)
    expected = tuple(sorted(pool, key=lambda g: oracles.ref_sort_key(spec, g)))
    shuffled = pool * 2
    random.Random(0).shuffle(shuffled)
    assert groups.canonical_sorted(spec, shuffled) == expected
    # the ball lists each layer in canonical order
    assert tuple(pool) == expected


def test_spec_identity_ignores_the_closures():
    parsed = groups.parse_group_spec("Z^2")
    built = groups.free_abelian(2)
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed.mul is not built.mul
    assert repr(parsed) == "GroupSpec(Z^2)"
    nested = groups.parse_group_spec("product(F(2),Zmod(3))")
    assert nested == groups.product(groups.free_group(2), groups.cyclic(3))
    assert repr(nested) == "GroupSpec(product(F(2),Zmod(3)))"
    assert groups.free_abelian(2) != groups.free_abelian(3)
