"""Per-kind group classes against the string-dispatched reference.

Each kind is one GroupSpec subclass that binds its multiplication, inverse,
word length and structural key once, as closures, and holds its identity,
generators, label, normal-form test, text format and parser.  oracles.py
keeps the if-chains that dispatched on the kind per call; both must agree on
every pair of Ball(3) for every kind, the canonical order must follow the
reference key, and malformed input must fail the same way.
"""

import random

import pytest

import oracles
from coarsekit import groups
from coarsekit.errors import MalformedElementError, UnsupportedRankError
from coarsekit.spaces import FiniteSpace, GroupSpace

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
    # same constructor argument, another kind
    assert groups.cyclic(2) != groups.free_abelian(2)
    # equal specs share one ball cache
    assert groups.ball(parsed, 2) is groups.ball(built, 2)
    assert sum(key == built for key in groups._BALL_CACHES) == 1

    assert GroupSpace(groups.Z) == GroupSpace(groups.free_abelian(1))
    assert hash(GroupSpace(groups.Z)) == hash(GroupSpace(groups.free_abelian(1)))
    assert GroupSpace(groups.Z) != GroupSpace(groups.DIH)
    finite = FiniteSpace("two", ("a", "b"))
    assert finite == FiniteSpace("two", ("a", "b"))
    assert hash(finite) == hash(FiniteSpace("two", ("a", "b")))
    assert finite != FiniteSpace("two", ("a", "c"))
    assert FiniteSpace("Z", (0,)) != GroupSpace(groups.Z)


@pytest.mark.parametrize("text", SPECS)
def test_spec_methods_match_reference(text):
    spec = groups.parse_group_spec(text)
    assert spec.label() == oracles.ref_label(spec) == text
    assert spec.identity() == oracles.ref_identity(spec)
    assert spec.generators() == oracles.ref_generators(spec)
    for g in groups.ball(spec, 3).elements:
        assert spec.validate(g) is g
        word = spec.serialize(g)
        assert word == oracles.ref_serialize(spec, g), g
        assert spec.parse_element(word) == oracles.ref_parse_element(spec, word) == g, word


def _failure(fn, *args):
    with pytest.raises(MalformedElementError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


# (spec, element that is not a normal form)
BAD_ELEMENTS = [
    ("Z", True),
    ("Z", "3"),
    ("Z^2", (1,)),
    ("Z^2", (1, 2, 3)),
    ("Z^2", (1, False)),
    ("Z^3", [0, 0, 0]),
    ("F(2)", (1, -1)),
    ("F(2)", (3,)),
    ("F(2)", (0,)),
    ("F(2)", [1]),
    ("DihInf", (1, 2)),
    ("DihInf", (1,)),
    ("DihInf", ("x", 0)),
    ("Zmod(6)", 6),
    ("Zmod(6)", -1),
    ("Zmod(6)", True),
    ("product(Z,DihInf)", (1, (0, 0), 2)),
    ("product(Z,DihInf)", (1, (0, 5))),
    ("product(F(2),Zmod(3))", ((2, -2), 0)),
    ("product(F(2),Zmod(3))", ((), 3)),
]

# (spec, text that names no element)
BAD_TEXTS = [
    ("Z", "two"),
    ("Z^2", "1,2"),
    ("Z^2", "(1,2,3)"),
    ("Z^2", "(1,b)"),
    ("F(2)", "c"),
    ("F(2)", "ab"),
    ("F(2)", "a^-b"),
    ("DihInf", "t^x"),
    ("DihInf", "y^2"),
    ("Zmod(6)", "1.5"),
    ("product(Z,DihInf)", "(1)"),
    ("product(Z,DihInf)", "(1,y)"),
    ("product(F(2),Zmod(3))", "(c,1)"),
    ("product(F(2),Zmod(3))", "(a,z)"),
]


@pytest.mark.parametrize("text,g", BAD_ELEMENTS, ids=[f"{t}-{g!r}" for t, g in BAD_ELEMENTS])
def test_bad_element_fails_like_reference(text, g):
    spec = groups.parse_group_spec(text)
    expected = _failure(oracles.ref_validate, spec, g)
    assert _failure(spec.validate, g) == expected
    assert _failure(spec.serialize, g) == expected
    # a membership test answers, also for a pair with one bad component
    assert spec.is_normal(g) is False


@pytest.mark.parametrize("text,word", BAD_TEXTS, ids=[f"{t}-{w}" for t, w in BAD_TEXTS])
def test_bad_text_fails_like_reference(text, word):
    spec = groups.parse_group_spec(text)
    assert _failure(spec.parse_element, word) == _failure(oracles.ref_parse_element, spec, word)


def test_product_failure_names_the_inner_factor():
    spec = groups.parse_group_spec("product(F(2),Zmod(3))")
    assert _failure(spec.validate, ((), 3))[1] == "3 is not a normal form for Zmod(3)"
    assert _failure(spec.parse_element, "(c,1)")[1] == "unknown letter 'c' for F(2)"


@pytest.mark.parametrize("build", [
    lambda: groups.FreeAbelian(0),
    lambda: groups.Free(0),
    lambda: groups.Free(27),
    lambda: groups.Cyclic(0),
], ids=["FreeAbelian(0)", "Free(0)", "Free(27)", "Cyclic(0)"])
def test_invalid_spec_cannot_be_built(build):
    with pytest.raises(UnsupportedRankError):
        build()


def test_kinds_are_classes():
    spec = groups.parse_group_spec("product(Zmod(3),DihInf)")
    assert isinstance(spec, groups.Product)
    assert isinstance(spec.factors[0], groups.Cyclic) and spec.factors[0].modulus == 3
    assert spec.factors[1] == groups.DihInf() == groups.DIH
    # equal arguments of two kinds still name two groups
    assert groups.FreeAbelian(2) != groups.Free(2)
