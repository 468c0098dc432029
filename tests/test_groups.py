import random

import pytest

import oracles
from coarsekit import groups
from coarsekit.errors import (
    GroupParseError,
    MalformedElementError,
    ResourceLimitError,
    UnsupportedRankError,
)

Z = groups.Z
Z2 = groups.free_abelian(2)
DIH = groups.DIH
F2 = groups.free_group(2)
Z6 = groups.cyclic(6)

X = (1, 0)
T = (0, 1)
ONE = (0, 0)


@pytest.mark.parametrize("spec,g", [(DIH, (True, 0)), (DIH, (1, True)), (F2, (True,))], ids=repr)
def test_bool_components_are_not_normal(spec, g):
    # bool is a subclass of int, and True would be read as 1
    assert spec.is_normal(g) is False


class TestDihedralNormalForm:
    def test_relations(self):
        # t^2 = 1 and t x t = x^-1
        assert groups.multiply(DIH, T, T) == ONE
        txt = groups.multiply(DIH, groups.multiply(DIH, T, X), T)
        assert txt == groups.invert(DIH, X)

    def test_sample_products(self):
        xt = groups.multiply(DIH, X, T)
        x2 = groups.multiply(DIH, X, X)
        assert groups.multiply(DIH, xt, x2) == (-1, 1)
        assert groups.multiply(DIH, xt, xt) == ONE

    def test_inverses(self):
        assert groups.invert(DIH, (3, 0)) == (-3, 0)
        # reflections are involutions
        for n in range(-4, 5):
            g = (n, 1)
            assert groups.invert(DIH, g) == g
            assert groups.multiply(DIH, g, g) == ONE

    def test_against_affine_oracle(self):
        rng = random.Random(0)
        for _ in range(2000):
            a = (rng.randint(-50, 50), rng.randint(0, 1))
            b = (rng.randint(-50, 50), rng.randint(0, 1))
            assert groups.multiply(DIH, a, b) == oracles.dih_mul(a, b)
            assert groups.invert(DIH, a) == oracles.dih_inv(a)

    def test_word_length(self):
        assert groups.word_length(DIH, ONE) == 0
        assert groups.word_length(DIH, T) == 1
        assert groups.word_length(DIH, (4, 1)) == 5
        assert groups.word_length(DIH, (-4, 0)) == 4


class TestFreeGroup:
    def test_reduction(self):
        a, ainv, b = (1,), (-1,), (2,)
        assert groups.multiply(F2, a, ainv) == ()
        w = groups.multiply(F2, groups.multiply(F2, a, b), groups.invert(F2, b))
        assert w == a

    def test_against_scan_oracle(self):
        rng = random.Random(1)
        for _ in range(1000):
            u = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 8)))
            v = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 8)))
            a = oracles.free_reduce(u)
            b = oracles.free_reduce(v)
            assert groups.multiply(F2, a, b) == oracles.free_mul(a, b)
            assert groups.invert(F2, a) == oracles.free_inv(a)

    def test_word_length_is_reduced_length(self):
        w = F2.parse_element("a b^-2 a")
        assert groups.word_length(F2, w) == 4


class TestBalls:
    @pytest.mark.parametrize("kind,spec,radius", [
        ("Z", Z, 10),
        ("Z2", Z2, 6),
        ("DIH", DIH, 10),
        ("F2", F2, 6),
        ("Z6", Z6, 8),
    ])
    def test_matches_naive_bfs(self, kind, spec, radius):
        reference = oracles.naive_ball(kind, radius)
        b = groups.ball(spec, radius)
        assert set(b.elements) == set(reference)
        assert all(spec.length(g) == d and g in b.sphere(d) for g, d in reference.items())

    def test_formulas(self):
        assert [len(groups.ball(Z, r)) for r in range(11)] == [2 * r + 1 for r in range(11)]
        assert [len(groups.ball(DIH, r)) for r in range(1, 11)] == [4 * r for r in range(1, 11)]
        assert [len(groups.ball(F2, r)) for r in range(1, 7)] == [2 * 3 ** r - 1 for r in range(1, 7)]
        assert [len(groups.ball(Z2, r)) for r in range(7)] == [2 * r * r + 2 * r + 1 for r in range(7)]

    def test_cyclic_saturates(self):
        sizes = [len(groups.ball(Z6, r)) for r in range(9)]
        assert sizes == [1, 3, 5, 6, 6, 6, 6, 6, 6]

    def test_layer_order_is_stable_prefix(self):
        small = groups.ball(DIH, 4).elements
        big = groups.ball(DIH, 7).elements
        assert big[: len(small)] == small
        assert small[0] == ONE
        lengths = [groups.word_length(DIH, g) for g in big]
        assert lengths == sorted(lengths)

    def test_sphere(self):
        b = groups.ball(Z, 5)
        assert set(b.sphere(3)) == {3, -3}
        assert b.sphere(0) == (0,)

    def test_triangle_inequality(self):
        for spec in (Z, DIH):
            window = groups.ball(spec, 4).elements
            for a in window:
                for b in window:
                    ab = groups.multiply(spec, a, b)
                    assert groups.word_length(spec, ab) <= (
                        groups.word_length(spec, a) + groups.word_length(spec, b)
                    )

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            groups.ball(F2, 10, cap=1000)

    def test_cap_does_not_depend_on_call_history(self):
        groups._BALL_CACHES.pop(F2, None)
        with pytest.raises(ResourceLimitError) as cold:
            groups.ball(F2, 6, cap=100)
        groups.ball(F2, 6)
        with pytest.raises(ResourceLimitError) as warm:
            groups.ball(F2, 6, cap=100)
        assert str(warm.value) == str(cold.value) == "ball of radius 4 in F(2) exceeds cap 100"


class TestConjugacy:
    def test_reflection_windows_grow(self):
        for r in range(1, 5):
            window = groups.conjugacy_window(DIH, T, r)
            assert len(window) == 2 * r + 1
            assert set(window) == oracles.naive_conjugacy_window("DIH", T, r)

    def test_rotation_window_stabilizes(self):
        window = groups.conjugacy_window(DIH, X, 3)
        assert set(window) == {X, (-1, 0)}
        assert set(window) == oracles.naive_conjugacy_window("DIH", X, 3)

    def test_abelian_windows_are_singletons(self):
        assert groups.conjugacy_window(Z, 7, 5) == (7,)
        assert groups.conjugacy_window(Z6, 2, 4) == (2,)

    def test_window_past_the_ball_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 1000)
        with pytest.raises(ResourceLimitError, match=r"^conjugacy window in F\(2\) exceeds cap 1000$"):
            groups.conjugacy_window(F2, (1,), 10)

    def test_window_at_the_ball_cap_is_kept(self, monkeypatch):
        # the reflection window holds 2r + 1 elements: 5 fit a cap of 5, 7 do not
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 5)
        assert len(groups.conjugacy_window(DIH, T, 2)) == 5
        with pytest.raises(ResourceLimitError):
            groups.conjugacy_window(DIH, T, 3)

    def test_conjugation_by_mul_and_inv(self):
        # h^-1 a h: t inverts x, and x^-1 t x = x^-2 t
        assert DIH.mul(DIH.mul(DIH.inv(T), X), T) == (-1, 0)
        assert DIH.mul(DIH.mul(DIH.inv(X), T), X) == (-2, 1)


class TestSerialization:
    @pytest.mark.parametrize("spec,texts", [
        (Z, ["0", "5", "-12"]),
        (Z2, ["(0,0)", "(3,-4)"]),
        (DIH, ["1", "t", "x", "x^-3 t", "x^7"]),
        (F2, ["1", "a", "a^2 b^-1", "b a^-3 b"]),
        (Z6, ["0", "5"]),
        (groups.product(Z, Z6), ["(0,0)", "(-3,4)"]),
    ])
    def test_round_trip(self, spec, texts):
        for text in texts:
            g = spec.parse_element(text)
            assert spec.parse_element(spec.serialize(g)) == g

    def test_dih_words_multiply_out(self):
        g = DIH.parse_element("x t x t")
        assert g == ONE
        assert DIH.parse_element("t x") == (-1, 1)

    def test_malformed(self):
        with pytest.raises(MalformedElementError):
            Z.parse_element("two")
        with pytest.raises(MalformedElementError):
            DIH.parse_element("y^2")
        with pytest.raises(MalformedElementError):
            DIH.validate((1, 2))

    @pytest.mark.parametrize("spec,text", [
        (F2, "a^"), (F2, "a b^"), (DIH, "x^"), (DIH, "t^"),
        (groups.parse_group_spec("product(F(2),Zmod(3))"), "(a^,1)"),
    ])
    def test_empty_exponent_is_malformed(self, spec, text):
        # "a^" once read as "a"; the reference parser in oracles still does
        with pytest.raises(MalformedElementError, match="bad exponent"):
            spec.parse_element(text)

    def test_group_spec_grammar(self):
        assert groups.parse_group_spec("Z") == Z
        assert groups.parse_group_spec("Z^2") == Z2
        assert groups.parse_group_spec("DihInf") == DIH
        assert groups.parse_group_spec("F(2)") == F2
        assert groups.parse_group_spec("Zmod(6)") == Z6
        assert groups.parse_group_spec("product(Z,Zmod(2))") == groups.product(Z, groups.cyclic(2))
        with pytest.raises(GroupParseError):
            groups.parse_group_spec("Sym(3)")
        with pytest.raises(UnsupportedRankError):
            groups.free_group(0)


# every catalog kind, finite ones past the point where they are exhausted
BFS_CASES = [
    ("Z", 8), ("Z^2", 6), ("Z^3", 4), ("DihInf", 8), ("F(2)", 5), ("F(3)", 4),
    ("Zmod(1)", 3), ("Zmod(2)", 3), ("Zmod(3)", 3), ("Zmod(6)", 5), ("Zmod(7)", 5),
    ("product(Z,DihInf)", 5), ("product(DihInf,Z)", 5), ("product(Zmod(4),F(2))", 4),
]


class TestGeodesics:
    def test_words_spell_their_element(self):
        for spec in (Z, DIH, F2, Z6):
            gens = spec.generators()
            for g in groups.ball(spec, 4).elements:
                word = groups.geodesic_word(spec, g)
                assert len(word) == groups.word_length(spec, g)
                acc = spec.identity()
                for i in word:
                    acc = groups.multiply(spec, acc, gens[i])
                assert acc == g

    @pytest.mark.parametrize("text,radius", BFS_CASES, ids=[t for t, _ in BFS_CASES])
    def test_spheres_and_words_match_bfs(self, text, radius):
        spec = groups.parse_group_spec(text)
        layers, words = oracles.ref_ball(spec, radius)
        assert [groups.sphere(spec, r) for r in range(radius + 1)] == layers
        assert {g: groups.geodesic_word(spec, g) for g in words} == words

    @pytest.mark.parametrize("spec,g", [(Z, 2.5), (F2, (5,)), (DIH, (1, 2))], ids=repr)
    def test_word_of_a_non_element_is_refused(self, spec, g):
        with pytest.raises(MalformedElementError):
            groups.geodesic_word(spec, g)


class TestProductGroups:
    def test_componentwise(self):
        spec = groups.product(Z, Z6)
        a, b = (2, 5), (-1, 3)
        assert groups.multiply(spec, a, b) == (1, 2)
        assert groups.invert(spec, a) == (-2, 1)
        assert groups.word_length(spec, (2, 5)) == 3  # 2 + min(5, 1)

    def test_ball_of_product_with_finite_factor(self):
        spec = groups.product(Z, groups.cyclic(2))
        sizes = [len(groups.ball(spec, r)) for r in range(5)]
        # doubled line: 2(2r+1) elements once the finite factor saturates
        assert sizes == [1, 4, 8, 12, 16]
