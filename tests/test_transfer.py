"""Transfer tables between a map's source and target, and the search for
compatible companion tables."""

import pytest

import oracles
from coarsekit import groups, transfer
from coarsekit.errors import (
    MalformedElementError,
    PreconditionError,
    ResourceLimitError,
    WindowOverflowError,
)
from coarsekit.maps import MapWindow, constant_map, identity_map, inclusion_z_to_dih, power_map
from coarsekit.structures import LeftGroupStructure
from coarsekit.transfer import (
    actions_commute_check,
    act_source,
    act_target,
    beta_window_check,
    build_transfer_data,
    compute_cover_constant,
    compute_transfer_sets,
    enumerate_beta_windows,
)

CL_Z = LeftGroupStructure(groups.Z)


@pytest.fixture(scope="module")
def doubling_data():
    return build_transfer_data(power_map(CL_Z, CL_Z, 2), 8)


@pytest.fixture(scope="module")
def identity_data():
    return build_transfer_data(identity_map(CL_Z), 8)


@pytest.fixture(scope="module")
def padded_identity(identity_data):
    # widen the step sets symmetrically so several tables become legal
    return identity_data.padded(
        c_extra={frozenset({1}): {2}, frozenset({-1}): {-2}}
    )


def oracle_count(td, radius):
    """How many tables the search finds at radius; they must be the oracle's."""
    betas = enumerate_beta_windows(td, radius, pin=0)
    assert sorted(map(sorted, (b.items() for b in betas))) == sorted(
        map(sorted, (b.items() for b in oracles.brute_betas(td, radius, pin=0)))
    )
    return len(betas)


class TestTransferSets:
    def test_forward_set_of_doubling(self):
        res = compute_transfer_sets(power_map(CL_Z, CL_Z, 2), frozenset({-1, 0, 1}), 8)
        assert set(res["c"]) == {-2, 0, 2}
        assert res["c_stable"]

    def test_backward_set_of_doubling(self):
        res = compute_transfer_sets(power_map(CL_Z, CL_Z, 2), frozenset({0}), 8)
        assert set(res["d"]) == {0}
        assert res["d_stable"]

    def test_backward_set_of_odd_gap_is_empty(self):
        # no two points of the doubled line differ by one
        res = compute_transfer_sets(power_map(CL_Z, CL_Z, 2), frozenset({1}), 8)
        assert set(res["d"]) == set()

    def test_forward_sets_are_exhaustive_on_the_window(self):
        alpha = power_map(CL_Z, CL_Z, 2)
        res = compute_transfer_sets(alpha, frozenset({-1, 0, 1}), 8)
        window = groups.ball(groups.Z, 7).elements
        for u in window:
            for v in window:
                if v - u in {-1, 0, 1}:
                    assert 2 * v - 2 * u in res["c"]

    def test_monotone_in_radius(self, doubling_data):
        alpha = power_map(CL_Z, CL_Z, 2)
        prev = frozenset()
        for radius in (4, 6, 8):
            cur = set(compute_transfer_sets(alpha, frozenset({-1, 0, 1}), radius)["c"])
            assert prev <= cur
            prev = cur

    def test_target_key_of_a_map_between_groups(self):
        # a key of Dih_inf elements has a d half and no c half
        alpha = inclusion_z_to_dih(CL_Z, LeftGroupStructure(groups.DIH))
        res = compute_transfer_sets(alpha, frozenset({(1, 0)}), 6)
        assert res["c"] is None and res["c_trace"] == {} and res["c_stable"] is None
        assert res["d"] == (1,)
        assert res["d_stable"]

    def test_source_key_of_a_map_between_groups(self):
        # a key of integers has a c half and no d half
        alpha = inclusion_z_to_dih(CL_Z, LeftGroupStructure(groups.DIH))
        res = compute_transfer_sets(alpha, frozenset({1}), 4)
        assert res["key"] == (1,) and res["c"] == ((1, 0),)
        assert res["d"] is None and res["d_trace"] == {} and res["d_stable"] is None

    def test_source_key_that_is_no_element_of_a_product_target(self):
        # (1, 0) is in Z^2 but not in product(Z,DihInf), whose DihInf half is no pair
        target = LeftGroupStructure(groups.product(groups.Z, groups.DIH))
        alpha = MapWindow("(a,b)->(a,x^b)", LeftGroupStructure(groups.free_abelian(2)), target,
                          lambda g: (g[0], (g[1], 0)))
        res = compute_transfer_sets(alpha, frozenset({(1, 0)}), 6)
        assert res["key"] == ((1, 0),) and res["c"] == ((1, (0, 0)),)
        assert res["d"] is None

    @pytest.mark.parametrize(
        "key",
        [frozenset({(1, 5)}), frozenset({True}), frozenset({(True, 0)})],
        ids=["(1,5)", "True", "(True,0)"],
    )
    def test_key_of_neither_group_is_refused(self, key):
        # (1, 5) is no DihInf normal form, and True is neither an integer of Z nor
        # a component of a DihInf element
        alpha = inclusion_z_to_dih(CL_Z, LeftGroupStructure(groups.DIH))
        with pytest.raises(MalformedElementError):
            compute_transfer_sets(alpha, key, 4)

    def test_improper_map_rejected(self):
        with pytest.raises(PreconditionError):
            build_transfer_data(constant_map(CL_Z, CL_Z, 0), 8)

    @pytest.mark.parametrize("radius, probe", [(4, 4), (6, 6), (8, 6)])
    def test_coarseness_is_probed_at_six_at_most(self, monkeypatch, radius, probe):
        probed = []
        for name in ("check_bornologous", "check_coarsely_proper"):
            check = getattr(transfer, name)
            monkeypatch.setattr(
                transfer, name, lambda m, r, check=check, name=name: probed.append((name, r)) or check(m, r)
            )
        build_transfer_data(identity_map(CL_Z), radius)
        assert probed == [("check_bornologous", probe), ("check_coarsely_proper", probe)]


class TestTransferTables:
    """build_transfer_data reads every key as a union of singleton tables."""

    def test_extended_tables_on_z2_match_all_pairs(self):
        Z2 = groups.free_abelian(2)
        alpha = identity_map(LeftGroupStructure(Z2))
        td = build_transfer_data(alpha, 4, extended=True)
        src_radius = alpha.source_radius(4)
        assert len(td.c_table) == len(td.d_table) == 377
        # every third key keeps the all-pairs references near 1.5 s
        for table, ref in ((td.c_table, oracles.ref_c_set), (td.d_table, oracles.ref_d_set)):
            for key in list(table)[::3]:
                F = groups.canonical_sorted(Z2, key)
                assert table[key] == ref(alpha, F, src_radius)[0], F

    def test_each_singleton_table_is_built_once(self):
        s = LeftGroupStructure(groups.free_abelian(2))
        calls = 0

        def rule(x):
            nonlocal calls
            calls += 1
            return x

        build_transfer_data(MapWindow("counted", s, s, rule, source_factor=1), 4, extended=True)
        # a pass over the source ball per key would apply the rule 154,507 times
        assert calls < 10000


class TestCoverConstant:
    def test_doubling_needs_one_step(self, doubling_data):
        assert doubling_data.cover == (0, 1)
        assert doubling_data.cover_mesh() == 1

    def test_identity_needs_nothing(self, identity_data):
        assert identity_data.cover == (0,)
        assert identity_data.cover_mesh() == 0

    def test_direct_computation(self):
        cover = compute_cover_constant(power_map(CL_Z, CL_Z, 2), 8)
        assert cover == (0, 1)


class TestBetaWindowCheck:
    def test_source_map_satisfies_its_own_tables(self, doubling_data):
        cert = beta_window_check(doubling_data, {n: 2 * n for n in range(-4, 5)}, 4)
        assert cert.verdict == "PASS"
        assert cert.data["conditions"] == {
            "pin": "PASS", "c": "PASS", "d": "PASS", "cover": "PASS",
        }

    def test_shifted_copy_passes_with_matching_pin(self, doubling_data):
        table = {n: 5 + 2 * n for n in range(-4, 5)}
        cert = beta_window_check(doubling_data, table, 4, pin=5)
        assert cert.verdict == "PASS"

    def test_constant_table_fails_both_sides(self, doubling_data):
        cert = beta_window_check(doubling_data, {n: 0 for n in range(-4, 5)}, 4)
        assert cert.verdict == "FAIL"
        conditions = cert.data["conditions"]
        assert conditions["c"] == "FAIL"
        assert conditions["d"] == "FAIL"

    def test_quadrupling_table_fails_cover(self, doubling_data):
        cert = beta_window_check(doubling_data, {n: 4 * n for n in range(-4, 5)}, 4)
        assert cert.data["conditions"]["cover"] == "FAIL"

    def test_verdicts_survive_postcomposition(self, identity_data):
        # h.beta covers the ball about h*beta(1) exactly as beta covers the one about beta(1)
        own = {n: n for n in range(-2, 3)}
        expect = beta_window_check(identity_data, own, 2).data["conditions"]
        assert set(expect.values()) == {"PASS"}
        for h in groups.ball(groups.Z, 2).elements:
            moved = act_target(identity_data, h, own)
            cert = beta_window_check(identity_data, moved, 2, pin=moved[0])
            assert cert.data["conditions"] == expect, h


class TestEnumeration:
    def test_doubling_is_rigid(self, doubling_data):
        betas = enumerate_beta_windows(doubling_data, 2, pin=0)
        assert len(betas) == 1
        assert betas[0] == {0: 0, 1: 2, -1: -2, 2: 4, -2: -4}

    def test_identity_is_rigid(self, identity_data):
        betas = enumerate_beta_windows(identity_data, 2, pin=0)
        assert len(betas) == 1
        assert betas[0] == {n: n for n in range(-2, 3)}

    @pytest.mark.parametrize("radius,count", [(1, 4), (2, 16), (3, 64)])
    def test_padded_counts(self, padded_identity, radius, count):
        betas = enumerate_beta_windows(padded_identity, radius, pin=0)
        assert len(betas) == count

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_exhaustive_search_agrees(self, padded_identity, radius):
        betas = enumerate_beta_windows(padded_identity, radius, pin=0)
        reference = oracles.brute_betas(padded_identity, radius, pin=0)
        assert sorted(map(sorted, (b.items() for b in betas))) == sorted(
            map(sorted, (b.items() for b in reference))
        )

    def test_doubling_search_agrees_with_oracle(self, doubling_data):
        for radius in (1, 2):
            betas = enumerate_beta_windows(doubling_data, radius, pin=0)
            reference = oracles.brute_betas(doubling_data, radius, pin=0)
            assert sorted(map(sorted, (b.items() for b in betas))) == sorted(
                map(sorted, (b.items() for b in reference))
            )

    def test_every_result_reverifies(self, padded_identity):
        for beta in enumerate_beta_windows(padded_identity, 2, pin=0):
            cert = beta_window_check(
                padded_identity, beta, 2, conditions=("pin", "c", "d")
            )
            assert cert.verdict == "PASS"

    def test_pin_controls_the_base_value(self, doubling_data):
        betas = enumerate_beta_windows(doubling_data, 2, pin=4)
        assert len(betas) == 1
        assert betas[0][0] == 4
        assert betas[0][2] == 8

    def test_value_monotone_in_radius(self, padded_identity):
        small = enumerate_beta_windows(padded_identity, 1, pin=0)
        big = enumerate_beta_windows(padded_identity, 2, pin=0)
        restricted = {tuple(sorted((k, v) for k, v in b.items() if abs(k) <= 1)) for b in big}
        assert restricted == {tuple(sorted(b.items())) for b in small}

    def test_radius_beyond_data_rejected(self, doubling_data):
        with pytest.raises(PreconditionError):
            enumerate_beta_windows(doubling_data, 12, pin=0)

    def test_explosive_padding_hits_the_cap(self, identity_data):
        wide = identity_data.padded(
            c_extra={
                frozenset({1}): set(range(-40, 41)),
                frozenset({-1}): set(range(-40, 41)),
            }
        )
        with pytest.raises(ResourceLimitError):
            enumerate_beta_windows(wide, 3, pin=0)

    def test_search_prunes_on_the_d_conditions(self, identity_data, monkeypatch):
        padded = identity_data.padded(
            c_extra={frozenset({1}): {0, 2}, frozenset({-1}): {0, -2}}
        )
        steps = [padded.c_table[frozenset({s})] for s in (1, -1)]
        assert len(steps[0]) * len(steps[1]) == 9  # candidate tables at radius 1
        assert [oracle_count(padded, r) for r in (1, 2, 3)] == [4, 16, 64]
        # the unpruned radius-3 tree has 3 + 9 + ... + 729 = 1092 nodes, so
        # the search stays under a cap of 3^6 only because it prunes
        monkeypatch.setattr(transfer, "DEFAULT_ENUM_CAP", 3**6)
        assert len(enumerate_beta_windows(padded, 3, pin=0)) == 64

    def test_search_prunes_on_the_c_conditions(self, identity_data):
        # a step of 2 over the key {2} leaves only the identity table
        padded = identity_data.padded(
            c_extra={frozenset({1}): {0, 2}, frozenset({-1}): {0, -2}, frozenset({2}): {2}}
        )
        assert [oracle_count(padded, r) for r in (1, 2, 3)] == [1, 1, 1]

    def test_wide_padding_agrees_until_the_cap(self, identity_data):
        wide = identity_data.padded(
            c_extra={frozenset({1}): set(range(-3, 4)), frozenset({-1}): set(range(-3, 4))}
        )
        assert [oracle_count(wide, r) for r in (1, 2, 3)] == [15, 110, 870]
        # the pruned search reaches what its node cap admits, and no further
        assert len(enumerate_beta_windows(wide, 4, pin=0)) == 7247
        with pytest.raises(ResourceLimitError, match=r"^beta enumeration exceeded 100000 nodes$"):
            enumerate_beta_windows(wide, 5, pin=0)


class TestTableActions:
    def test_act_source_shifts_and_shrinks(self, doubling_data):
        beta = enumerate_beta_windows(doubling_data, 2, pin=0)[0]
        moved, new_radius = act_source(doubling_data, 1, beta, 2)
        assert new_radius == 1
        assert moved == {0: 2, 1: 4, -1: 0}

    def test_act_target_keeps_the_domain(self, doubling_data):
        beta = enumerate_beta_windows(doubling_data, 2, pin=0)[0]
        moved = act_target(doubling_data, 2, beta)
        assert moved == {n: 2 * n + 2 for n in range(-2, 3)}

    def test_act_source_underflow(self, doubling_data):
        beta = {0: 0, 1: 2, -1: -2}
        with pytest.raises(WindowOverflowError):
            act_source(doubling_data, 2, beta, 1)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_actions_commute_on_every_enumerated_table(
        self, doubling_data, padded_identity, radius
    ):
        for data in (doubling_data, padded_identity):
            for beta in enumerate_beta_windows(data, radius, pin=0):
                cert = actions_commute_check(data, beta, radius)
                assert cert.verdict == "PASS"

    def test_source_properness_invariant(self, padded_identity):
        # whoever agrees with the table at the identity sits inside d({0})
        d0 = padded_identity.d_table[frozenset({0})]
        for beta in enumerate_beta_windows(padded_identity, 2, pin=0):
            for g, value in beta.items():
                if value == beta[0]:
                    assert g in d0


class TestSerialization:
    def test_json_shape(self, doubling_data):
        body = doubling_data.to_json()
        assert body["map"] == "power:2"
        assert body["cover"] == ["0", "1"]
        assert body["c"]["{1}"] == ["2"]
        assert body["d"]["{0}"] == ["0"]
        assert body["d"]["{1}"] == []

    def test_padding_never_disturbs_the_original(self, identity_data, padded_identity):
        for key, out in identity_data.c_table.items():
            assert out <= padded_identity.c_table[key]
        for key, out in identity_data.d_table.items():
            assert out <= padded_identity.d_table[key]
