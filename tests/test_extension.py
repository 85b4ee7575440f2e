from __future__ import annotations

import dataclasses

import pytest

from groupcode import (
    ExtensionKind,
    NotApplicable,
    WrongGroup,
    abelian_groups_of_order,
    all_subgroups,
    classify_prime_by_cyclic,
    decompose,
    direct_sum_decomposition,
    extension_product,
    invariant_factors,
    is_isomorphic,
    make_group,
    prime_order_subgroups,
    quotient,
    subgroup_generated,
    trivial_subgroup,
    verify_decomposition,
)


@pytest.fixture(scope="module")
def klein_cube_split():
    g = make_group([2, 2, 2])
    n = subgroup_generated(g, [(1, 0, 0)])
    return decompose(g, n)


@pytest.fixture(scope="module")
def z4_halved():
    g = make_group([4])
    return decompose(g, subgroup_generated(g, [(2,)]))


class TestDecompose:
    def test_klein_cube_components(self, klein_cube_split):
        assert klein_cube_split.u_part.factors == (2,)
        assert klein_cube_split.s_part.factors == (2, 2)

    def test_klein_cube_action_trivial_and_factor_set_zero(self, klein_cube_split):
        dec = klein_cube_split
        zero = dec.u_part.identity()
        assert all(value == zero for value in dec.factor_set.values())

    def test_z4_has_nontrivial_factor_set(self, z4_halved):
        dec = z4_halved
        assert dec.u_part.factors == (2,)
        assert dec.s_part.factors == (2,)
        # the drift of the lifting on 1 + 1 is the residue 2, mapped into U
        assert dec.factor_set[((1,), (1,))] == dec.n_to_u[(2,)]
        assert dec.factor_set[((1,), (1,))] != dec.u_part.identity()

    def test_trivial_normal_subgroup(self):
        g = make_group([2, 4])
        dec = decompose(g, trivial_subgroup(g))
        assert dec.u_part.order == 1
        assert is_isomorphic(dec.s_part, g)
        zero = dec.u_part.identity()
        assert all(value == zero for value in dec.factor_set.values())

    def test_lifting_sends_identity_to_identity(self, klein_cube_split, z4_halved):
        for dec in (klein_cube_split, z4_halved):
            assert dec.lifting[dec.s_part.identity()] == dec.ambient.identity()

    def test_lifting_picks_minimal_representatives(self, z4_halved):
        # cosets of {0, 2} in Z4 are {0, 2} and {1, 3}
        assert sorted(z4_halved.lifting.values()) == [(0,), (1,)]

    def test_pair_map_is_a_bijection(self, klein_cube_split, z4_halved):
        for dec in (klein_cube_split, z4_halved):
            images = {dec.pair_to_element(u, s) for u, s in dec.pairs()}
            assert len(images) == dec.ambient.order
            for u, s in dec.pairs():
                assert dec.element_to_pair(dec.pair_to_element(u, s)) == (u, s)

    def test_factor_set_normalized(self, z4_halved):
        dec = z4_halved
        e_s, zero = dec.s_part.identity(), dec.u_part.identity()
        for s in dec.s_part.elements():
            assert dec.factor_set[(e_s, s)] == zero
            assert dec.factor_set[(s, e_s)] == zero


class TestPairApi:
    def test_foreign_element_raises_wrong_group(self, z4_halved):
        with pytest.raises(WrongGroup):
            z4_halved.element_to_pair((5,))

    def test_foreign_input_raises_wrong_group(self, z4_halved):
        with pytest.raises(WrongGroup):
            z4_halved.pair_to_element((3,), (0,))

    def test_foreign_state_in_product_raises_wrong_group(self, z4_halved):
        with pytest.raises(WrongGroup):
            extension_product(z4_halved, ((0,), (0,)), ((0,), (9,)))

    def test_pair_of_is_indexed_by_ambient_order(self, z4_halved):
        # cosets {0, 2} and {1, 3}; 2 and 3 sit one embedded 2 above their lifts
        assert z4_halved.pair_of == (((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,)))


class TestExtensionProduct:
    def test_identity_pair_is_neutral(self, klein_cube_split):
        dec = klein_cube_split
        e = (dec.u_part.identity(), dec.s_part.identity())
        for pair in dec.pairs():
            assert extension_product(dec, pair, e) == pair
            assert extension_product(dec, e, pair) == pair

    def test_z4_square_of_coset_generator(self, z4_halved):
        dec = z4_halved
        zero_u = dec.u_part.identity()
        result = extension_product(dec, (zero_u, (1,)), (zero_u, (1,)))
        assert result == ((1,), (0,))

    def test_second_coordinate_is_state_sum(self):
        g = make_group([2, 4])
        dec = decompose(g, subgroup_generated(g, [(0, 2)]))
        for p1 in dec.pairs():
            for p2 in dec.pairs():
                _, s = extension_product(dec, p1, p2)
                assert s == dec.s_part.add(p1[1], p2[1])

    def test_powers_track_state_multiples(self, z4_halved):
        dec = z4_halved
        pair = (dec.u_part.identity(), (1,))
        acc = (dec.u_part.identity(), dec.s_part.identity())
        for n in range(1, 5):
            acc = extension_product(dec, acc, pair)
            assert acc[1] == dec.s_part.scalar_mul(n, (1,))


class TestVerifyDecomposition:
    def test_worked_examples(self, klein_cube_split, z4_halved):
        assert verify_decomposition(klein_cube_split)
        assert verify_decomposition(z4_halved)

    def test_zeroed_factor_set_breaks_z4(self, z4_halved):
        zero = z4_halved.u_part.identity()
        tampered = dataclasses.replace(z4_halved)
        object.__setattr__(
            tampered, "factor_set", {key: zero for key in z4_halved.factor_set}
        )
        assert not verify_decomposition(tampered)

    def test_exhaustive_small_orders(self):
        # every (group, subgroup) pair up to order 32 decomposes correctly, and
        # the maps read from the pair map are the quotient's projection, N and
        # the coset minima; the split decomposition of each (U, S) pair is the
        # coordinate split
        split_checked = set()
        for order in range(1, 33):
            for g in abelian_groups_of_order(order):
                for n in all_subgroups(g):
                    dec = decompose(g, n)
                    assert verify_decomposition(dec)
                    assert dec.to_quotient == quotient(g, n)[1]
                    assert dec.normal == n
                    for lift in dec.lifting.values():
                        assert lift == min(g.add(lift, x) for x in n.elements)
                    assert list(dec.lifting.values()) == sorted(dec.lifting.values())
                    if (dec.u_part, dec.s_part) not in split_checked:
                        split_checked.add((dec.u_part, dec.s_part))
                        split = direct_sum_decomposition(dec.u_part, dec.s_part)
                        assert verify_decomposition(split)
                        k = dec.u_part.rank
                        for a, pair in zip(split.ambient.elements(), split.pair_of):
                            assert pair == (a[:k], a[k:])
                    zero = dec.u_part.identity()
                    e_s = dec.s_part.identity()
                    for s1 in dec.s_part.elements():
                        assert dec.factor_set[(e_s, s1)] == zero
                        for s2 in dec.s_part.elements():
                            assert dec.factor_set[(s1, s2)] == dec.factor_set[(s2, s1)]


class TestClassify:
    def test_klein_is_direct_product(self):
        g = make_group([2, 2])
        dec = decompose(g, subgroup_generated(g, [(1, 0)]))
        assert classify_prime_by_cyclic(dec) is ExtensionKind.DIRECT_PRODUCT

    def test_z4_is_cyclic(self, z4_halved):
        assert classify_prime_by_cyclic(z4_halved) is ExtensionKind.CYCLIC

    def test_non_cyclic_quotient_rejected(self):
        g = make_group([2, 4])
        dec = decompose(g, subgroup_generated(g, [(0, 2)]))
        assert dec.s_part.factors == (2, 2)
        with pytest.raises(NotApplicable):
            classify_prime_by_cyclic(dec)

    def test_composite_subgroup_rejected(self):
        g = make_group([8])
        dec = decompose(g, subgroup_generated(g, [(2,)]))
        with pytest.raises(NotApplicable):
            classify_prime_by_cyclic(dec)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_agrees_with_isomorphism_type(self, p):
        for m in range(1, 10):
            cyclic_m = make_group([m]) if m > 1 else make_group([])
            for g in abelian_groups_of_order(p * m):
                for n in prime_order_subgroups(g, p):
                    q_group, _ = quotient(g, n)
                    if invariant_factors(q_group) != invariant_factors(cyclic_m):
                        continue
                    kind = classify_prime_by_cyclic(decompose(g, n))
                    if kind is ExtensionKind.DIRECT_PRODUCT:
                        assert is_isomorphic(g, make_group([p] + ([m] if m > 1 else [])))
                    else:
                        assert is_isomorphic(g, make_group([p * m]))


class TestFactorSetMatrix:
    def test_json_matrix_shape_and_values(self, z4_halved):
        import json

        from groupcode.extension import factor_set_matrix

        matrix = factor_set_matrix(z4_halved)
        assert matrix == [[[0], [0]], [[0], [1]]]
        json.dumps(matrix)  # JSON-ready

    def test_zero_matrix_for_split_extensions(self, klein_cube_split):
        from groupcode.extension import factor_set_matrix

        matrix = factor_set_matrix(klein_cube_split)
        assert all(entry == [0] for row in matrix for entry in row)


class TestDirectSumDecomposition:
    def test_matches_generic_decomposition_semantics(self):
        u, s = make_group([2]), make_group([2, 2])
        dec = direct_sum_decomposition(u, s)
        assert verify_decomposition(dec)
        assert dec.ambient.factors == (2, 2, 2)
        assert dec.pair_to_element((1,), (0, 1)) == (1, 0, 1)
        assert dec.element_to_pair((1, 1, 0)) == ((1,), (1, 0))

    def test_keeps_caller_coordinates(self):
        u, s = make_group([3]), make_group([9])
        dec = direct_sum_decomposition(u, s)
        for elt in s.elements():
            assert dec.to_quotient[dec.pair_to_element(u.identity(), elt)] == elt
