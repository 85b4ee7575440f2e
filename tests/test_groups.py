from __future__ import annotations

import itertools
import math

import pytest

from groupcode import (
    FiniteAbelianGroup,
    GroupHom,
    InvalidFactor,
    InvalidHom,
    NotAbelian,
    NotASubgroup,
    Subgroup,
    WrongGroup,
    abelian_groups_of_order,
    all_subgroups,
    automorphisms,
    direct_sum,
    enumerate_homs,
    hom_image,
    hom_kernel,
    hom_table,
    invariant_factors,
    is_isomorphic,
    is_surjective,
    make_group,
    prime_order_subgroups,
    quotient,
    recognize,
    recognize_with_iso,
    subgroup_generated,
    subgroup_index,
    trivial_subgroup,
)
from groupcode.groups import element_height, elements_of_order


def brute_order(g, a):
    acc = a
    n = 1
    while acc != g.identity():
        acc = g.add(acc, a)
        n += 1
    return n


def small_groups(max_order):
    return [g for n in range(1, max_order + 1) for g in abelian_groups_of_order(n)]


# the first five pairs were picked by hand; the rest completes every pair with
# |src| <= 16 and |dst| <= 8, the trivial groups included
PICKED_HOM_PAIRS = [([6], [2, 4]), ([2, 4], [2, 4]), ([9], [3, 3]), ([2, 2, 2], [2, 2]), ([4], [2, 2])]
SMALL_HOM_PAIRS = PICKED_HOM_PAIRS + [
    pair
    for pair in (
        (list(src.factors), list(dst.factors)) for src in small_groups(16) for dst in small_groups(8)
    )
    if pair not in PICKED_HOM_PAIRS
]


def order_census(g):
    return sorted(brute_order(g, a) for a in g.elements())


def layered_height(g, a, p):
    """Reference height: p-multiples of the whole group, layer by layer."""
    layer = set(g.elements())
    t = 0
    while True:
        layer = {g.scalar_mul(p, x) for x in layer}
        if a not in layer:
            return t
        t += 1


class TestMakeGroup:
    def test_trivial(self):
        g = make_group([])
        assert g.order == 1
        assert g.factors == ()
        assert list(g.elements()) == [()]

    def test_klein_already_canonical(self):
        assert make_group([2, 2]).factors == (2, 2)

    def test_mixed_eight_distinct_from_other_types(self):
        g = make_group([2, 4])
        assert g.factors == (2, 4)
        assert not is_isomorphic(g, make_group([8]))
        assert not is_isomorphic(g, make_group([2, 2, 2]))
        # the three order-8 types really have different element orders
        censuses = {
            tuple(order_census(make_group(f))) for f in ([8], [2, 4], [2, 2, 2])
        }
        assert len(censuses) == 3

    def test_normalization_reorders_and_merges(self):
        assert make_group([4, 2]).factors == (2, 4)
        assert make_group([2, 3]).factors == (6,)
        assert make_group([6, 4]).factors == (2, 12)
        assert make_group([2, 3]) == make_group([6])

    @pytest.mark.parametrize("bad", [[1], [0], [-3], [2, 1]])
    def test_invalid_factor(self, bad):
        with pytest.raises(InvalidFactor):
            make_group(bad)


class TestArithmetic:
    def test_order_two_in_z4(self):
        z4 = make_group([4])
        assert z4.element_order((2,)) == 2

    def test_componentwise_addition(self):
        g = make_group([2, 2, 2])
        assert g.add((1, 0, 0), (1, 1, 1)) == (0, 1, 1)

    def test_order_against_brute_force(self):
        for factors in ([2, 4], [3, 9], [2, 2, 3], [12]):
            g = make_group(factors)
            for a in g.elements():
                assert g.element_order(a) == brute_order(g, a)

    def test_order_of_mixed_element(self):
        g = make_group([2, 4])
        assert g.element_order((1, 2)) == 2

    def test_neg_and_identity(self):
        g = make_group([3, 9])
        for a in g.elements():
            assert g.add(a, g.neg(a)) == g.identity()

    def test_wrong_group_on_length_mismatch(self):
        g = make_group([2, 2])
        with pytest.raises(WrongGroup):
            g.add((1,), (0, 1))
        with pytest.raises(WrongGroup):
            g.check((0, 5))

    def test_element_indexing_roundtrip(self):
        g = make_group([2, 3, 4])
        for i, a in enumerate(g.elements()):
            assert g.index_of(a) == i
            assert g.element_at(i) == a


class TestSubgroups:
    def test_empty_generators_give_identity(self):
        g = make_group([2, 4])
        assert subgroup_generated(g, []).elements == (g.identity(),)

    def test_single_generator_in_klein_cube(self):
        g = make_group([2, 2, 2])
        sub = subgroup_generated(g, [(1, 0, 0)])
        assert sub.elements == ((0, 0, 0), (1, 0, 0))

    def test_even_residues_of_z8(self):
        g = make_group([8])
        sub = subgroup_generated(g, [(2,)])
        assert sub.elements == ((0,), (2,), (4,), (6,))

    def test_generated_subgroup_is_closed(self):
        g = FiniteAbelianGroup((4, 6))
        for gens in [[(1, 0)], [(2, 3)], [(1, 2), (0, 3)]]:
            assert subgroup_generated(g, gens).is_closed()

    def test_not_a_subgroup_detected(self):
        g = make_group([4])
        ragged = Subgroup(g, ((0,), (1,)))
        assert not ragged.is_closed()
        with pytest.raises(NotASubgroup):
            ragged.validate()

    def test_closure_matches_pairwise_brute_force(self):
        # every nonempty subset of every abelian group of order <= 9
        checked = 0
        for order in range(1, 10):
            for g in abelian_groups_of_order(order):
                elements = list(g.elements())
                for size in range(1, len(elements) + 1):
                    for subset in itertools.combinations(elements, size):
                        members = set(subset)
                        brute = (
                            g.identity() in members
                            and all(g.neg(a) in members for a in subset)
                            and all(g.add(a, b) in members for a in subset for b in subset)
                        )
                        assert Subgroup(g, subset).is_closed() == brute, (g, subset)
                        checked += 1
        assert checked == 1 + 3 + 7 + 2 * 15 + 31 + 63 + 127 + 3 * 255 + 2 * 511

    def test_lagrange_over_all_subgroups(self):
        for factors in ([8], [2, 4], [2, 2, 2], [3, 3], [12]):
            g = make_group(factors)
            subs = all_subgroups(g)
            for sub in subs:
                assert g.order % sub.order == 0
                assert subgroup_index(g, sub) * sub.order == g.order

    def test_subgroup_counts_of_klein_cube(self):
        # 1 trivial + 7 of order 2 + 7 of order 4 + the whole group
        assert len(all_subgroups(make_group([2, 2, 2]))) == 16

    def test_prime_order_subgroups(self):
        g = make_group([2, 4])
        subs = prime_order_subgroups(g, 2)
        assert len(subs) == 3
        assert all(sub.order == 2 for sub in subs)

    def test_element_heights(self):
        g = make_group([2, 4])
        assert element_height(g, (1, 0), 2) == 0
        assert element_height(g, (0, 2), 2) == 1
        assert element_height(g, (1, 2), 2) == 0

    @pytest.mark.parametrize(
        "factors, a, p", [([3], (1,), 2), ([2, 4], (0, 0), 2), ([6], (2,), 2), ([9], (0,), 3)]
    )
    def test_unbounded_height_raises(self, factors, a, p):
        # the order of ``a`` is prime to p, so ``a`` lies in p^t G for every t
        with pytest.raises(WrongGroup):
            element_height(make_group(factors), a, p)

    def test_element_height_matches_whole_group_layering(self):
        # every abelian group of order <= 32, every prime p dividing its order
        # and every element whose height is bounded
        checked = 0
        for order in range(2, 33):
            for g in abelian_groups_of_order(order):
                for p in _prime_factors(order):
                    for a in g.elements():
                        if g.element_order(a) % p != 0:
                            continue
                        assert element_height(g, a, p) == layered_height(g, a, p), (g, a, p)
                        checked += 1
        # the elements of order prime to p form a subgroup of order n / p^v_p(n)
        assert checked == sum(
            len(abelian_groups_of_order(n)) * (n - n // _p_part(n, p))
            for n in range(2, 33)
            for p in _prime_factors(n)
        )

    def test_span_of_every_pair_matches_pairwise_fixpoint(self):
        # every abelian group of order <= 16 and every ordered pair of elements
        checked = 0
        for order in range(1, 17):
            for g in abelian_groups_of_order(order):
                for a, b in itertools.combinations_with_replacement(g.elements(), 2):
                    closed = {g.identity(), a, b}
                    while True:
                        grown = closed | {g.add(x, y) for x in closed for y in closed}
                        if grown == closed:
                            break
                        closed = grown
                    for gens in ([a, b], [b, a]):
                        assert set(subgroup_generated(g, gens).elements) == closed, (g, gens)
                        checked += 1
        assert checked == 2 * sum(
            n * (n + 1) // 2 * len(abelian_groups_of_order(n)) for n in range(1, 17)
        )


class TestQuotient:
    def test_klein_cube_by_line(self):
        g = make_group([2, 2, 2])
        n = subgroup_generated(g, [(1, 0, 0)])
        q, proj = quotient(g, n)
        assert q.factors == (2, 2)
        assert len(set(proj.values())) == 4
        assert subgroup_index(g, n) == 4

    def test_quotient_by_self_is_trivial(self):
        g = make_group([2, 4])
        whole = subgroup_generated(g, [(1, 0), (0, 1)])
        q, proj = quotient(g, whole)
        assert q.order == 1
        assert subgroup_index(g, whole) == 1

    def test_z8_by_half(self):
        g = make_group([8])
        n = subgroup_generated(g, [(4,)])
        q, _ = quotient(g, n)
        assert q.factors == (4,)
        assert subgroup_index(g, subgroup_generated(g, [(2,)])) == 2

    def test_projection_is_a_homomorphism(self):
        g = make_group([2, 4])
        n = subgroup_generated(g, [(0, 2)])
        q, proj = quotient(g, n)
        for a in g.elements():
            for b in g.elements():
                assert proj[g.add(a, b)] == q.add(proj[a], proj[b])

    def test_cosets_share_projection_and_identity_maps_to_identity(self):
        g = make_group([3, 3])
        n = subgroup_generated(g, [(1, 1)])
        q, proj = quotient(g, n)
        assert proj[g.identity()] == q.identity()
        for a in g.elements():
            for x in n.elements:
                assert proj[g.add(a, x)] == proj[a]

    def test_rejects_non_subgroup(self):
        g = make_group([4])
        with pytest.raises(NotASubgroup):
            quotient(g, Subgroup(g, ((0,), (1,))))


class TestRecognize:
    def test_quotient_recognize_roundtrip(self):
        for factors in ([4], [2, 4], [2, 2, 2], [8], [9], [3, 3], [2, 6]):
            g = make_group(factors)
            for n in all_subgroups(g):
                q, proj = quotient(g, n)
                reps = sorted(set(proj.values()))
                again = recognize(reps, q.add)
                assert again.factors == q.factors

    def test_iso_coordinates_are_additive(self):
        g = make_group([2, 4])
        n = subgroup_generated(g, [(1, 2)])
        recognized, coords = recognize_with_iso(list(n.elements), g.add)
        assert recognized.factors == (2,)
        for a in n.elements:
            for b in n.elements:
                assert coords[g.add(a, b)] == recognized.add(coords[a], coords[b])

    def test_recognize_of_mixed_subgroup(self):
        g = make_group([2, 4])
        sub = subgroup_generated(g, [(0, 2)])
        assert recognize(list(sub.elements), g.add).factors == (2,)

    def test_non_abelian_table_rejected(self):
        import itertools as it

        perms = list(it.permutations(range(3)))

        def compose(p, q):
            return tuple(p[q[i]] for i in range(3))

        with pytest.raises(NotAbelian):
            recognize(perms, compose)


class TestIsomorphism:
    def test_census_separates_order_four(self):
        assert not is_isomorphic(make_group([4]), make_group([2, 2]))

    def test_mixed_eight(self):
        assert not is_isomorphic(make_group([2, 4]), make_group([8]))
        assert is_isomorphic(make_group([2, 4]), make_group([2, 4]))

    def test_direct_sum_presentation(self):
        g = direct_sum(make_group([2]), make_group([3]))
        assert g.factors == (2, 3)
        assert invariant_factors(g) == (6,)
        assert is_isomorphic(g, make_group([6]))


class TestHoms:
    def test_hom_count_z8_to_z4(self):
        homs = enumerate_homs(make_group([8]), make_group([4]))
        assert len(homs) == 4
        surjective = enumerate_homs(make_group([8]), make_group([4]), surjective_only=True)
        assert sorted(h.gen_images for h in surjective) == [((1,),), ((3,),)]

    def test_everything_to_trivial(self):
        for factors in ([2, 4], [8], [3, 3]):
            homs = enumerate_homs(make_group(factors), make_group([]))
            assert len(homs) == 1

    def test_gcd_count_against_function_brute_force(self):
        for a in range(2, 13):
            za = make_group([a])
            for b in range(2, 13):
                zb = make_group([b])
                # independent count: images of the generator that extend to
                # a map respecting a * x = 0
                valid = [y for y in range(b) if (a * y) % b == 0]
                assert len(enumerate_homs(za, zb)) == len(valid) == math.gcd(a, b)

    def test_hom_additivity_exhaustive(self):
        pairs = [([2, 4], [4]), ([8], [2, 4]), ([3, 3], [3]), ([2, 2], [2, 2])]
        for src_factors, dst_factors in pairs:
            src, dst = make_group(src_factors), make_group(dst_factors)
            for h in enumerate_homs(src, dst):
                for x in src.elements():
                    for y in src.elements():
                        assert h(src.add(x, y)) == dst.add(h(x), h(y))

    @pytest.mark.parametrize(
        "src_factors, dst_factors", [([6], [2, 4]), ([2, 4], [2, 4]), ([9], [3, 3])]
    )
    def test_hom_table_matches_checked_evaluation(self, src_factors, dst_factors):
        src, dst = make_group(src_factors), make_group(dst_factors)
        homs = enumerate_homs(src, dst)
        assert homs
        for h in homs:
            assert hom_table(h) == [h(a) for a in src.elements()]

    @pytest.mark.parametrize("src_factors, dst_factors", SMALL_HOM_PAIRS)
    def test_surjective_enumeration_filters_all_homs(self, src_factors, dst_factors):
        src, dst = make_group(src_factors), make_group(dst_factors)
        expected = [h for h in enumerate_homs(src, dst) if is_surjective(h)]
        assert enumerate_homs(src, dst, surjective_only=True) == expected

    def test_kernel_of_pair_projection(self):
        u, s = make_group([3]), make_group([3, 3])
        g = direct_sum(u, s)
        proj = GroupHom(g, s, (s.identity(), (1, 0), (0, 1)))
        kernel = hom_kernel(proj)
        assert kernel.order == u.order
        assert all(a[1:] == s.identity() for a in kernel.elements)

    def test_kernel_image_lagrange(self):
        src, dst = make_group([2, 4]), make_group([2, 2])
        for h in enumerate_homs(src, dst):
            assert hom_kernel(h).order * hom_image(h).order == src.order

    def test_invalid_generator_image(self):
        message = r"^image \(1,\) of an order-2 generator has order 4, which does not divide 2$"
        with pytest.raises(InvalidHom, match=message):
            GroupHom(make_group([2, 4]), make_group([4]), ((1,), (1,)))

    def test_surjectivity_detection(self):
        z8, z4 = make_group([8]), make_group([4])
        assert is_surjective(GroupHom(z8, z4, ((1,),)))
        assert not is_surjective(GroupHom(z8, z4, ((2,),)))


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "factors,count",
        [
            ([2, 2], 6),     # GL(2, F2)
            ([4], 2),        # units mod 4
            ([2, 4], 8),     # 2 socle images x 4 order-4 images
            ([3], 2),
            ([3, 3], 48),    # GL(2, F3)
            ([2, 2, 2, 2], 20160),  # GL(4, F2)
            ([3, 3, 3], 11232),     # GL(3, F3)
        ],
    )
    def test_known_counts(self, factors, count):
        assert len(automorphisms(make_group(factors))) == count

    def test_automorphisms_are_the_bijective_homs(self):
        # every abelian group of order <= 16 but Z2^4, whose 65,536 endomorphisms
        # are too many to list here
        total = 0
        for g in small_groups(16):
            if g.factors == (2, 2, 2, 2):
                continue
            bijective = [h for h in enumerate_homs(g, g) if is_surjective(h)]
            assert automorphisms(g) == bijective
            total += len(bijective)
        assert total == 626

    def test_identity_is_included(self):
        g = make_group([2, 4])
        assert any(
            all(h(a) == a for a in g.elements()) for h in automorphisms(g)
        )

    def test_height_classifies_prime_subgroup_orbits(self):
        # orbit partition under explicit automorphisms == partition by the
        # divisibility height of a generator (the sweep's dedup key); the
        # mixed-exponent groups are the cases where heights actually differ
        cases = []
        for order in range(2, 13):
            cases.extend(abelian_groups_of_order(order))
        cases.extend(
            make_group(f) for f in ([2, 8], [4, 4], [2, 2, 4], [3, 9], [2, 12])
        )
        for g in cases:
            auts = automorphisms(g)
            for p in _prime_factors(g.order):
                subs = prime_order_subgroups(g, p)
                orbit_of = {}
                for sub in subs:
                    canon = min(
                        tuple(sorted(h(a) for a in sub.elements)) for h in auts
                    )
                    orbit_of[sub.elements] = canon
                for s1 in subs:
                    gen1 = min(a for a in s1.elements if a != g.identity())
                    for s2 in subs:
                        gen2 = min(a for a in s2.elements if a != g.identity())
                        same_orbit = orbit_of[s1.elements] == orbit_of[s2.elements]
                        same_key = element_height(g, gen1, p) == element_height(g, gen2, p)
                        assert same_orbit == same_key


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _p_part(n: int, p: int) -> int:
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


class TestFamilies:
    def test_abelian_groups_of_order(self):
        assert [g.factors for g in abelian_groups_of_order(1)] == [()]
        assert [g.factors for g in abelian_groups_of_order(8)] == [
            (2, 2, 2),
            (2, 4),
            (8,),
        ]
        assert [g.factors for g in abelian_groups_of_order(12)] == [(2, 6), (12,)]
        assert len(abelian_groups_of_order(16)) == 5

    def test_order_p_elements(self):
        g = make_group([2, 4])
        assert len(elements_of_order(g, 2)) == 3
        assert len(elements_of_order(g, 4)) == 4

    def test_trivial_subgroup_helper(self):
        g = make_group([5])
        assert trivial_subgroup(g).elements == ((0,),)
