from __future__ import annotations

import itertools
import math
import random
import re
import subprocess
import sys

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
    format_element,
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
from groupcode.groups import (
    _add,
    _hom_candidates,
    _index_sum_rows,
    _linear_table,
    _mask_generators,
    _order,
    _span_mask,
    _torsion,
    _translate,
    element_height,
    element_labels,
    elements_of_order,
    identity_hom,
    prime_order_generators,
    prime_quotient_types,
)
from groupcode import groups
from specs import HUGE_OUTPUT


def _reordered_groups(max_order: int) -> list[FiniteAbelianGroup]:
    """Every abelian group of order <= ``max_order``, once per distinct ordering of its invariant factors."""
    return [
        FiniteAbelianGroup(factors)
        for order in range(1, max_order + 1)
        for g in abelian_groups_of_order(order)
        for factors in sorted(set(itertools.permutations(g.factors)))
    ]


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

    @pytest.mark.parametrize(
        "bad",
        [[1], [0], [-3], [2, 1], [2.5], [2.9, 3], ["6"], [None], [float("nan")], [float("inf")]],
    )
    def test_invalid_factor(self, bad):
        # a factor must equal an int of at least 2, in either constructor
        with pytest.raises(InvalidFactor):
            make_group(bad)
        with pytest.raises(InvalidFactor):
            FiniteAbelianGroup(tuple(bad))

    def test_integral_factor_is_stored_as_int(self):
        g = FiniteAbelianGroup((2.0, 4))
        assert g.factors == (2, 4) and all(type(d) is int for d in g.factors)
        assert make_group([2.0, 3]).factors == (6,)


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

    @pytest.mark.parametrize(
        "op, a, b",
        [("add", (5,), (0,)), ("add", (0,), (5,)), ("sub", (7,), (1,)), ("sub", (1,), (7,))],
    )
    def test_wrong_group_on_out_of_range_operand(self, op, a, b):
        # out-of-range coordinates raise instead of wrapping modulo 4
        with pytest.raises(WrongGroup):
            getattr(make_group([4]), op)(a, b)

    @pytest.mark.parametrize(
        "a, named", [((1.0, 0), True), ((True, False), True), ((0.5, 0), False), (("1", 0), False)]
    )
    def test_coordinates_name_the_element_they_equal(self, a, named):
        g = make_group([2, 2])
        assert g.contains(a) is named
        if named:
            assert g.check(a) == (1, 0) and all(type(c) is int for c in g.check(a))
        else:
            with pytest.raises(WrongGroup):
                g.check(a)

    @pytest.mark.parametrize(
        "a", [None, 5, "10", (None, 0), ([1], 0), (float("nan"), 0), (float("inf"), 0), (1j, 0)]
    )
    def test_contains_never_raises(self, a):
        g = make_group([2, 2])
        assert g.contains(a) is False
        with pytest.raises(WrongGroup):
            g.check(a)

    def test_element_indexing_roundtrip(self):
        g = make_group([2, 3, 4])
        for i, a in enumerate(g.elements()):
            assert g.index_of(a) == i
            assert g.element_at(i) == a

    @pytest.mark.parametrize("index", [-1, 8, 100])
    def test_element_at_rejects_out_of_range_index(self, index):
        with pytest.raises(WrongGroup):
            make_group([2, 4]).element_at(index)


# the seven groups of TestRecognize, the trivial group, the <= 10 boundary and
# two comma-joined groups
LABELLED_FACTORS = [
    [4], [2, 4], [2, 2, 2], [8], [9], [3, 3], [2, 6], [], [10], [12, 12], [2, 12],
]


class TestElementLabels:
    @pytest.mark.parametrize("factors", LABELLED_FACTORS, ids=str)
    def test_labels_equal_format_element(self, factors):
        g = make_group(factors)
        n = g.order
        shuffled = list(range(n))
        random.Random(n).shuffle(shuffled)
        repeated = [0, n - 1, 0, n // 2, n - 1, n - 1]
        for indices in (range(n), list(range(n)), shuffled, repeated, []):
            expected = [format_element(g, g.element_at(i)) for i in indices]
            assert element_labels(g, indices) == expected
        # the rendering spelled out, element by element
        sep = "" if all(d <= 10 for d in g.factors) else ","
        for i, a in enumerate(g.elements()):
            want = sep.join(map(str, a)) if a else "()"
            assert format_element(g, a) == want
            assert element_labels(g, [i]) == [want]

    def test_labels_in_the_wide_groups_are_comma_joined(self):
        assert element_labels(make_group([10]), [0, 9]) == ["0", "9"]
        assert element_labels(make_group([12, 12]), [0, 13, 143]) == ["0,0", "1,1", "11,11"]
        assert element_labels(make_group([2, 12]), [1, 23]) == ["0,1", "1,11"]
        assert element_labels(make_group([]), [0, 0]) == ["()", "()"]

    def test_labels_render_only_the_residues_asked_for(self):
        # one table of 10^12 digit strings could not be built
        big = 10**12
        assert element_labels(FiniteAbelianGroup((big,)), [0, 7, big - 1]) == [
            "0", "7", "999999999999"
        ]
        assert element_labels(FiniteAbelianGroup((big, 3)), [0, 5, 3 * big - 1]) == [
            "0,0", "1,2", "999999999999,2"
        ]

    def test_labels_take_a_separator(self):
        g = make_group([2, 4])
        assert element_labels(g, [0, 7], ",") == ["0,0", "1,3"]
        assert element_labels(g, [7], "") == element_labels(g, [7]) == ["13"]
        assert element_labels(make_group([12, 12]), [13], "") == ["11"]
        assert element_labels(make_group([]), [0], ",") == ["()"]

    @pytest.mark.parametrize("a", [(2,), (0, 0), (-1,), ()], ids=str)
    def test_format_element_rejects_foreign_elements(self, a):
        with pytest.raises(WrongGroup):
            format_element(make_group([2]), a)


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

    @pytest.mark.parametrize(
        "factors, members",
        [([4], ((0,), (5,))), ([2], ((0,), ())), ([4], ((1,), (7,)))],
        ids=["unreduced", "short", "no-identity"],
    )
    def test_closure_rejects_foreign_members(self, factors, members):
        with pytest.raises(WrongGroup):
            Subgroup(make_group(factors), members).is_closed()

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

    def test_translation_matches_element_sums(self):
        # every mask and every element of every abelian group of order <= 8,
        # under every ordering of its invariant factors
        checked = 0
        for g in _reordered_groups(8):
            elements = list(g.elements())
            for mask in range(1 << g.order):
                members = [x for i, x in enumerate(elements) if mask >> i & 1]
                for a in elements:
                    moved = sum(1 << g.index_of(g.add(x, a)) for x in members)
                    assert _translate(g.factors, mask, a) == moved, (g, mask, a)
                    checked += 1
        # presentations of order n, times 2^n masks, times n elements
        assert checked == 2 + 2 * 4 + 3 * 8 + 2 * 4 * 16 + 5 * 32 + 6 * 64 + 7 * 128 + 4 * 8 * 256

    def test_mask_closure_matches_pairwise_brute_force(self):
        # every nonempty mask of every abelian group of order <= 12, under
        # every ordering of its invariant factors
        checked = 0
        for g in _reordered_groups(12):
            elements = list(g.elements())
            index = {x: i for i, x in enumerate(elements)}
            neg = [index[g.neg(x)] for x in elements]
            sums = [[index[g.add(x, y)] for y in elements] for x in elements]
            for mask in range(1, 1 << g.order):
                members = [i for i in range(g.order) if mask >> i & 1]
                brute = (
                    mask & 1 == 1
                    and all(mask >> neg[i] & 1 for i in members)
                    and all(mask >> sums[i][j] & 1 for i in members for j in members)
                )
                assert (_mask_generators(g, mask) is not None) == brute, (g, mask)
                checked += 1
        assert checked == 17659

    def test_lagrange_over_all_subgroups(self):
        for factors in ([8], [2, 4], [2, 2, 2], [3, 3], [12]):
            g = make_group(factors)
            subs = all_subgroups(g)
            for sub in subs:
                assert g.order % sub.order == 0
                assert subgroup_index(g, sub) * sub.order == g.order

    def test_duplicate_elements_counted_once(self):
        g = make_group([2])
        doubled = Subgroup(g, ((0,), (0,)))
        assert doubled.order == 1
        assert subgroup_index(g, doubled) == 2
        assert doubled == trivial_subgroup(g)

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


    def test_commutative_table_without_inverses_raises(self):
        # max on {0, 1} commutes and has the identity 0, but 1 never returns
        # to it; run in a child process with a timeout so a hang fails the test
        code = (
            "from groupcode import NotAbelian, recognize\n"
            "try:\n"
            "    recognize([0, 1], max)\n"
            "except NotAbelian as exc:\n"
            "    print(exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "1 does not reach the identity within 2 steps\n"

    def test_one_element_table_is_checked(self):
        # 'x' * 'x' falls outside the table, so 'x' is no identity
        with pytest.raises(NotAbelian, match="^operation table has no identity$"):
            recognize_with_iso(["x"], lambda a, b: "y")

    def test_basis_span_not_covering_table_raises(self):
        # a repeated element: the census finds one Z2 factor for four entries
        with pytest.raises(NotAbelian, match="^basis span does not cover the table$"):
            recognize([0, 0, 1, 1], lambda a, b: (a + b) % 2)


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


NOT_IN_Z2_Z4 = " is not an element of the group with moduli (2, 4)"
ORDER_4_IN_ORDER_2 = " of an order-2 generator has order 4, which does not divide 2"


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

    def test_hom_table_matches_checked_evaluation_exhaustively(self):
        # every hom between every ordered pair: the trivial group, the
        # non-canonical presentations Z4 + Z2 and Z2 + Z3, and Z3 x Z9,
        # where the multiples of a coefficient wrap past the modulus
        z2, z3, z4 = make_group([2]), make_group([3]), make_group([4])
        groups = [
            FiniteAbelianGroup(()),
            z2,
            make_group([6]),
            direct_sum(z4, z2),
            direct_sum(z2, z3),
            FiniteAbelianGroup((3, 9)),
            make_group([2, 2, 2]),
        ]
        for src, dst in itertools.product(groups, repeat=2):
            for h in enumerate_homs(src, dst):  # never empty: the zero hom is one
                assert hom_table(h) == [h(a) for a in src.elements()]

    def test_hom_table_returns_a_fresh_list(self):
        h = identity_hom(make_group([2, 4]))
        table = hom_table(h)
        table[0] = (1, 1)
        assert hom_table(h) == list(h.source.elements())

    @pytest.mark.parametrize(
        "factors, ops", [((2, 2, 2, 2), 15), ((2, 4), 9), ((3, 9), 34), ((2, 12), 33), ((), 0)]
    )
    def test_linear_table_op_count(self, factors, ops):
        # |G| - 1 + sum(d_i - 2) adds, none of them adding the zero multiple
        g = FiniteAbelianGroup(factors)
        added = []

        def op(a, b):
            assert b != g.identity()
            added.append(b)
            return _add(g.factors, a, b)

        gens = zip(factors, identity_hom(g).gen_images)
        assert _linear_table(op, g.identity(), gens) == list(g.elements())
        assert len(added) == ops

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

    def test_images_are_stored_as_ints(self):
        g = make_group([2, 2])
        h = GroupHom(g, g, ((1.0, 0), (True, False)))
        assert h.gen_images == ((1, 0), (1, 0))
        assert all(type(c) is int for img in h.gen_images for c in img)
        assert h._indices == GroupHom(g, g, ((1, 0), (1, 0)))._indices

    def test_invalid_generator_image(self):
        message = r"^image \(1,\) of an order-2 generator has order 4, which does not divide 2$"
        with pytest.raises(InvalidHom, match=message):
            GroupHom(make_group([2, 4]), make_group([4]), ((1,), (1,)))

    @pytest.mark.parametrize(
        "images, error, message",
        [
            ([(0, 2), (2, 0)], WrongGroup, "(2, 0)" + NOT_IN_Z2_Z4),
            ([(0, 2), (1,)], WrongGroup, "(1,)" + NOT_IN_Z2_Z4),
            ([(0, 2), (0, 1, 0)], WrongGroup, "(0, 1, 0)" + NOT_IN_Z2_Z4),
            ([(0, 2), (-1, 0)], WrongGroup, "(-1, 0)" + NOT_IN_Z2_Z4),
            # a foreign coordinate is reported before the order of the image
            ([(2, 1), (0, 0)], WrongGroup, "(2, 1)" + NOT_IN_Z2_Z4),
            ([(0, 2), (1, 1)], InvalidHom, "image (1, 1)" + ORDER_4_IN_ORDER_2),
            ([(0, 3), (0, 0)], InvalidHom, "image (0, 3)" + ORDER_4_IN_ORDER_2),
            # a coordinate must equal an int
            ([(0, 2), (0.5, 0)], WrongGroup, "(0.5, 0)" + NOT_IN_Z2_Z4),
            ([(0, 2), ("1", 0)], WrongGroup, "('1', 0)" + NOT_IN_Z2_Z4),
        ],
    )
    def test_image_checks_pin_their_messages(self, images, error, message):
        # Z2 x Z2 -> Z2 x Z4: each image is checked for membership, then for order
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            GroupHom(make_group([2, 2]), make_group([2, 4]), [list(img) for img in images])

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

    def test_height_determines_quotient_type(self):
        # the sweep decomposes one order-p subgroup per generator height, so
        # order-p subgroups whose generators have one height must have
        # isomorphic quotients
        checked = expected = 0
        for order in range(2, 65):
            for g in abelian_groups_of_order(order):
                for p in _prime_factors(order):
                    type_of = {}
                    predicted = prime_quotient_types(g, p)  # the sweep reads this instead
                    for sub in prime_order_subgroups(g, p):
                        gen = min(a for a in sub.elements if a != g.identity())
                        q_factors = quotient(g, sub)[0].factors
                        height = element_height(g, gen, p)
                        assert type_of.setdefault(height, q_factors) == q_factors, (g, gen, p)
                        assert predicted[height] == q_factors, (g, gen, p)
                        checked += 1
                    assert set(predicted) == set(type_of), (g, p)
                    rank = sum(1 for d in g.factors if d % p == 0)  # the p-rank
                    expected += (p**rank - 1) // (p - 1)
        assert checked == expected == 548


@pytest.mark.parametrize("factors", [[], [2], [5], [2, 2], [2, 4], [3, 6], [2, 2, 6], [2, 12]])
@pytest.mark.parametrize("a, b", [(1, 1), (1, -1), (1, -3), (2, 0), (5, 0), (-1, 2)])
def test_index_sum_rows_add_in_index_space(factors, a, b):
    g = make_group(factors)
    elements = list(g.elements())
    rows = _index_sum_rows(g, a, b)
    assert len(rows) == g.order
    for x, ex in enumerate(elements):
        assert rows[x] == [g.index_of(g.add(g.scalar_mul(a, ex), g.scalar_mul(b, ey))) for ey in elements]


def _scanned_generators(g, p) -> list:
    """The old subgroup census: span every order-p element, dedupe, sort, take each least generator."""
    seen = {}
    for a in elements_of_order(g, p):
        sub = subgroup_generated(g, [a])
        seen.setdefault(frozenset(sub.elements), sub)
    return [sub.elements[1] for sub in sorted(seen.values(), key=lambda sub: sub.elements)]


def test_prime_order_generators_match_the_element_scan():
    # the p-torsion walk against spanning every element of order p, on every
    # abelian group of order <= 128 and every prime dividing the order
    cases = 0
    for order in range(2, 129):
        for g in abelian_groups_of_order(order):
            for p in _prime_factors(order):
                expected = _scanned_generators(g, p)
                assert list(prime_order_generators(g, p)) == expected, (g, p)
                assert [sub.elements[1] for sub in prime_order_subgroups(g, p)] == expected
                cases += 1
    assert cases == 419


def test_torsion_matches_the_element_scan():
    # the coordinate box against testing n a = 0 on every element, for every
    # abelian group of order <= 64 and every 0 <= n <= |g|
    for g in small_groups(64):
        elements = list(g.elements())
        for n in range(g.order + 1):
            expected = [a for a in elements if not any(n * c % d for c, d in zip(a, g.factors))]
            assert list(_torsion(g, n)) == expected, (g, n)


def test_hom_candidates_match_the_order_filter():
    # per generator of g1, the elements of g2 whose order divides its order
    for g1 in small_groups(16):
        for g2 in small_groups(16):
            expected = [
                [a for a in g2.elements() if d % _order(g2.factors, a) == 0] for d in g1.factors
            ]
            assert _hom_candidates(g1, g2) == expected, (g1, g2)


def test_elements_of_order_match_the_element_scan():
    for g in small_groups(64):
        orders = {a: _order(g.factors, a) for a in g.elements()}
        for n in range(-1, g.order + 2):
            assert elements_of_order(g, n) == [a for a, k in orders.items() if k == n], (g, n)


def test_hom_kernel_matches_the_checked_evaluation():
    homs = 0
    for src in small_groups(8):
        for dst in small_groups(8):
            for h in enumerate_homs(src, dst):
                expected = [a for a in src.elements() if h(a) == dst.identity()]
                assert hom_kernel(h) == Subgroup(src, tuple(expected)), h
                homs += 1
    assert homs > 1000


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


def _per_coordinate_indices(h: GroupHom) -> list[int]:
    """Oracle: each target coordinate as a Python list over the source elements, folded into the index.

    Grown from the last source generator to the first: an order-``n`` generator
    with coefficient ``a`` in a ``Z_d`` coordinate adds each multiple ``c * a``
    (mod ``d``) to the column built so far.
    """
    indices = [0] * h.source.order
    for k, d in enumerate(h.target.factors):
        column = [0]
        for n, img in zip(reversed(h.source.factors), reversed(h.gen_images)):
            a = img[k]
            column = column * n if a == 0 else [(m + v) % d for m in range(0, n * a, a) for v in column]
        indices = [d * i + c for i, c in zip(indices, column)]
    return indices


class TestSlotTabulation:
    def test_every_hom_between_groups_of_order_at_most_16(self):
        groups_16 = [g for n in range(1, 17) for g in abelian_groups_of_order(n)]
        homs = 0
        for src, dst in itertools.product(groups_16, repeat=2):
            for h in enumerate_homs(src, dst):
                assert h._indices == _per_coordinate_indices(h), h
                homs += 1
        assert (len(groups_16), homs) == (25, 91949)

    @pytest.mark.parametrize(
        "source, target, images, width",
        [
            # a modulus above 2^7 needs 16-bit slots though |T| fits in 8 bits
            ((200,), (200,), [(7,)], 2),
            ((4, 16), (16, 16), [(4, 12), (3, 5)], 1),
            ((16, 16), (16, 16), [(1, 0), (15, 1)], 1),
            ((257,), (257,), [(3,)], 2),
            ((2, 257), (2, 257), [(1, 0), (0, 256)], 2),
            ((3, 4), (3, 1 << 16), [(1, 0), (0, 3 << 14)], 4),
            ((4, 4), (2, 4, 2, 4, 2, 4, 2, 4) * 2, [(1, 2) * 8, (0, 3, 1, 1) * 4], 4),
            ((6,), (6, 1 << 32), [(5, 1 << 31)], 8),
            # the output map of specs.HUGE_OUTPUT, into Z_{10^12}
            ((2, 2), (10**12,), HUGE_OUTPUT["omega"]["gen_images"], 8),
            # |T| = 2^70 is past every native item: 16-byte slots, read one by one
            ((2, 2), (2,) * 70, [(1, 0) * 35, (1, 1, 0) * 23 + (1,)], 16),
        ],
        ids=[
            "mod-200", "T=256", "T=256,Z16^2", "T=257", "Z2xZ257", "32-bit", "T=2^24", "64-bit",
            "HUGE_OUTPUT", "Z2^70",
        ],
    )
    def test_each_slot_width(self, monkeypatch, source, target, images, width):
        widths = []
        read = groups._read_slots
        monkeypatch.setattr(groups, "_read_slots", lambda *args: widths.append(args[2]) or read(*args))
        h = GroupHom(FiniteAbelianGroup(source), FiniteAbelianGroup(target), tuple(map(tuple, images)))
        assert h._indices == _per_coordinate_indices(h)
        assert hom_table(h) == [h(a) for a in h.source.elements()]
        assert widths == [width]

    @pytest.mark.parametrize(
        "source, target", [((), (2, 3)), ((2, 3), ()), ((), ())], ids=["trivial-source", "trivial-target", "both"]
    )
    def test_trivial_source_or_target(self, source, target):
        src, dst = FiniteAbelianGroup(source), FiniteAbelianGroup(target)
        for h in enumerate_homs(src, dst):
            assert h._indices == _per_coordinate_indices(h) == [0] * src.order


def test_span_mask_matches_the_element_span():
    # every pair of generators of every group of order <= 12, in every factor ordering
    for g in _reordered_groups(12):
        n = g.order
        for i, j in itertools.product(range(n), repeat=2):
            expected = subgroup_generated(g, [g.element_at(i), g.element_at(j)])
            assert _span_mask(g, [i, j]) == sum(1 << g.index_of(a) for a in expected.elements), (g, i, j)
