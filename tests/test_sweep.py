from __future__ import annotations

import itertools
import json
import math
import os

import pytest

from groupcode import (
    GroupHom,
    NotPrime,
    PredicateViolation,
    TooLarge,
    abelian_groups_of_order,
    automorphisms,
    decide_controllability,
    enumerate_encoders,
    enumerate_extensions,
    make_group,
    structure_report,
    sweep_theorems,
)
from groupcode import sweep as sweep_module
from groupcode.control import forward_chain
from groupcode.encoder import encoder_from_extension
from groupcode.groups import (
    all_subgroups,
    enumerate_homs,
    identity_hom,
    invariant_factors,
    is_prime,
    quotient,
    recognize,
)
from groupcode.sweep import _evaluate_instance, _move, _moved_image, _symmetries


class TestEnumerateExtensions:
    def test_prime_by_prime_ambients(self):
        instances = enumerate_extensions(2, make_group([2]))
        assert sorted(i.ambient.factors for i in instances) == [(2, 2), (4,)]

    def test_klein_square_quotient_excludes_cyclic_eight(self):
        instances = enumerate_extensions(2, make_group([2, 2]))
        ambients = sorted(i.ambient.factors for i in instances)
        assert ambients == [(2, 2, 2), (2, 4)]

    def test_trivial_state_group(self):
        instances = enumerate_extensions(3, make_group([]))
        assert [i.ambient.factors for i in instances] == [(3,)]
        assert instances[0].normal.order == 3

    def test_composite_prime_rejected(self):
        with pytest.raises(NotPrime):
            enumerate_extensions(4, make_group([2]))

    def test_quotients_match_requested_state_group(self):
        for p, factors in [(2, [4]), (2, [2, 2]), (3, [3]), (5, [5])]:
            wanted = make_group(factors)
            for instance in enumerate_extensions(p, wanted, dedup=False):
                assert instance.state_group.factors == wanted.factors
                assert instance.ambient.order == p * wanted.order
                assert instance.normal.order == p

    def test_dedup_keeps_one_representative_per_orbit(self):
        for p, factors in [(2, [2]), (2, [4]), (2, [2, 2]), (3, [3])]:
            state_group = make_group(factors)
            full = enumerate_extensions(p, state_group, dedup=False)
            kept = enumerate_extensions(p, state_group, dedup=True)
            assert len(kept) <= len(full)
            by_ambient: dict[tuple, list] = {}
            for instance in kept:
                by_ambient.setdefault(instance.ambient.factors, []).append(instance)
            for instance in full:
                reps = by_ambient[instance.ambient.factors]
                auts = automorphisms(instance.ambient)
                in_orbit = any(
                    {h(a) for a in instance.normal.elements} == set(rep.normal.elements)
                    for rep in reps
                    for h in auts
                )
                assert in_orbit


class TestEnumerateEncoders:
    def test_cyclic_eight_has_two_surjections(self):
        instances = enumerate_extensions(2, make_group([4]))
        z8 = next(i for i in instances if i.ambient.factors == (8,))
        encoders = enumerate_encoders(z8)
        assert sorted(e.next_state.gen_images for e in encoders) == [((1,),), ((3,),)]

    def test_klein_cube_count_matches_brute_force(self):
        instances = enumerate_extensions(2, make_group([2, 2]))
        cube = next(i for i in instances if i.ambient.factors == (2, 2, 2))
        encoders = enumerate_encoders(cube)
        # independent count: all 4^3 generator-image tables, kept if the
        # images span the target
        target = make_group([2, 2])
        count = 0
        for images in itertools.product(list(target.elements()), repeat=3):
            span = {target.identity()}
            frontier = list(span)
            while frontier:
                a = frontier.pop()
                for img in images:
                    b = target.add(a, img)
                    if b not in span:
                        span.add(b)
                        frontier.append(b)
            if len(span) == 4:
                count += 1
        assert len(encoders) == count == 42

    def test_trivial_state_group_single_zero_map(self):
        instance = enumerate_extensions(2, make_group([]))[0]
        encoders = enumerate_encoders(instance)
        assert len(encoders) == 1
        assert encoders[0].next_state.gen_images == ((),)

    def test_identity_output_map(self):
        instance = enumerate_extensions(2, make_group([2]))[0]
        for enc in enumerate_encoders(instance):
            assert enc.output_group == instance.ambient
            for g in instance.ambient.elements():
                assert enc.output(g) == g


@pytest.fixture(scope="module")
def small_sweep():
    return sweep_theorems([2], 4)


class TestSweepTheorems:
    def test_controllable_only_for_elementary_state_groups(self, small_sweep):
        controllable_s = {
            tuple(row["state_factors"])
            for row in small_sweep.rows
            if row["controllable_count"] > 0
        }
        assert controllable_s == {(), (2,), (2, 2)}

    def test_zero_violations(self, small_sweep):
        assert small_sweep.violations == 0
        checks = small_sweep.checks
        assert checks["controllable_implies_elementary_state_group"]["violations"] == 0
        assert checks["long_cyclic_state_group_never_controllable"]["violations"] == 0
        assert checks["long_cyclic_state_group_never_controllable"]["checked"] > 0

    def test_minimal_indices(self, small_sweep):
        min_index = {
            (row["p"], tuple(row["state_factors"])): row["min_index"]
            for row in small_sweep.rows
            if row["min_index"] is not None
        }
        assert min_index[(2, (2,))] == 1
        assert min_index[(2, (2, 2))] == 2

    def test_controllable_witnesses_recorded(self, small_sweep):
        assert small_sweep.controllable_encoders
        for witness in small_sweep.controllable_encoders:
            assert set(witness) == {
                "p",
                "state_factors",
                "ambient_factors",
                "normal_generator",
                "next_state_images",
                "index",
            }

    def test_byte_deterministic(self):
        first = sweep_theorems([2], 4)
        second = sweep_theorems([2], 4)
        assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(
            second.to_json_dict(), sort_keys=True
        )

    def test_timing_not_in_canonical_payload(self, small_sweep):
        assert "elapsed" not in json.dumps(small_sweep.to_json_dict())

    def test_parallel_matches_serial(self):
        serial = sweep_theorems([2], 4, jobs=1)
        parallel = sweep_theorems([2], 4, jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_without_dedup_same_conclusions(self):
        deduped = sweep_theorems([2], 4, dedup=True)
        full = sweep_theorems([2], 4, dedup=False)
        assert full.totals["instances"] >= deduped.totals["instances"]
        assert full.violations == 0
        controllable = lambda rep: {
            tuple(row["state_factors"])
            for row in rep.rows
            if row["controllable_count"] > 0
        }
        assert controllable(full) == controllable(deduped)

    def test_guard(self):
        with pytest.raises(TooLarge):
            sweep_theorems([2], 200)
        with pytest.raises(TooLarge, match=r"Z2 x Z2 x Z2 x Z2 x Z2 x Z2: 1073741824 "):
            sweep_theorems([2], 128)  # p * |S| = 256 passes; Z2^6 -> Z2^5 has 2^30 homs
        with pytest.raises(NotPrime):
            sweep_theorems([6], 2)

    @pytest.mark.parametrize(
        "primes, max_s_order, accepted",
        [
            ([2], 16, True),
            ([3], 27, True),
            ([2, 3], 9, True),
            ([2], 31, True),
            ([2], 32, False),
            ([3], 81, False),
        ],
    )
    def test_guard_counts_homs_before_any_instance(
        self, monkeypatch, primes, max_s_order, accepted
    ):
        # 2^20 homs Z2^5 -> Z2^4 and 3^12 homs Z3^4 -> Z3^3 pass; 2^30 homs
        # Z2^6 -> Z2^5 and 3^20 homs Z3^5 -> Z3^4 are refused before any instance
        class Accepted(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Accepted

        monkeypatch.setattr(sweep_module, "enumerate_extensions", refuse)
        with pytest.raises(Accepted if accepted else TooLarge):
            sweep_theorems(primes, max_s_order)

    def test_jobs_env_variable(self, monkeypatch):
        from groupcode.sweep import default_jobs

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("GROUPCODE_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("GROUPCODE_JOBS", "not-a-number")
        assert default_jobs() == 1
        monkeypatch.delenv("GROUPCODE_JOBS")
        assert default_jobs() == 1

    @pytest.mark.parametrize(
        "cpus, raw, expected",
        [(2, "3", 2), (2, "2", 2), (8, "64", 8), (1, "0", 1), (None, "4", 1), (4, "-3", 1)],
    )
    def test_jobs_clamped_to_cpu_count(self, monkeypatch, cpus, raw, expected):
        from groupcode.sweep import default_jobs

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("GROUPCODE_JOBS", raw)
        assert default_jobs() == expected

    def test_summary_table_shape(self, small_sweep):
        table = small_sweep.summary_table()
        lines = table.splitlines()
        assert lines[0].split() == ["p", "S", "#enc", "#ctrl", "min_index", "violations"]
        assert any("[2,2]" in line for line in lines)


def _reference_row(instance, report=structure_report) -> dict:
    """The instance's sweep row, built by deciding and checking every encoder."""
    head = {
        "p": instance.prime,
        "state_factors": list(instance.state_group.factors),
        "ambient_factors": list(instance.ambient.factors),
        "normal_generator": list(instance.normal_generator),
    }
    controllable, violations = [], []
    encoders = enumerate_encoders(instance)
    for enc in encoders:
        verdict = decide_controllability(enc)
        try:
            report(enc, verdict)
        except PredicateViolation as exc:
            violations.append({"predicate": exc.name, "counterexample": repr(exc.counterexample)})
        if verdict.controllable:
            controllable.append(
                {
                    **head,
                    "next_state_images": [list(img) for img in enc.next_state.gen_images],
                    "index": verdict.index,
                }
            )
    return {
        **head,
        "encoder_count": len(encoders),
        "controllable_count": len(controllable),
        "min_index": min((c["index"] for c in controllable), default=None),
        "predicate_violations": len(violations),
        "violation_details": violations,
        "controllable": controllable,
    }


def _grid(p: int, max_s_order: int) -> list:
    return [
        instance
        for order in range(1, max_s_order + 1)
        for state_group in abelian_groups_of_order(order)
        for instance in enumerate_extensions(p, state_group)
    ]


@pytest.mark.parametrize("p, max_s_order", [(5, 5), (2, 15)])
def test_rows_equal_full_enumeration(p, max_s_order):
    instances = _grid(p, max_s_order)
    assert instances
    for instance in instances:
        assert _evaluate_instance(instance) == _reference_row(instance)


def _surjection_count(g_factors, s_factors) -> int:
    """|Surj(G, S)| by Moebius inversion over the subgroups H of S.

    |Hom(G, H)| is the product of gcd(d, e) over the cyclic factors d of G
    and e of H.  mu(H, S) is 0 unless S/H has squarefree invariant factors;
    then it is the product over the primes q of (-1)^k q^(k(k-1)/2), with k
    the q-rank of S/H (P. Hall, The Eulerian functions of a group, 1936).
    """
    s = make_group(s_factors)
    total = 0
    for h in all_subgroups(s):
        q_factors = invariant_factors(quotient(s, h)[0])
        top = q_factors[-1] if q_factors else 1  # every prime of S/H divides it
        primes = [q for q in range(2, top + 1) if top % q == 0 and is_prime(q)]
        if any(top % (q * q) == 0 for q in primes):
            continue
        ranks = [sum(d % q == 0 for d in q_factors) for q in primes]
        mu = math.prod((-1) ** k * q ** (k * (k - 1) // 2) for q, k in zip(primes, ranks))
        h_factors = recognize(list(h.elements), s.add).factors
        total += mu * math.prod(math.gcd(d, e) for d in g_factors for e in h_factors)
    return total


@pytest.mark.parametrize(
    "primes, max_s_order, dedup, rows",
    [([2, 3], 9, True, 38), ([2, 3], 9, False, 91), ([5], 5, True, 7)],
)
def test_encoder_counts_match_moebius_inversion(primes, max_s_order, dedup, rows):
    # counted independently of the orbit search: no hom is enumerated
    report = sweep_theorems(primes, max_s_order, dedup=dedup, jobs=1)
    assert len(report.rows) == rows
    for row in report.rows:
        expected = _surjection_count(row["ambient_factors"], row["state_factors"])
        assert row["encoder_count"] == expected


def test_violating_orbits_are_checked_member_by_member(monkeypatch):
    # a stand-in predicate failing on every encoder with a two-level chain (an
    # orbit invariant), with a counterexample that differs from member to member
    def report(enc, verdict):
        if len(verdict.chain.levels) == 2:
            raise PredicateViolation("two_levels", enc.next_state.gen_images)
        return structure_report(enc, verdict)

    monkeypatch.setattr(sweep_module, "structure_report", report)
    failing = 0
    for instance in _grid(3, 9):
        row = _evaluate_instance(instance)
        assert row == _reference_row(instance, report)
        failing += row["predicate_violations"]
    assert failing > 100


def _act(sym, s_group, images: tuple) -> tuple:
    """Generator images of ``beta_bar . nu . beta^-1`` from those of ``nu``."""
    out = [sym.bar[x] for x in images]
    out[sym.m] = _moved_image(sym, s_group.factors, images[sym.m], images[sym.i])
    return tuple(out)


def _chain_sizes(instance) -> dict:
    """Chain sizes of every surjective next-state map, keyed by its generator images."""
    ambient, omega = instance.ambient, identity_hom(instance.ambient)
    return {
        nu.gen_images: forward_chain(
            encoder_from_extension(instance.decomposition, ambient, nu, omega)
        ).sizes()
        for nu in enumerate_homs(ambient, instance.state_group, surjective_only=True)
    }


@pytest.mark.parametrize("p", [2, 3])
def test_symmetries_fix_n_and_keep_chain_sizes(p):
    acted = 0
    for instance in _grid(p, 9):
        s_group, moduli = instance.state_group, instance.ambient.factors
        s_elements = list(s_group.elements())
        sizes = _chain_sizes(instance)
        for sym in _symmetries(instance):
            beta = {g: _move(moduli, sym.m, sym.i, sym.forward, g) for g in instance.ambient.elements()}
            assert all(_move(moduli, sym.m, sym.i, sym.inverse, b) == g for g, b in beta.items())
            assert {beta[n] for n in instance.normal.elements} == set(instance.normal.elements)
            # beta_bar is a bijective hom of S
            assert sorted(sym.bar.values()) == s_elements
            for s in s_elements:
                for t in s_elements:
                    assert sym.bar[s_group.add(s, t)] == s_group.add(sym.bar[s], sym.bar[t])
            for images, chain in sizes.items():
                assert sizes[_act(sym, s_group, images)] == chain
                acted += 1
    assert acted > 1000
