from __future__ import annotations

import itertools
import json
import os

import pytest

from groupcode import (
    GroupHom,
    NotPrime,
    TooLarge,
    automorphisms,
    enumerate_encoders,
    enumerate_extensions,
    make_group,
    sweep_theorems,
)


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
        with pytest.raises(NotPrime):
            sweep_theorems([6], 2)

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
