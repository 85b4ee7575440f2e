"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a PASS line (visible with ``pytest -s``) after asserting the
criterion.  The enumerated family shared by several criteria (primes 2 and 3,
state groups up to order 9) is the session fixture ``family_p23`` of
``conftest.py``.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time

import pytest

from groupcode import (
    ExtensionKind,
    Window,
    abelian_groups_of_order,
    classify_prime_by_cyclic,
    concatenate,
    decide_controllability,
    decompose,
    encode_forward,
    forward_chain,
    invariant_factors,
    is_codeword,
    is_isomorphic,
    make_encoder,
    make_group,
    past_kernel,
    prime_order_subgroups,
    quotient,
    subgroup_generated,
    sweep_theorems,
    verify_decomposition,
    zero_tail,
)

EX_SPEC = {
    "U": {"factors": [2]},
    "S": {"factors": [2, 2]},
    "Y": {"factors": [2, 2]},
    "nu": {"gen_images": [[0, 1], [0, 1], [1, 0]]},
    "omega": {"gen_images": [[1, 0], [0, 0], [0, 1]]},
}


def test_criterion_01_extension_decomposition_of_the_binary_cube():
    started = time.perf_counter()
    g = make_group([2, 2, 2])
    n = subgroup_generated(g, [(1, 0, 0)])
    dec = decompose(g, n)
    assert dec.u_part.factors == (2,)
    assert dec.s_part.factors == (2, 2)
    assert is_isomorphic(dec.u_part, make_group([2]))
    assert is_isomorphic(dec.s_part, make_group([2, 2]))
    assert verify_decomposition(dec)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: cube decomposition exact ({elapsed:.3f}s)")


def test_criterion_02_prime_by_cyclic_classification():
    started = time.perf_counter()
    checked = 0
    for p in (2, 3, 5):
        for m in range(1, 10):
            cyclic = make_group([m]) if m > 1 else make_group([])
            for g in abelian_groups_of_order(p * m):
                for n in prime_order_subgroups(g, p):
                    q_group, _ = quotient(g, n)
                    if invariant_factors(q_group) != invariant_factors(cyclic):
                        continue
                    kind = classify_prime_by_cyclic(decompose(g, n))
                    assert kind in (ExtensionKind.DIRECT_PRODUCT, ExtensionKind.CYCLIC)
                    direct = make_group([p] + ([m] if m > 1 else []))
                    if kind is ExtensionKind.DIRECT_PRODUCT:
                        assert is_isomorphic(g, direct)
                    else:
                        assert is_isomorphic(g, make_group([p * m]))
                    checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 50
    assert elapsed < 5.0
    print(f"PASS criterion 2: {checked} classifications agree ({elapsed:.3f}s)")


def test_criterion_03_reference_encoder_run(systematic_encoder):
    started = time.perf_counter()
    enc = systematic_encoder
    word = [(0,), (1,), (1,), (1,), (0,), (1,), (0,)]
    states, outputs = encode_forward(enc, (0, 0), word)
    assert states == [(0, 0), (0, 1), (1, 1), (1, 0), (0, 1), (1, 1), (1, 1)]

    # formula-derived output oracle, evaluated independently
    s1 = s2 = 0
    expected_outputs = []
    for (u,) in word:
        expected_outputs.append((u, s2))
        s1, s2 = s2, (u + s1) % 2
    assert outputs == expected_outputs

    assert zero_tail(enc, (1, 1), max_len=8) == [(1,), (1,)]
    verdict = decide_controllability(enc)
    assert verdict.controllable
    assert verdict.index == 2
    assert verdict.chain.sizes() == (1, 2, 4)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 3: reference run reproduced ({elapsed:.3f}s)")


def test_criterion_04_one_step_kernel_counts(family_p23):
    # The kernel of the next-state map inside the ambient group always has
    # exactly p elements (it mirrors the kernel of the state projection).
    # The one-step forward level and the one-step past set always have equal
    # size, which is p exactly when distinct inputs at the identity state
    # stay distinct; encoders whose inputs collapse there (e.g. every
    # encoder over a cyclic ambient group of order p*|S| with p dividing
    # |S|) have both sets trivial instead.
    degenerate = 0
    for p, _, enc in family_p23:
        e_s = enc.state_group.identity()
        ambient_kernel = sum(
            1 for g in enc.ambient.elements() if enc.next_state(g) == e_s
        )
        assert ambient_kernel == p
        projection_kernel = enc.ambient.order // enc.state_group.order
        assert projection_kernel == p
        kernel = past_kernel(enc)
        one_step = forward_chain(enc).level(1)
        assert kernel.order == one_step.order
        faithful = (
            sum(
                1
                for u in enc.input_group.elements()
                if enc.next_state(enc.decomposition.u_to_n[u]) == e_s
            )
            == 1
        )
        if faithful:
            assert kernel.order == one_step.order == p
        else:
            assert kernel.order == one_step.order == 1
            degenerate += 1
    print(
        f"PASS criterion 4: kernel counts equal p on all {len(family_p23)} encoders, "
        f"one-step sets share size everywhere ({degenerate} input-degenerate)"
    )


def test_criterion_05_chain_structure(family_p23):
    def is_p_power(n, p):
        while n % p == 0:
            n //= p
        return n == 1

    for p, _, enc in family_p23:
        chain = forward_chain(enc)
        for i, level in enumerate(chain.levels):
            assert level.is_closed()
            assert is_p_power(level.order, p)
            if i:
                assert set(chain.levels[i - 1].elements) <= set(level.elements)
        # permanence: one more application repeats the last level
        again = {
            enc.next_state_pair(u, s)
            for u in enc.input_group.elements()
            for s in chain.levels[-1].elements
        }
        assert again == set(chain.levels[-1].elements)
        verdict = decide_controllability(enc)
        if verdict.controllable:
            for i in range(verdict.index + 1):
                assert chain.levels[i].order == p ** i
    print(f"PASS criterion 5: chain structure holds on all {len(family_p23)} encoders")


def test_criterion_06_reachability_oracle_equivalence(family_p23):
    started = time.perf_counter()
    for p, state_group, enc in family_p23:
        s_elements = list(enc.state_group.elements())
        inputs = list(enc.input_group.elements())
        chain = forward_chain(enc)
        verdict = decide_controllability(enc)
        full = set(s_elements)
        reach = {s: {s} for s in s_elements}
        all_pairs_windows = []
        for length in range(1, enc.state_group.order + 1):
            reach = {
                s: {enc.next_state_pair(u, r) for r in reach[s] for u in inputs}
                for s in s_elements
            }
            level = set(chain.level(length).elements)
            for s in s_elements:
                anchor = min(reach[s])
                assert reach[s] == {enc.state_group.add(anchor, x) for x in level}
            if all(reach[s] == full for s in s_elements):
                all_pairs_windows.append(length)
        if verdict.controllable and verdict.index >= 1:
            assert all_pairs_windows and min(all_pairs_windows) == verdict.index
        elif verdict.controllable:
            assert full == {enc.state_group.identity()}
        else:
            assert not all_pairs_windows
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 6: oracle equivalence on {len(family_p23)} encoders "
        f"({elapsed:.1f}s)"
    )


def test_criterion_07_long_cyclic_state_groups_not_controllable(family_p23):
    checked = 0
    for p, state_group, enc in family_p23:
        factors = invariant_factors(state_group)
        if len(factors) <= 1 and state_group.order > p:
            assert not decide_controllability(enc).controllable
            checked += 1
    assert checked > 0
    print(f"PASS criterion 7: all {checked} long-cyclic-state encoders non-controllable")


def test_criterion_08_elementary_state_groups_only(family_p23):
    started = time.perf_counter()
    report = sweep_theorems([2, 3], 9)
    assert report.violations == 0
    controllable_s = {
        (row["p"], tuple(row["state_factors"]))
        for row in report.rows
        if row["controllable_count"] > 0
    }
    for p, factors in controllable_s:
        assert all(d == p for d in factors)
    for p in (2, 3):
        assert (p, (p,)) in controllable_s
        assert (p, (p, p)) in controllable_s
        # the two-register shift construction generalizes and is found
        u = make_group([p])
        s = make_group([p, p])
        shift = make_encoder(
            u,
            s,
            make_group([p, p]),
            [[0, 1], [0, 1], [1, 0]],
            [[1, 0], [0, 0], [0, 1]],
        )
        verdict = decide_controllability(shift)
        assert verdict.controllable and verdict.index == 2
    for p, _, enc in family_p23:
        verdict = decide_controllability(enc)
        if verdict.controllable:
            assert all(d == p for d in invariant_factors(enc.state_group))
    # the exact count: over the ambient Z_p^(j+1) with S = Z_p^j the controllable
    # encoders are the p^j * |GL_j(F_p)| reachable pairs, each of index j, and
    # no other instance has any
    counted = {}
    for row in report.rows:
        p, j = row["p"], len(row["state_factors"])
        if row["ambient_factors"] == [p] * (j + 1) and row["state_factors"] == [p] * j:
            gl_order = math.prod(p**j - p**i for i in range(j))
            assert row["controllable_count"] == p**j * gl_order
            assert row["min_index"] == j
            counted[(p, j)] = row["controllable_count"]
        else:
            assert row["controllable_count"] == 0
    assert counted == {
        (2, 0): 1, (2, 1): 2, (2, 2): 24, (2, 3): 1344, (3, 0): 1, (3, 1): 6, (3, 2): 432
    }
    for witness in report.controllable_encoders:
        assert witness["index"] == len(witness["state_factors"])
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"PASS criterion 8: controllable state groups elementary across "
        f"{report.totals['encoders']} encoders ({elapsed:.1f}s)"
    )


def _timeline(enc, start, word):
    """Zero-tailed codeword window plus its state at every time."""
    states, outputs = encode_forward(enc, enc.state_group.identity(), word)
    final = states[-1] if states else enc.state_group.identity()
    tail = zero_tail(enc, final, max_len=enc.state_group.order + 1)
    states, outputs = encode_forward(enc, enc.state_group.identity(), word + tail)
    window = Window(enc.output_group, start, tuple(outputs))

    def state_at(t):
        if t < start - 1 or t >= start + len(states):
            return enc.state_group.identity()
        if t == start - 1:
            return enc.state_group.identity()
        return states[t - start]

    return window, state_at


def test_criterion_09_two_step_splices(systematic_encoder):
    enc = systematic_encoder
    rng = random.Random(0xC0DE)
    inputs = list(enc.input_group.elements())
    failures = 0
    for _ in range(100):
        w1 = [rng.choice(inputs) for _ in range(rng.randint(0, 6))]
        w2 = [rng.choice(inputs) for _ in range(rng.randint(0, 6))]
        start1 = rng.randint(-2, 2)
        start2 = rng.randint(-2, 6)
        y1, state1 = _timeline(enc, start1, w1)
        y2, state2 = _timeline(enc, start2, w2)
        k = rng.randint(-3, 12)
        s = state1(k - 1)
        r = state2(k + 1)
        bridge = next(
            (
                (u1, u2)
                for u1 in inputs
                for u2 in inputs
                if enc.next_state_pair(u2, enc.next_state_pair(u1, s)) == r
            ),
            None,
        )
        if bridge is None:
            failures += 1
            continue
        mid = enc.next_state_pair(bridge[0], s)
        bridge_outputs = (
            enc.output_pair(bridge[0], s),
            enc.output_pair(bridge[1], mid),
        )
        y3 = concatenate(
            concatenate(y1, Window(enc.output_group, k, bridge_outputs), k), y2, k + 2
        )
        spliced = concatenate(concatenate(y1, y3, k), y2, k + 2)
        if not (spliced.same_sequence(y3) and is_codeword(enc, spliced)):
            failures += 1
    assert failures == 0
    print("PASS criterion 9: 100 random two-step splices all accepted")


def test_criterion_10_byte_deterministic_cli(tmp_path):
    spec = tmp_path / "encoder.json"
    spec.write_text(json.dumps(EX_SPEC))

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "groupcode", *args],
            capture_output=True,
            check=False,
        )

    analyze_runs = [run(["analyze", str(spec)]) for _ in range(2)]
    assert analyze_runs[0].returncode == 0
    assert analyze_runs[0].stdout == analyze_runs[1].stdout

    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = run(["sweep", "--p", "2", "--max-s-order", "5", "--out", str(out)])
        assert result.returncode == 0
        outs.append((result.stdout, out.read_bytes()))
    assert outs[0] == outs[1]
    print("PASS criterion 10: analyze and sweep outputs byte-identical")
