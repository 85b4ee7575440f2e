"""Property tests: group and hom laws, the decomposition round trip, and
zero-tailed encodings are codewords.

Hypothesis draws groups with up to three cyclic factors, elements, homs and
subgroups.  ``derandomize`` fixes the examples, so every run checks the same
cases.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from groupcode import (
    GroupHom,
    Window,
    decompose,
    encode_forward,
    hom_table,
    is_codeword,
    make_group,
    subgroup_generated,
    zero_tail,
)

LAWS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

groups = st.lists(st.integers(2, 6), max_size=3).map(make_group)
small_groups = st.lists(st.integers(2, 8), max_size=3).map(make_group).filter(
    lambda g: g.order <= 64
)


def elements(g):
    return st.tuples(*(st.integers(0, d - 1) for d in g.factors))


def homs(src, dst):
    """Generator images whose orders divide the orders of the source generators."""
    images = [
        st.sampled_from([y for y in dst.elements() if d % dst.element_order(y) == 0])
        for d in src.factors
    ]
    return st.tuples(*images).map(lambda imgs: GroupHom(src, dst, imgs))


@LAWS
@given(st.data())
def test_group_laws(data):
    g = data.draw(groups)
    a, b, c = (data.draw(elements(g)) for _ in range(3))
    e = g.identity()
    assert g.contains(g.add(a, b))
    assert g.add(a, b) == g.add(b, a)
    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
    assert g.add(a, e) == a
    assert g.add(a, g.neg(a)) == e
    assert g.scalar_mul(g.element_order(a), a) == e


@LAWS
@given(st.data())
def test_hom_table_is_additive(data):
    src, dst = data.draw(groups), data.draw(groups)
    h = data.draw(homs(src, dst))
    table = hom_table(h)
    assert len(table) == src.order
    for _ in range(4):
        a, b = data.draw(elements(src)), data.draw(elements(src))
        image = table[src.index_of(src.add(a, b))]
        assert image == dst.add(table[src.index_of(a)], table[src.index_of(b)])
        assert table[src.index_of(a)] == h(a)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.data())
def test_decompose_pair_map_round_trip(data):
    g = data.draw(small_groups)
    gens = data.draw(st.lists(elements(g), max_size=2))
    dec = decompose(g, subgroup_generated(g, gens))
    assert dec.u_part.order * dec.s_part.order == g.order
    images = set()
    for u, s in dec.pairs():
        a = dec.pair_to_element(u, s)
        assert dec.element_to_pair(a) == (u, s)
        images.add(a)
    assert images == set(g.elements())


@LAWS
@given(st.data())
def test_zero_tailed_encoding_is_a_codeword(systematic_encoder, data):
    enc = systematic_encoder
    word = data.draw(st.lists(elements(enc.input_group), min_size=1, max_size=12))
    e = enc.state_group.identity()
    states, outputs = encode_forward(enc, e, word)
    tail = zero_tail(enc, states[-1], max_len=8)
    assert tail is not None
    tail_states, tail_outputs = encode_forward(enc, states[-1], tail)
    assert (states + tail_states)[-1] == e
    assert is_codeword(enc, Window(enc.output_group, 0, tuple(outputs + tail_outputs)))
