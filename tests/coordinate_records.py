"""Byte records of the quotient and decomposition coordinates of every subgroup pair of order <= 32.

Stdlib only, so it runs where no test tool is installed.  Each record is the
``repr`` of one (G, H) pair's coordinates, UTF-8 encoded, with no separator;
``tests/test_golden.py`` pins the SHA-256 of each stream.  Write one stream
to stdout:

    PYTHONPATH=src python tests/coordinate_records.py quotients | sha256sum
    PYTHONPATH=src python tests/coordinate_records.py decompositions | sha256sum
"""

from __future__ import annotations

import sys
from typing import Iterator

from groupcode.extension import decompose
from groupcode.groups import abelian_groups_of_order, all_subgroups, quotient


def subgroup_pairs() -> Iterator:
    """Every (G, H): G up to isomorphism, of order 1..32, and H each of its subgroups."""
    for order in range(1, 33):
        for g in abelian_groups_of_order(order):
            for h in all_subgroups(g):
                yield g, h


def quotient_records() -> Iterator[bytes]:
    """G/H's invariant factors and the projection, sorted: the coordinates recognition picks."""
    for g, h in subgroup_pairs():
        q, projection = quotient(g, h)
        record = (g.factors, h.elements, q.factors, sorted(projection.items()))
        yield repr(record).encode("utf-8")


def decomposition_records() -> Iterator[bytes]:
    """U's and S's factors and the pair column of the decomposition of G over H."""
    for g, h in subgroup_pairs():
        dec = decompose(g, h)
        record = (g.factors, h.elements, dec.u_part.factors, dec.s_part.factors, list(dec.column))
        yield repr(record).encode("utf-8")


RECORDS = {"quotients": quotient_records, "decompositions": decomposition_records}


if __name__ == "__main__":
    for record in RECORDS[sys.argv[1]]():
        sys.stdout.buffer.write(record)
