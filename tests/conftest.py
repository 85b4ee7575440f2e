from __future__ import annotations

import os
from pathlib import Path

import pytest

from groupcode import (
    abelian_groups_of_order,
    enumerate_encoders,
    enumerate_extensions,
    make_encoder,
    make_group,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Child processes running ``python -m groupcode`` import the tested source tree.

    The ``pythonpath`` setting reaches only this process, so a run from a
    clean checkout without an install needs it in the environment as well.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def family_p23():
    """Every enumerated encoder for p in {2, 3} and |S| <= 9, as ``(p, S, encoder)``."""
    family = []
    for p in (2, 3):
        for order in range(1, 10):
            for state_group in abelian_groups_of_order(order):
                for instance in enumerate_extensions(p, state_group):
                    for enc in enumerate_encoders(instance):
                        family.append((p, state_group, enc))
    return family


@pytest.fixture(scope="session")
def systematic_encoder():
    """Rate-1/2 systematic binary encoder with a two-register state group.

    Next state (s1, s2) -> (s2, u + s1); output (u, s2).
    """
    u = make_group([2])
    s = make_group([2, 2])
    y = make_group([2, 2])
    nu = [[0, 1], [0, 1], [1, 0]]
    omega = [[1, 0], [0, 0], [0, 1]]
    return make_encoder(u, s, y, nu, omega)


@pytest.fixture(scope="session")
def frozen_state_encoder():
    """Encoder whose next state ignores the input entirely: (u, s) -> s.

    The analysis-equivalent wire form of the order-8 cyclic instance with a
    four-state cyclic state group; its reachability chain is stuck at the
    identity.
    """
    u = make_group([2])
    s = make_group([4])
    y = make_group([2, 4])
    nu = [[0], [1]]
    omega = [[1, 0], [0, 1]]
    return make_encoder(u, s, y, nu, omega)
