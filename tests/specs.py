"""Encoder wire specs shared by the test modules."""

from __future__ import annotations


def observed_shift_register(p: int, m: int) -> dict:
    """``(s1..sm) -> (s2..sm, u + s1)`` over Z_p^m with output ``s1`` alone."""
    unit = [[int(i == j) for j in range(m)] for i in range(m)]
    return {
        "U": {"factors": [p]},
        "S": {"factors": [p] * m},
        "Y": {"factors": [p]},
        "nu": {"gen_images": [unit[m - 1]] + [unit[(i - 1) % m] for i in range(m)]},
        "omega": {"gen_images": [[0], [1]] + [[0]] * (m - 1)},
    }


# the shapes of the stream-frames benchmark workload, as (p, m)
STREAM_SHAPES = [(2, 4), (2, 5), (2, 6), (3, 3), (5, 2)]

# s -> u + s over Z2 x Z3 with output (u, s): input symbols of rank 2
RANK2_ACCUMULATOR = {
    "U": {"factors": [2, 3]},
    "S": {"factors": [2, 3]},
    "Y": {"factors": [2, 3, 2, 3]},
    "nu": {"gen_images": [[1, 0], [0, 1], [1, 0], [0, 1]]},
    "omega": {"gen_images": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
}

# trivial input group: s -> 2s over Z3 with output s, so no state reaches 0
INPUTLESS = {
    "U": {"factors": []},
    "S": {"factors": [3]},
    "Y": {"factors": [3]},
    "nu": {"gen_images": [[2]]},
    "omega": {"gen_images": [[1]]},
}

# trivial state group: the output is the input
STATELESS = {
    "U": {"factors": [2]},
    "S": {"factors": []},
    "Y": {"factors": [2]},
    "nu": {"gen_images": [[]]},
    "omega": {"gen_images": [[1]]},
}

# trivial output group: the state follows the input and every branch emits ()
SILENT = {
    "U": {"factors": [2]},
    "S": {"factors": [2]},
    "Y": {"factors": []},
    "nu": {"gen_images": [[1], [0]]},
    "omega": {"gen_images": [[], []]},
}

# Y = Z_{10^12}: the state follows the input and input 1 emits 5 * 10^11, so
# no table over the output group may be built
HUGE_OUTPUT = {
    "U": {"factors": [2]},
    "S": {"factors": [2]},
    "Y": {"factors": [10**12]},
    "nu": {"gen_images": [[1], [0]]},
    "omega": {"gen_images": [[5 * 10**11], [0]]},
}
