import math

import numpy as np
import pytest

from subquant.synth import _plane_rotations


def givens_product(d, angle):
    """The rotations by `angle` in planes (0, 1), (2, 3), ..., each a dense
    d x d matrix, multiplied one by one."""
    g = np.eye(d)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, d - 1, 2):
        r = np.eye(d)
        r[i, i] = r[i + 1, i + 1] = c
        r[i, i + 1], r[i + 1, i] = -s, s
        g = g @ r
    return g


@pytest.mark.parametrize("angle", [0.0, 0.25, -2.0, math.pi])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 65])
def test_plane_rotations_are_the_product_of_givens_rotations(d, angle):
    assert _plane_rotations(d, angle).tobytes() == givens_product(d, angle).tobytes()
