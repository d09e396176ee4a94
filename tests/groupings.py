"""The groupings the tests quantize. `quantize` takes each row of a matrix
as one group, so a caller groups a tensor by the rows it passes."""

import numpy as np


def as_rows(x: np.ndarray, granularity: str, head_dim: int | None = None):
    """`x` with each group of `granularity` as one row, the form in which a
    caller hands groups to `quantize`: the whole tensor as one row, its rows
    (tokens), its columns (channels) as a transposed view, or its blocks of
    `head_dim` columns (heads)."""
    rows, cols = x.shape
    if granularity == "per-tensor":
        return x.reshape(1, rows * cols)
    if granularity == "per-token":
        return x
    if granularity == "per-channel":
        return x.T
    return x.reshape(rows, -1, head_dim).swapaxes(0, 1).reshape(-1, rows * head_dim)
