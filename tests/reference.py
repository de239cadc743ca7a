"""Reference helpers that tests compare the package against."""

from fractions import Fraction


def node_neighbors(inst, u: int) -> list[tuple[int, Fraction]]:
    """Neighbours of graph node ``u`` (left i is i, right j is n + j) with
    their ``Fraction`` edge weights, read from ``inst.weights``."""
    n = inst.n
    if u < n:
        return [(n + j, w) for j, w in enumerate(inst.weights[u]) if w is not None]
    j = u - n
    return [(i, inst.weights[i][j]) for i in range(n) if inst.weights[i][j] is not None]
