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


def encodes(snap, reference) -> bool:
    """True iff every node of the belief snapshot ``snap`` is resolved and
    believes its partner in the matching ``reference``."""
    left = reference.partner_of_left()
    right = reference.partner_of_right()
    if len(left) != len(snap.left_belief):
        return False
    return all(snap.left_belief[i] == left[i] for i in left) and all(
        snap.right_belief[j] == right[j] for j in right
    )
