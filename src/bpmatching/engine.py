"""Synchronous max-sum message passing with exact scaled-integer arithmetic.

Update rule (iteration counter starts at t=1, all messages zero at t=0):

    m^t[alpha_i -> beta_j] = w_ij - max_{l != j} m^{t-1}[beta_l -> alpha_i]
    m^t[beta_j -> alpha_i] = w_ij - max_{k != i} m^{t-1}[alpha_k -> beta_j]

The maximum over an empty set (degree-1 nodes) is 0.  The belief of a node
at iteration t is the unique arg-max over its incoming messages at t, or
Unresolved (None) when the arg-max ties.  This calibration makes the belief
at iteration t coincide with the root edge of a maximum weight T-matching
in the depth-t computation tree (see the trees module, which is the
independent oracle for this equivalence).

Messages are stored as integers relative to the instance's common
denominator, so every comparison is exact.  Optional normalization
subtracts, per direction, one uniform constant (the maximum message of
that direction) each round.  A shift that is uniform across a whole side
propagates as a uniform shift and never changes any arg-max, so the
normalized and unnormalized belief sequences are identical; a shift that
varies per node (e.g. zeroing each node's own incoming maximum) does not
have this property and would corrupt the exclusion maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .core import HorizonExhausted, Instance, Matching, ParameterError


@dataclass
class MessageState:
    """Directed message tables at one iteration.

    ``to_right[i][j]`` is the message from alpha_i to beta_j and
    ``to_left[i][j]`` the message from beta_j to alpha_i, both stored as
    integer numerators over ``scale``.  Absent edges hold ``None``.
    """

    to_right: list[list[Optional[int]]]
    to_left: list[list[Optional[int]]]
    iteration: int
    scale: int

    def message_to_right(self, i: int, j: int) -> Fraction:
        v = self.to_right[i][j]
        if v is None:
            raise ParameterError(f"edge ({i},{j}) is absent")
        return Fraction(v, self.scale)

    def message_to_left(self, i: int, j: int) -> Fraction:
        v = self.to_left[i][j]
        if v is None:
            raise ParameterError(f"edge ({i},{j}) is absent")
        return Fraction(v, self.scale)


@dataclass(frozen=True)
class BeliefSnapshot:
    """Per-node believed partner (or None for Unresolved) at an iteration."""

    left_belief: tuple[Optional[int], ...]
    right_belief: tuple[Optional[int], ...]
    iteration: int

    def encodes(self, reference: Matching) -> bool:
        """True iff every node is resolved and mutual per the reference."""
        left = reference.partner_of_left()
        right = reference.partner_of_right()
        if len(left) != len(self.left_belief):
            return False
        return all(
            self.left_belief[i] == left[i] for i in left
        ) and all(self.right_belief[j] == right[j] for j in right)


@dataclass(frozen=True)
class PartialBpMatching:
    """Mutually-believed edges plus the nodes they leave uncovered."""

    pairs: Matching
    uncovered_left: tuple[int, ...]
    uncovered_right: tuple[int, ...]


def init_messages(inst: Instance) -> MessageState:
    """All-zero message tables at iteration 0."""
    zero = [
        [None if w is None else 0 for w in row] for row in inst.weights
    ]
    return MessageState(
        to_right=[list(row) for row in zero],
        to_left=[list(row) for row in zero],
        iteration=0,
        scale=inst.scale,
    )


def _top2_excluding(
    values: list[Optional[int]],
) -> tuple[int, Optional[int], Optional[int]]:
    """Index of the best present entry, the best value and the second-best value.

    Callers exclude one index by substituting the second-best when the
    excluded index attains the maximum.
    """
    best = second = None
    best_idx = -1
    for idx, v in enumerate(values):
        if v is None:
            continue
        if best is None or v > best:
            second = best
            best = v
            best_idx = idx
        elif second is None or v > second:
            second = v
    return best_idx, best, second


def step(inst: Instance, state: MessageState, normalize: bool = True) -> MessageState:
    """One synchronous update round; returns the state at iteration t+1."""
    n = inst.n
    w, scale = inst.scaled_weights(), inst.scale
    if scale != state.scale:
        raise ParameterError("message state scale does not match the instance")
    new_right: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    new_left: list[list[Optional[int]]] = [[None] * n for _ in range(n)]

    # to_right'[i][j] = w_ij - max_{l != j} to_left[i][l]
    for i in range(n):
        row = state.to_left[i]
        best_idx, best, second = _top2_excluding(row)
        out = new_right[i]
        wrow = w[i]
        for j in range(n):
            if wrow[j] is None:
                continue
            if j == best_idx:
                excl = second
            else:
                excl = best
            out[j] = wrow[j] - (excl if excl is not None else 0)

    # to_left'[i][j] = w_ij - max_{k != i} to_right[k][j]
    for j in range(n):
        col = [state.to_right[k][j] for k in range(n)]
        best_idx, best, second = _top2_excluding(col)
        for i in range(n):
            if w[i][j] is None:
                continue
            if i == best_idx:
                excl = second
            else:
                excl = best
            new_left[i][j] = w[i][j] - (excl if excl is not None else 0)

    if normalize:
        # One uniform constant per direction keeps magnitudes bounded
        # without touching any within-node comparison.
        for table in (new_right, new_left):
            z = max(v for row in table for v in row if v is not None)
            for row in table:
                for j in range(n):
                    if row[j] is not None:
                        row[j] -= z

    return MessageState(new_right, new_left, state.iteration + 1, scale)


def _argmax_unique(values: list[Optional[int]]) -> Optional[int]:
    best = None
    best_idx: Optional[int] = None
    ties = False
    for idx, v in enumerate(values):
        if v is None:
            continue
        if best is None or v > best:
            best = v
            best_idx = idx
            ties = False
        elif v == best:
            ties = True
    return None if ties else best_idx


def beliefs(inst: Instance, state: MessageState) -> BeliefSnapshot:
    """Arg-max of incoming messages per node; None when the arg-max ties."""
    n = inst.n
    left = tuple(_argmax_unique(state.to_left[i]) for i in range(n))
    right = tuple(
        _argmax_unique([state.to_right[i][j] for i in range(n)]) for j in range(n)
    )
    return BeliefSnapshot(left, right, state.iteration)


def partial_bp_matching(b: BeliefSnapshot) -> PartialBpMatching:
    """Edges both endpoints believe in, plus uncovered node lists."""
    n = len(b.left_belief)
    pairs = [
        (i, j)
        for i, j in enumerate(b.left_belief)
        if j is not None and b.right_belief[j] == i
    ]
    covered_left = {i for i, _ in pairs}
    covered_right = {j for _, j in pairs}
    return PartialBpMatching(
        pairs=Matching.of(pairs),
        uncovered_left=tuple(i for i in range(n) if i not in covered_left),
        uncovered_right=tuple(j for j in range(n) if j not in covered_right),
    )


def run_to_horizon(
    inst: Instance, horizon: int, normalize: bool = True
) -> Iterator[BeliefSnapshot]:
    """Belief snapshots for t = 1..horizon (streaming)."""
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    state = init_messages(inst)
    for _ in range(horizon):
        state = step(inst, state, normalize=normalize)
        yield beliefs(inst, state)


def convergence_time(inst: Instance, reference: Matching, horizon: int) -> int:
    """Smallest T with beliefs(t) == reference for every T <= t <= horizon."""
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    last_bad = 0
    any_good = False
    for snap in run_to_horizon(inst, horizon):
        if snap.encodes(reference):
            any_good = True
        else:
            last_bad = snap.iteration
    if not any_good or last_bad == horizon:
        raise HorizonExhausted(
            f"beliefs do not settle on the reference within horizon={horizon}"
        )
    return last_bad + 1


def certified_horizon(inst: Instance) -> int:
    """ceil(2n*w_max/eps) from generator metadata (Theorem-certified bound)."""
    meta = inst.meta
    if not meta or "w_max" not in meta or "eps" not in meta:
        raise ParameterError("instance lacks generator metadata for a certified horizon")
    w_max = Fraction(meta["w_max"])
    eps = Fraction(meta["eps"])
    bound = Fraction(2 * inst.n) * w_max / eps
    return -(-bound.numerator // bound.denominator)
