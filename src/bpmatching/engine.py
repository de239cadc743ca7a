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
denominator, so every comparison is exact.  They live in per-node incoming
lists aligned with ``Instance.adjacency()``, so one step costs O(|E|): each
sender's top-2 incoming message (slot k, best, second) is found once per
state, and it sends w - best on every edge but slot k, which gets
w - second.  Optional normalization subtracts, per direction, one uniform
constant (the maximum message of that direction) each round; it is found
from the senders' top-2 before the update and folded into it.  A shift that
is uniform across a whole side propagates as a uniform shift and never
changes any arg-max, so the normalized and unnormalized belief sequences
are identical.  That needs the empty maximum of a degree-1 sender to stay
the true 0, so the state keeps each direction's accumulated shift; a shift
that varies per node (e.g. zeroing each node's own incoming maximum) does
not have this property and would corrupt the exclusion maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
from typing import Iterator, Optional

from .core import HorizonExhausted, Instance, Matching, ParameterError, Side


#: Per node of one side: slot of the first maximum incoming message (-1
#: with none), the maximum (0 with none) and the largest other incoming
#: message (None with none; a tied maximum repeats).
Tops = tuple[list[int], list[int], list[Optional[int]]]


def _tops(rows: list[list[int]]) -> Tops:
    ks: list[int] = []
    bests: list[int] = []
    seconds: list[Optional[int]] = []
    for row in rows:
        k, best, second = -1, 0, None
        if row:
            best = max(row)
            k = row.index(best)
            if len(row) > 1:
                row[k] = row[k - 1]  # another slot's value: max is now the runner-up
                second = max(row)
                row[k] = best
        ks.append(k)
        bests.append(best)
        seconds.append(second)
    return ks, bests, seconds


@dataclass
class MessageState:
    """Incoming message lists at one iteration.

    ``to_left[i][s]`` is the message into alpha_i from beta_j, j =
    ``sides[0].nbrs[i][s]``; ``to_right[j][s]`` is the message into beta_j
    from alpha_i, i = ``sides[1].nbrs[j][s]``.  Both are integer numerators
    over ``scale``, less the uniform shift ``offset_right`` / ``offset_left``
    that normalization has left on that direction.  ``left_top`` and
    ``right_top`` hold the ``Tops`` of the incoming messages of each side.
    """

    to_right: list[list[int]]
    to_left: list[list[int]]
    iteration: int
    scale: int
    sides: tuple[Side, Side] = field(repr=False, compare=False)
    offset_right: int = 0
    offset_left: int = 0
    left_top: Tops = field(init=False, repr=False, compare=False)
    right_top: Tops = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.left_top = _tops(self.to_left)
        self.right_top = _tops(self.to_right)

    def _slots(self, i: int, j: int) -> tuple[int, int]:
        """Positions of edge (i, j) in alpha_i's and in beta_j's lists."""
        nbrs = self.sides[0].nbrs[i]
        if j not in nbrs:
            raise ParameterError(f"edge ({i},{j}) is absent")
        s = nbrs.index(j)
        return s, self.sides[0].slot[i][s]

    def message_to_right(self, i: int, j: int) -> Fraction:
        return Fraction(self.to_right[j][self._slots(i, j)[1]], self.scale)

    def message_to_left(self, i: int, j: int) -> Fraction:
        return Fraction(self.to_left[i][self._slots(i, j)[0]], self.scale)


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
    """All-zero message lists at iteration 0."""
    left, right = sides = inst.adjacency()
    return MessageState(
        to_right=[[0] * len(nb) for nb in right.nbrs],
        to_left=[[0] * len(nb) for nb in left.nbrs],
        iteration=0,
        scale=inst.scale,
        sides=sides,
    )


def _send(
    snd: Side, rcv: Side, tops: Tops, offset: int, normalize: bool
) -> tuple[list[list[int]], int]:
    """Messages into every node of ``rcv`` from its neighbours in ``snd``,
    and the offset they are stored less (see ``MessageState``).

    Sender u sends w - best_u on every edge but its argmax slot k, which
    gets w - second_u; a missing second (an empty maximum) is a true 0,
    which is -``offset`` in the stored values.  With ``normalize`` the
    largest message z of the direction is found first and subtracted in the
    same pass.  u's largest message is w_k alone, or with another edge
    max(w_k - second_u, heavy_u - best_u): w_k - best_u <= w_k - second_u.
    """
    ks, bests, seconds = tops
    z = 0
    if normalize:
        sent = []
        for k, best, second, w, heavy in zip(ks, bests, seconds, snd.w, snd.heavy):
            if k >= 0:
                m = w[k] + offset if second is None else w[k] - second
                sent.append(m if heavy is None or heavy - best < m else heavy - best)
        z = max(sent)
    shift = [best + z for best in bests].__getitem__
    out = [list(map(sub, w, map(shift, nb))) for w, nb in zip(rcv.w, rcv.nbrs)]
    for k, second, w, nb, slot in zip(ks, seconds, snd.w, snd.nbrs, snd.slot):
        if k >= 0:
            out[nb[k]][slot[k]] = (w[k] + offset if second is None else w[k] - second) - z
    return out, z - offset


def step(inst: Instance, state: MessageState, normalize: bool = True) -> MessageState:
    """One synchronous update round; returns the state at iteration t+1."""
    if inst.scale != state.scale:
        raise ParameterError("message state scale does not match the instance")
    left, right = sides = inst.adjacency()
    to_right, off_right = _send(left, right, state.left_top, state.offset_left, normalize)
    to_left, off_left = _send(right, left, state.right_top, state.offset_right, normalize)
    return MessageState(
        to_right, to_left, state.iteration + 1, state.scale, sides, off_right, off_left
    )


def _side_beliefs(tops: Tops, nbrs: list[list[int]]) -> tuple[Optional[int], ...]:
    return tuple(
        None if k < 0 or second == best else nb[k]
        for k, best, second, nb in zip(*tops, nbrs)
    )


def beliefs(inst: Instance, state: MessageState) -> BeliefSnapshot:
    """Arg-max of incoming messages per node; None when the arg-max ties."""
    left, right = inst.adjacency()
    return BeliefSnapshot(
        _side_beliefs(state.left_top, left.nbrs),
        _side_beliefs(state.right_top, right.nbrs),
        state.iteration,
    )


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
    left, right = reference.partner_of_left(), reference.partner_of_right()
    want = (tuple(map(left.get, range(inst.n))), tuple(map(right.get, range(inst.n))))
    # A partial reference leaves None slots: no snapshot encodes it.
    want = None if None in want[0] + want[1] else want
    last_bad = 0
    any_good = False
    for snap in run_to_horizon(inst, horizon):
        if (snap.left_belief, snap.right_belief) == want:
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
