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

Messages are the true values x(t), stored as integer numerators over the
instance's common denominator, so every comparison is exact.  They grow
at most linearly, |x(t)| <= t * max|w| (in scaled units), and Python ints
are unbounded.  They live in per-node incoming lists aligned with
``Instance.adjacency()``, so one step costs O(|E|): each sender's top-2
incoming message (slot k, best, second) is found once per state, and it
sends w - best on every edge but slot k, which gets w - second.

``convergence_time`` jumps over drift regimes x(t+p) = x(t) + d, which
orbits of this monotone min-max map end in (Cochet-Terrasson, Gaubert and
Gunawardena 1999).  A node's selection, an argmax slot k and a runner-up
slot k2, makes its sends affine: w - x[k], and w - x[k2] on slot k, exact
while x[k] >= every x[v] and x[k2] >= every other x[v], ties included.
Nodes with at most two incoming messages send the same whatever it is.  A
candidate p repeats the wider nodes' argmax slots and the drift of a random
linear fingerprint over two windows.  The proof steps one window from y
with d = y - x(p steps earlier), carrying d through each step's linear
part (y's selections on zero weights), and needs d and y + d back.  Then
x(a + k*p + s) = y_s + k*d_s until a selection comparison a + k*b turns
negative; per offset s the k with beliefs equal to the reference form an
interval.  The run judges those iterations unvisited, jumps to the last
whole window before the event or the horizon, and steps on, holding O(1)
states plus two ints per stepped iteration since the last jump.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, compress
from operator import add, mul, sub
from typing import Iterator, Optional

from .core import HorizonExhausted, Instance, Matching, ParameterError, Side


#: Per node of one side: slot of the first maximum incoming message (-1
#: with none), the maximum (0 with none) and the largest other incoming
#: message (None with none; a tied maximum repeats).
Tops = tuple[list[int], list[int], list[Optional[int]]]

#: Modulus of the regime fingerprints (a Mersenne prime).
_PRIME = 2**61 - 1


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
    from alpha_i, i = ``sides[1].nbrs[j][s]``.  Both are the true messages
    as integer numerators over ``scale``.  ``left_top`` and ``right_top``
    hold the ``Tops`` of the incoming messages of each side.
    """

    to_right: list[list[int]]
    to_left: list[list[int]]
    iteration: int
    scale: int
    sides: tuple[Side, Side] = field(repr=False, compare=False)
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


def _send(snd: Side, rcv: Side, tops: Tops) -> list[list[int]]:
    """Messages into every node of ``rcv`` from its neighbours in ``snd``.

    Sender u sends w - best_u on every edge but its argmax slot k, which
    gets w - second_u; a missing second (an empty maximum) is 0.
    """
    ks, bests, seconds = tops
    out = [list(map(sub, w, map(bests.__getitem__, nb))) for w, nb in zip(rcv.w, rcv.nbrs)]
    for k, second, w, nb, slot in zip(ks, seconds, snd.w, snd.nbrs, snd.slot):
        if k >= 0:
            out[nb[k]][slot[k]] = w[k] if second is None else w[k] - second
    return out


def step(inst: Instance, state: MessageState) -> MessageState:
    """One synchronous update round; returns the state at iteration t+1."""
    if inst.scale != state.scale:
        raise ParameterError("message state scale does not match the instance")
    left, right = sides = inst.adjacency()
    return MessageState(
        _send(left, right, state.left_top), _send(right, left, state.right_top),
        state.iteration + 1, state.scale, sides,
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


def reference_beliefs(
    reference: Matching, n: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (left, right) beliefs of a snapshot that encodes ``reference``,
    or None when it leaves a node uncovered: then no snapshot encodes it."""
    left, right = reference.partner_of_left(), reference.partner_of_right()
    want = (tuple(map(left.get, range(n))), tuple(map(right.get, range(n))))
    return None if None in want[0] + want[1] else want


def run_to_horizon(inst: Instance, horizon: int) -> Iterator[BeliefSnapshot]:
    """Belief snapshots for t = 1..horizon (streaming)."""
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    state = init_messages(inst)
    for _ in range(horizon):
        state = step(inst, state)
        yield beliefs(inst, state)


def _rays(conds, hi: int) -> tuple[int, int]:
    """Bounds lo..hi of the k in 0..hi with a + k*b >= 0 for every (a, b)."""
    lo = 0
    for a, b in conds:
        if b > 0:
            lo = max(lo, -(a // b))
        elif b < 0:
            hi = min(hi, a // -b)
        elif a < 0:
            return 1, 0
    return lo, hi


class _Run:
    """One ``convergence_time`` call: its verdict so far, and the fingerprints
    and selection hashes since the last jump, where regimes are looked for."""

    def __init__(self, inst: Instance, reference: Matching, horizon: int) -> None:
        self.inst, self.horizon = inst, horizon
        left, right = sides = inst.adjacency()
        want = self.want = reference_beliefs(reference, inst.n)
        rows = right.nbrs + left.nbrs  # the rows of to_right + to_left
        try:  # each row's slot of its reference partner, None if never encoded
            self.slots = want and [nb.index(v) for nb, v in zip(rows, want[1] + want[0])]
        except ValueError:  # a non-edge: never encoded
            self.slots = None
        self.zero = [replace(s, w=[[0] * len(w) for w in s.w]) for s in sides]
        self.wide = [len(nb) > 2 for nb in rows]
        rng = random.Random(0)
        self.coeffs = [rng.getrandbits(31) for _ in chain.from_iterable(rows)]
        self.last_bad, self.any_good = 0, False
        self.reset()

    def reset(self) -> None:
        self.fps, self.sels, self.next_scan = array("q"), array("q"), 0

    def see(self, state: MessageState) -> None:
        if state.iteration:
            snap = beliefs(self.inst, state)
            if (snap.left_belief, snap.right_belief) == self.want:
                self.any_good = True
            else:
                self.last_bad = state.iteration
        flat = chain.from_iterable(state.to_right + state.to_left)
        self.fps.append(sum(map(mul, self.coeffs, flat)) % _PRIME)
        ks = state.right_top[0] + state.left_top[0]
        self.sels.append(hash(tuple(compress(ks, self.wide))))

    def advance(self, state: MessageState) -> MessageState:
        state = step(self.inst, state)
        self.see(state)
        return state

    def period(self) -> int:
        """Smallest p whose last two p-step windows repeat the selections and
        the fingerprint drift; 0 if none or no scan is due (amortized O(1))."""
        fps, sels, i = self.fps, self.sels, len(self.fps) - 1
        if i < self.next_scan:
            return 0
        self.next_scan = i + 1 + i // 64
        for p in range(1, i // 2 + 1):
            drift = fps[i] - 2 * fps[i - p] + fps[i - 2 * p]
            if drift % _PRIME == 0 and sels[i - 2 * p : i - p] == sels[i - p : i]:
                return p
        return 0

    def window_step(self, y: MessageState, ds: list[list[int]], kmax: int):
        """At y with drift ds: the drift a step on, the largest k <= kmax keeping
        y's selections at y + k*ds, and the k where its beliefs are the reference's."""
        rows = y.to_right + y.to_left
        ks, bests, seconds = (r + l for r, l in zip(y.right_top, y.left_top))
        k2s = [-1 if c is None else row.index(b, k + 1) if c == b else row.index(c)
               for row, k, b, c in zip(rows, ks, bests, seconds)]
        keeps = []  # x[k] and then x[k2] stay maxima; ties send the same
        for row, dr, k, k2 in zip(rows, ds, ks, k2s):
            if len(row) > 2:
                pairs = [(k, k2)] + [(k2, v) for v in range(len(row)) if v not in (k, k2)]
                keeps += [(row[u] - row[v], dr[u] - dr[v]) for u, v in pairs]
        good = _rays(((row[q] - row[v] - 1, dr[q] - dr[v])
                      for row, dr, q in zip(rows, ds, self.slots)
                      for v in range(len(row)) if v != q), self.horizon)
        # The linear part of the step: y's selections on zero weights.
        best = [dr[k] if k >= 0 else 0 for dr, k in zip(ds, ks)]
        second = [dr[k2] if k2 >= 0 else None for dr, k2 in zip(ds, k2s)]
        n, (zl, zr) = len(y.to_right), self.zero
        d_left = _send(zr, zl, (ks[:n], best[:n], second[:n]))
        d_right = _send(zl, zr, (ks[n:], best[n:], second[n:]))
        return d_right + d_left, _rays(keeps, kmax)[1], good

    def regime(self, state: MessageState, p: int) -> MessageState:
        """Steps two p-step windows; if they prove a regime, judges the beliefs
        of its whole windows and jumps to the last that starts by the horizon."""
        start = state.to_right + state.to_left
        for _ in range(p):
            state = self.advance(state)
        a, y0 = state.iteration, state.to_right + state.to_left
        d = ds = [list(map(sub, u, v)) for u, v in zip(y0, start)]
        kmax, goods = self.horizon, []
        for _ in range(p):
            ds, kmax, good = self.window_step(state, ds, kmax)
            goods.append(good)
            state = self.advance(state)
        k = min(kmax + 1, (self.horizon - a) // p)
        y1 = [list(map(add, u, v)) for u, v in zip(y0, d)]
        if ds != d or state.to_right + state.to_left != y1 or k < 2:
            return state
        for s, (lo, hi) in enumerate(goods):  # at a + j*p + s, j = 1..k-1
            lo, hi = max(lo, 1), min(hi, k - 1)
            self.any_good |= lo <= hi
            bad = k - 1 if lo > hi or hi < k - 1 else lo - 1
            self.last_bad = max(self.last_bad, a + bad * p + s if bad else 0)
        n, rows = self.inst.n, [[u + k * v for u, v in zip(*rr)] for rr in zip(y0, d)]
        state = MessageState(rows[:n], rows[n:], a + k * p, state.scale, state.sides)
        self.reset()
        self.see(state)
        return state


def convergence_time(inst: Instance, reference: Matching, horizon: int) -> int:
    """Smallest T with beliefs(t) == reference for every T <= t <= horizon.

    The T, or ``HorizonExhausted``, of stepping every iteration, with proved
    drift regimes jumped over (see the module docstring).
    """
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    state = init_messages(inst)
    run = _Run(inst, reference, horizon)
    if run.slots is not None:
        run.see(state)
        while state.iteration < horizon:
            p = run.period()
            if p and state.iteration + 2 * p <= horizon:
                state = run.regime(state, p)
            else:
                state = run.advance(state)
    if not run.any_good:
        raise HorizonExhausted(f"no snapshot in t=1..{horizon} matches the reference")
    if run.last_bad == horizon:
        (left, right), snap = run.want, beliefs(inst, state)
        nodes = [f"a{i + 1}" for i, b in enumerate(snap.left_belief) if b != left[i]]
        nodes += [f"b{j + 1}" for j, b in enumerate(snap.right_belief) if b != right[j]]
        raise HorizonExhausted(f"beliefs at t={horizon}, the horizon, differ from "
                               f"the reference at {', '.join(nodes)}")
    return run.last_bad + 1


def certified_horizon(inst: Instance) -> int:
    """ceil(2n*w_max/eps) from generator metadata (Theorem-certified bound)."""
    meta = inst.meta
    if not meta or "w_max" not in meta or "eps" not in meta:
        raise ParameterError("instance lacks generator metadata for a certified horizon")
    w_max = Fraction(meta["w_max"])
    eps = Fraction(meta["eps"])
    bound = Fraction(2 * inst.n) * w_max / eps
    return -(-bound.numerator // bound.denominator)
