"""Synchronous max-sum message passing with exact scaled-integer arithmetic.

Update rule on the graph nodes (ids 0..2n-1, alpha_i = i and beta_j =
n + j), for every edge {u, v}; the iteration counter starts at t=1, and all
messages are zero at t=0:

    m^t[u -> v] = w_uv - max_{l != v} m^{t-1}[l -> u]

The maximum over an empty set (degree-1 nodes) is 0.  The belief of a node
at iteration t is the unique arg-max over its incoming messages at t, or
Unresolved (None) when the arg-max ties.  This calibration makes the belief
at iteration t coincide with the root edge of a maximum weight T-matching
in the depth-t computation tree (see the trees module, which is the
independent oracle for this equivalence).

Messages are the true values x(t), stored as integer numerators over the
instance's common denominator, so every comparison is exact.  They grow
at most linearly, |x(t)| <= t * max|w| (in scaled units), and Python ints
are unbounded.  A state holds them as one flat vector over its graph's
edge entries (``core.Adjacency``), so one step costs O(|E|): each node's
top-2 incoming message (entry k, best, second) is found once per state,
one gather sends w - best on every edge, and each node then writes
w - second back along entry k.  A state carries its graph, so ``step``
and ``beliefs`` take the state alone.  A run's horizon is an input;
``oracles.certified_horizon`` gives the certified one.

``convergence_time`` jumps over drift regimes x(t+p) = x(t) + d, which orbits
of this monotone min-max map end in (Cochet-Terrasson, Gaubert and Gunawardena
1999).  A node's selection, an argmax entry k and a runner-up entry k2, makes
its sends affine: w - x[k], and w - x[k2] back along k, exact while
x[k] >= every x[v] and x[k2] >= every other x[v], ties included.  Nodes with
at most two incoming messages send the same whatever it is.  A random linear
fingerprint of x only proposes p: in a lasting regime every offset drifts by
the same d, so the last one-step increment repeats the one p steps back one
step after its first window (an O(1) lookup of its last index); a regime that
ends may drift by offset, and two p-step windows repeating their drift propose
a smaller p too.  The proof takes the last p steps, from y = x(a), from the
states the run holds (2n + 1, or p + 1 once a longer p is proposed and waits
for them) and carries d = x(a+p) - y through each step's linear part L (its
selections on zero weights).  The window map is affine, y + d + L(z - y), so
L(d) = d proves x(a + k*p + s) = y_s + k*d_s until a selection comparison
a + k*b turns negative; per offset s the k with beliefs equal to the reference
form an interval.  The run judges those iterations unvisited and lands on the
first step the proof does not cover, by the horizon; a failed proof defers the
next scan by p.  It holds those states and the fingerprints since a jump.

An instance with filler edges (``core.bare_view``: weight fw = -2*W, W the
largest weight) steps its bare view when every node keeps a bare edge and a
filler edge and the reference, if any, lies in it; only a widening builds the
full graph.  Its states carry per node l its fill, the largest filler message
into l.  While no filler is a strict argmax, the filler u -> l at t is
fw - best_u(t-1), so fill_l(t) is fw less the least best_u under l's filler
mask: the other side's least, save at the nodes ``apart`` from its first
argmin.  ``top`` counts the fill among the runner-ups, so each node sends what
it sends on the full graph; a fill equal to the best is a tie there too
(Unresolved, w - best on every edge).  By induction from t=1 the bare messages,
fills and beliefs are the full graph's while fill_l(t) <= best_l(t) for every
l.  The first t where that fails rebuilds the full state at t (bare rows kept,
fw - best_u(t-1) on the fillers) before its beliefs count, and the full graph
is stepped on: the rule of ``step``, which alone steps both kinds of run.  A
jump also needs every fill below the bare runner-up, so ``_Run.regime`` also
widens, at its window's end, where a fill in the window is a runner-up; at the
regime's selections these are affine lower bounds, which hold on 0..k once
they hold at k: a bisection finds the first window where one fails, and the
exact fills there, or up to the landing, find the first step to land on.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress, pairwise, repeat
from operator import eq, ge, gt, mul, sub
from typing import Iterator, Optional

from .core import (Adjacency, HorizonExhausted, Instance, Matching, ParameterError,
                   bare_view)


#: Per graph node: the index in ``x`` of its first maximum incoming message
#: (-1 with none), the maximum (0 with none) and the largest other incoming
#: message, its fill included (None with none; a tied maximum repeats).
Tops = tuple[list[int], list[int], list[Optional[int]]]

#: Modulus of the regime fingerprints (a Mersenne prime).
_PRIME = 2**61 - 1


def _tops(x: list[int], start: list[int], fill: Optional[list[int]]) -> Tops:
    ks, bests, seconds = [], [], []
    for a, e, f in zip(start, start[1:], fill or repeat(None)):
        k, best, second = -1, 0, None
        if e - a == 2:  # most rows: the top pair in one comparison
            u, v = x[a], x[a + 1]
            k, best, second = (a, u, v) if u >= v else (a + 1, v, u)
        elif e - a == 1:  # a pad
            k, best = a, x[a]
        elif e > a:
            row = x[a:e]
            best = max(row)
            k = x.index(best, a, e)
            row[k - a] = row[k - a - 1]  # another entry's value: max is now the runner-up
            second = max(row)
        if f is not None and (second is None or f > second):
            second = f  # the largest filler message is a runner-up too
        ks.append(k)
        bests.append(best)
        seconds.append(second)
    return ks, bests, seconds


@dataclass(frozen=True)
class _Fillers:
    """The filler edges a bare view leaves out: the instance (only ``_widen``
    builds its full graph), their weight ``fw``, per node a 0/1 mask of its
    filler neighbours over the other side (never all zero) and the nodes there
    it has none to (``apart``)."""

    inst: Instance
    fw: int
    masks: list[bytes]
    apart: list[list[int]]


def _fill(fillers: _Fillers, bests: list[int]) -> list[int]:
    """Per node l, fw - min best_u over its filler neighbours u: fw less the
    other side's least best, first at node u0, except at the nodes ``apart``
    from u0, which take the least under their mask."""
    n, fw, masks, fill = len(bests) // 2, fillers.fw, fillers.masks, []
    for lo in n, 0:  # the left nodes' fills come from the right side's bests
        side = bests[lo:lo + n]
        least = min(side)
        fill += [fw - least] * n
        for u in fillers.apart[lo + side.index(least)]:
            fill[u] = fw - min(compress(side, masks[u]))
    return fill


@dataclass
class MessageState:
    """The messages of every graph node at one iteration, one flat vector.

    Node u's row ``x[adj.start[u]:adj.start[u + 1]]`` holds its true incoming
    messages, numerators over ``scale``; ``top`` holds the rows' ``Tops``.
    ``rows``, ``to_left`` (alpha_i's) and ``to_right`` (beta_j's) are
    read-only per-node copies.  On a bare view ``fillers`` holds the edges it
    leaves out and ``fill[u]`` the largest filler message into u, which
    ``top`` counts among the runner-ups.
    """

    x: list[int]
    iteration: int
    adj: Adjacency = field(repr=False, compare=False)
    fill: Optional[list[int]] = None
    fillers: Optional[_Fillers] = field(default=None, repr=False, compare=False)
    top: Tops = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.top = _tops(self.x, self.adj.start, self.fill)

    @property
    def rows(self) -> list[list[int]]:
        return [self.x[a:e] for a, e in zip(self.adj.start, self.adj.start[1:])]

    @property
    def to_left(self) -> list[list[int]]:
        return self.rows[: len(self.adj.nbrs) // 2]

    @property
    def to_right(self) -> list[list[int]]:
        return self.rows[len(self.adj.nbrs) // 2 :]


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
    """All-zero messages at iteration 0."""
    adj = inst.adjacency()
    return MessageState([0] * adj.start[-1], 0, adj)


def _send(adj: Adjacency, tops: Tops, w: list[int]) -> list[int]:
    """The message vector one step on, with entry weights ``w``: node u with
    ``tops`` (k, best, second) sends w - best on every edge but the one x[k]
    came in on, which gets w - second; a missing second (an empty maximum) is 0."""
    ks, bests, seconds = tops
    dst = adj.dst
    out = list(map(sub, w, map(bests.__getitem__, adj.src)))
    for k, second in zip(ks, seconds):
        if k >= 0:
            i = dst[k]
            out[i] = w[i] if second is None else w[i] - second
    return out


def step(state: MessageState) -> MessageState:
    """One synchronous update round on the state's graph; returns the state
    at iteration t+1, the full graph's (``_widen``) from a bare view where a
    filler message into some node exceeds its best."""
    adj, fill = state.adj, state.fillers and _fill(state.fillers, state.top[1])
    nxt = MessageState(_send(adj, state.top, adj.flat_w), state.iteration + 1, adj, fill,
                       state.fillers)
    if fill and any(map(gt, fill, nxt.top[1])):
        return _widen(nxt, state.top[1])
    return nxt


def beliefs(state: MessageState) -> BeliefSnapshot:
    """Arg-max of incoming messages per node; None when the arg-max ties."""
    n, src = len(state.adj.nbrs) // 2, state.adj.src
    ids = [None if k < 0 or c == b else src[k] % n for k, b, c in zip(*state.top)]
    return BeliefSnapshot(tuple(ids[:n]), tuple(ids[n:]), state.iteration)


def partial_bp_matching(b: BeliefSnapshot) -> PartialBpMatching:
    """Edges both endpoints believe in, plus uncovered node lists."""
    left, right = b.left_belief, b.right_belief
    return PartialBpMatching(
        pairs=Matching(frozenset(
            (i, j) for i, j in enumerate(left) if j is not None and right[j] == i)),
        uncovered_left=tuple(i for i, j in enumerate(left) if j is None or right[j] != i),
        uncovered_right=tuple(j for j, i in enumerate(right) if i is None or left[i] != j),
    )


def reference_beliefs(
    reference: Matching, n: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (left, right) beliefs of a snapshot that encodes ``reference``,
    or None when it leaves a node uncovered: then no snapshot encodes it."""
    left, right = reference.partner_of_left(), reference.partner_of_right()
    want = (tuple(map(left.get, range(n))), tuple(map(right.get, range(n))))
    return None if None in want[0] + want[1] else want


def _start(inst: Instance, pairs=()) -> MessageState:
    """The state at t=0 on ``inst``'s bare view, with its fillers (masks read
    off the weight matrix, no full graph), when every node keeps a bare edge
    and a filler edge and every (i, j) of ``pairs`` is a bare edge; else
    ``init_messages(inst)``."""
    bare = bare_view(inst)
    if bare and all(bare.adjacency().nbrs) and all(bare.has_edge(*e) for e in pairs):
        adj, rows, n = bare.adjacency(), inst.scaled_weights(), inst.n
        fw = -2 * max(adj.flat_w)
        masks = [bytes(x == fw for x in row) for row in chain(rows, zip(*rows))]
        if all(map(any, masks)):
            other = [range(n, 2 * n)] * n + [range(n)] * n  # each node's other side
            apart = [[v for v, m in zip(vs, f) if not m] for vs, f in zip(other, masks)]
            return MessageState([0] * adj.start[-1], 0, adj, [0] * len(masks),
                                _Fillers(inst, fw, masks, apart))
    return init_messages(inst)


def _widen(y: MessageState, before: list[int]) -> MessageState:
    """The full graph, built from the instance, and its state at y's iteration
    t: y's messages on the bare edges and fw - before[u] on each filler edge
    (u, l), ``before`` holding the bests at t-1."""
    full, x = y.fillers.inst.adjacency(), []
    for nb, ws, bare, row in zip(full.nbrs, full.w, y.adj.nbrs, y.rows):
        got = dict(zip(bare, row))
        x += [got[u] if u in got else w - before[u] for u, w in zip(nb, ws)]
    return MessageState(x, y.iteration, full)


def run_to_horizon(inst: Instance, horizon: int) -> Iterator[BeliefSnapshot]:
    """Belief snapshots for t = 1..horizon (streaming); on the bare view
    while it is exact (see the module docstring)."""
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    state = _start(inst)
    for _ in range(horizon):
        state = step(state)
        yield beliefs(state)


def _runner_ups(y: MessageState) -> list[int]:
    """Per row of ``y``, the index in ``y.x`` of its runner-up (-1 with
    none); every fill of ``y`` lies below its row's runner-up."""
    x, start, (ks, bests, seconds) = y.x, y.adj.start, y.top
    return [-1 if c is None else x.index(b, k + 1, e) if c == b else x.index(c, a, e)
            for a, e, k, b, c in zip(start, start[1:], ks, bests, seconds)]


def _slots(end: tuple, j: int) -> tuple[list[int], list[int]]:
    """Each row's values at z + j*dz at its argmax entry and runner-up, for
    ``end`` = (z, its runner-ups, dz), z bare: the first and the smaller are
    lower bounds of its best and runner-up; the larger and the smaller are
    exact on rows of two and wherever z's selections hold at j."""
    (z, k2s, dz), x = end, end[0].x
    return [x[k] + j * dz[k] for k in z.top[0]], [x[k2] + j * dz[k2] for k2 in k2s]


def _rays(x: list[int], d: list[int], us: list[int], vs: list[int], hi: int,
          least: int = 0) -> tuple[int, int]:
    """Bounds lo..hi of the k in 0..hi with z[u] - z[v] >= least at z = x + k*d
    for every u, v of ``us``, ``vs``: a ray a + k*b >= 0 each."""
    gx, gd, lo = x.__getitem__, d.__getitem__, 0
    for a, b in zip(map(sub, map(gx, us), map(gx, vs)), map(sub, map(gd, us), map(gd, vs))):
        a -= least
        if b > 0 and (c := -(a // b)) > lo:
            lo = c
        elif b < 0 and (c := a // -b) < hi:
            hi = c
        elif b == 0 and a < 0:
            return 1, 0
    return lo, hi


class _Run:
    """One ``convergence_time`` call: its verdict so far, the graph it steps,
    and the fingerprints since the last jump, where regimes are looked for."""

    def __init__(self, start: MessageState, reference: Matching, horizon: int) -> None:
        self.want = reference_beliefs(reference, len(start.adj.nbrs) // 2)
        self.horizon, self.last_bad, self.any_good, self.adj = horizon, 0, False, None
        self.take(start)

    def use(self, adj: Adjacency) -> None:
        """Makes ``adj`` the stepped graph."""
        n, want, self.adj, start = len(adj.nbrs) // 2, self.want, adj, adj.start
        try:  # each row's index of its reference partner, None if never encoded
            self.slots = want and [a + nb.index(v) for a, nb, v in zip(
                start, adj.nbrs, [n + j for j in want[0]] + list(want[1]))]
        except ValueError:  # a non-edge: never encoded
            self.slots = None
        # Every other entry of each row, and that row's reference entry.
        pairs = [(q, v) for a, e, q in zip(start, start[1:], self.slots or ())
                 for v in range(a, e) if v != q]
        self.refs, self.others = [q for q, _ in pairs], [v for _, v in pairs]
        self.wide = [(u, a, e) for u, (a, e) in enumerate(pairwise(start)) if e - a > 2]
        self.zero = [0] * len(adj.flat_w)
        rng = random.Random(0)
        self.coeffs = [rng.getrandbits(31) for _ in adj.src]
        self.held = deque(maxlen=len(adj.nbrs) + 1)  # a bare 2n-cycle's window
        self.reset()

    def reset(self) -> None:
        self.fps, self.next_scan, self.lag, self.last = array("q"), 0, 0, {}
        self.held.clear()

    def take(self, state: MessageState) -> MessageState:
        """Enters ``state`` into the run, on its graph."""
        if state.adj is not self.adj:
            self.use(state.adj)
        if state.iteration:  # beliefs(state) encodes the reference
            ks, bests, seconds = state.top
            if ks == self.slots and not any(map(eq, seconds, bests)):
                self.any_good = True
            else:
                self.last_bad = state.iteration
        fp, i = sum(map(mul, self.coeffs, state.x)) % _PRIME, len(self.fps)
        inc = (fp - self.fps[-1]) % _PRIME if i else -1  # -1: index 0 has no increment
        self.lag, self.last[inc] = i - self.last.get(inc, i), i  # 0: a new increment
        self.fps.append(fp)
        self.held.append(state)
        return state

    @staticmethod
    def filler_jump(ends: list, k: int) -> int:
        """The first window j < k whose fills the filler rays do not certify,
        else k; ``regime`` scans window j's exact fills for the step to land on.
        ``ends`` holds the states at a..a+p with their runner-ups and drifts; the
        fills into a + j*p + s + 1, from the bests at offset s, must stay below
        the runner-ups at offset s + 1.  Each ray a + j*b >= 0 holds on 0..j once
        it holds at j (it does at 0, or ``regime`` widens): ``bisect_left``."""
        f = ends[0][0].fillers

        def fails(j: int) -> bool:
            slots = [_slots(end, j) for end in ends]
            return any(any(map(ge, _fill(f, b) * 2, u + v)) for (b, _), (u, v) in pairwise(slots))

        return bisect_left(range(k - 1), True, key=fails) if fails(k - 1) else k

    def period(self) -> int:
        """Smallest p whose last one-step fingerprint increment, or last two
        p-step window drifts, repeat; 0 if none or no scan is due.  The
        one-step p is ``take``'s O(1) lookup, and a scan, due every
        1 + i // 64 steps, tests the two windows only for the p below it."""
        fps, i = self.fps, len(self.fps) - 1
        if i < self.next_scan:
            return 0
        self.next_scan = i + 1 + i // 64
        for p in range(1, min(self.lag or i, i // 2 + 1)):
            if (fps[i] - 2 * fps[i - p] + fps[i - 2 * p]) % _PRIME == 0:
                return p
        return self.lag

    def window_step(self, y: MessageState, k2s: list[int], d: list[int], kmax: int):
        """At y with runner-ups k2s and drift d: the drift a step on, the
        largest k <= kmax keeping y's selections at y + k*d, and the k where
        its beliefs are the reference's."""
        x, ks, us, vs = y.x, y.top[0], [], []
        for u, a, e in self.wide:  # x[k] and then x[k2] stay maxima; ties send the same
            k, k2 = ks[u], k2s[u]
            others = [v for v in range(a, e) if v != k and v != k2]
            us += [k] + [k2] * len(others)
            vs += [k2] + others
        # The linear part of the step: y's selections on zero weights (entry -1: none, 0).
        dz = d + [0]
        tops = ks, list(map(dz.__getitem__, ks)), list(map(dz.__getitem__, k2s))
        return (_send(y.adj, tops, self.zero), _rays(x, d, us, vs, kmax)[1],
                _rays(x, d, self.refs, self.others, self.horizon, 1))

    def regime(self, state: MessageState, p: int) -> MessageState:
        """Takes the p-step window from y = x(a) to ``state`` from the held
        states, stepping none; if its linear part carries d = x(a+p) - y back to
        d, that proves a regime: judges the beliefs it covers and lands on the
        first step it does not cover: the horizon, an offset's first step off its
        selections, or the first fill at a runner-up.  With fewer than p + 1 held
        it holds p + 1 from then on and waits for them; a runner-up fill in the
        window widens at its end."""
        i, held = len(self.fps) - 1, self.held
        if len(held) <= p:
            self.held, self.next_scan = deque(held, maxlen=p + 1), i + p + 1 - len(held)
            return state
        self.next_scan = max(self.next_scan, i + p)  # if the proof fails
        states = list(held)[-p - 1:]
        if state.fill and any(any(map(eq, z.fill, z.top[2])) for z in states):
            return self.take(_widen(state, states[-2].top[1]))
        a, y, last = states[0].iteration, states[0].x, states.pop()
        d = ds = list(map(sub, last.x, y))
        kmax, goods, ends, land = self.horizon, [], [], self.horizon - a
        for s, z in enumerate(states):
            ends.append((z, _runner_ups(z), ds))
            ds, kmax, good = self.window_step(*ends[-1], kmax)
            goods.append(good)
            land = min(land, (kmax + 1) * p + s)  # the first step off offset s's selections
            if kmax < 1:  # a selection changes in the next window: no jump
                return last
        if ds != d:
            return last
        ends.append((last, _runner_ups(last), d))
        k, r = (land - 1) // p, (land - 1) % p + 1  # a + land: offset r (1..p) of window k
        if f := last.fillers:
            if (j := self.filler_jump(ends, k)) < k:  # the rays fail in window j
                if j < 2:  # a jump of a window at most: stepping on keeps the fingerprints
                    return last
                k, r = j, p  # scan all of window j
            tops = [_slots(end, k) for end in ends[:r + 1]]  # offsets 0..r of window k
            for r, ((us, vs), (u2, v2)) in enumerate(pairwise(tops), 1):  # fills into 1..r
                fill = _fill(f, bests := list(map(max, us, vs)))
                if any(map(ge, fill * 2, u2 + v2)):  # it reaches a runner-up: land on it
                    break
        for s, (lo, hi) in enumerate(goods):  # at a + j*p + s, j = 1..m
            m = k - (s >= r)
            lo, hi = max(lo, 1), min(hi, m)
            self.any_good |= lo <= hi
            bad = m if lo > hi or hi < m else lo - 1
            self.last_bad = max(self.last_bad, a + bad * p + s if bad else 0)
        self.reset()
        z, _, dz = ends[r]  # the landing, with the last fill scanned
        z = MessageState([u + k * v for u, v in zip(z.x, dz)], a + k * p + r, last.adj,
                         f and fill, last.fillers)
        return self.take(_widen(z, bests) if f and any(map(gt, fill, z.top[1])) else z)


def convergence_time(inst: Instance, reference: Matching, horizon: int) -> int:
    """Smallest T with beliefs(t) == reference for every T <= t <= horizon.

    The T, or ``HorizonExhausted``, of stepping every iteration, with proved
    drift regimes jumped over, on the bare view while it is exact (see the
    module docstring).
    """
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    state = _start(inst, reference.pairs)
    run = _Run(state, reference, horizon)
    if run.slots is not None:
        while state.iteration < horizon:
            p = run.period()
            state = run.regime(state, p) if p else run.take(step(state))
    if not run.any_good:
        raise HorizonExhausted(f"no snapshot in t=1..{horizon} matches the reference")
    if run.last_bad == horizon:
        (left, right), snap = run.want, beliefs(state)
        nodes = [f"a{i + 1}" for i, b in enumerate(snap.left_belief) if b != left[i]]
        nodes += [f"b{j + 1}" for j, b in enumerate(snap.right_belief) if b != right[j]]
        raise HorizonExhausted(f"beliefs at t={horizon}, the horizon, differ from "
                               f"the reference at {', '.join(nodes)}")
    return run.last_bad + 1
