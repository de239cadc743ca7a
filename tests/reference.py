"""Every reference and helper the tests share: the brute-force matchers,
the random and Hypothesis instance builders, and a call counter."""

from fractions import Fraction
from itertools import permutations
from math import inf
from typing import Optional

from hypothesis import strategies as st

from bpmatching.core import Matching, OracleCapExceeded, ParameterError
from bpmatching.engine import beliefs, init_messages, step
from bpmatching.oracles import BRUTE_FORCE_CAP
from bpmatching.trees import unroll


def node_neighbors(inst, u: int) -> list[tuple[int, Fraction]]:
    """Neighbours of graph node ``u`` (left i is i, right j is n + j) with
    their ``Fraction`` edge weights, read from ``inst.weights``."""
    n, weights = inst.n, inst.weights
    if u < n:
        return [(n + j, w) for j, w in enumerate(weights[u]) if w is not None]
    j = u - n
    return [(i, weights[i][j]) for i in range(n) if weights[i][j] is not None]


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


def is_pseudoforest(cg) -> bool:
    """True iff every component of the conflict graph ``cg`` has at most as
    many edges as nodes."""
    nodes = {("L", i) for i in cg.left_nodes} | {("R", j) for j in cg.right_nodes}
    adj = {u: [] for u in nodes}
    for i, j in cg.edges:
        adj[("L", i)].append(("R", j))
        adj[("R", j)].append(("L", i))
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            comp.add(u)
            stack.extend(adj[u])
        if sum(1 for i, j in cg.edges if ("L", i) in comp) > len(comp):
            return False
    return True


def full_graph_states(inst):
    """The message states of ``inst`` at t = 0, 1, 2, ..., each stepped from
    the last on the full graph ``inst.adjacency()``."""
    state = init_messages(inst)
    while True:
        yield state
        state = step(state)


def scanned_period(fps, prime: int) -> int:
    """Smallest p < i, i the last index of the fingerprints ``fps`` (mod
    ``prime``), whose last one-step increment repeats the one p steps back,
    or whose last two p-step window drifts repeat; 0 if none.  The scan of
    every p that ``engine._Run.period`` ran before it looked the one-step p
    up."""
    i = len(fps) - 1
    for p in range(1, i):
        if (fps[i] - fps[i - 1] - fps[i - p] + fps[i - 1 - p]) % prime == 0 or (
                2 * p <= i and (fps[i] - 2 * fps[i - p] + fps[i - 2 * p]) % prime == 0):
            return p
    return 0


def full_graph_snapshots(inst, horizon: int):
    """Belief snapshots for t = 1..horizon of stepping the full graph."""
    states = full_graph_states(inst)
    next(states)
    for _ in range(horizon):
        yield beliefs(next(states))


def message(inst, state, i: int, j: int, into_right: bool) -> Fraction:
    """The message of ``state``, a state of ``inst``, on edge (i, j) into
    beta_j, or else into alpha_i."""
    n = inst.n
    u, v = (n + j, i) if into_right else (i, n + j)
    return Fraction(state.rows[u][state.adj.nbrs[u].index(v)], inst.scale)


def best_matching_weight(edges) -> Fraction:
    """Largest total weight of a matching inside the (u, v, w) triples
    ``edges``, 0 for none, by include/exclude recursion.  A bipartite edge
    (i, j) enters as (i, n + j, w)."""
    if not edges:
        return Fraction(0)
    (u, v, w), rest = edges[0], edges[1:]
    skip = best_matching_weight(rest)
    keep = w + best_matching_weight([e for e in rest if e[0] not in (u, v) and e[1] not in (u, v)])
    return max(skip, keep)


def mwm_enumeration(inst) -> tuple[Matching, Fraction]:
    """Maximum-weight perfect matching by n! enumeration (n <= 10).

    Ties are broken toward the lexicographically smallest permutation.
    Permutations that would use an absent edge are skipped.
    """
    n = inst.n
    if n > BRUTE_FORCE_CAP:
        raise OracleCapExceeded(f"brute force limited to n <= {BRUTE_FORCE_CAP}")
    best_perm: Optional[tuple[int, ...]] = None
    best_weight = 0
    rows = inst.scaled_weights()
    for perm in permutations(range(n)):
        total = 0
        ok = True
        for i, j in enumerate(perm):
            w = rows[i][j]
            if w is None:
                ok = False
                break
            total += w
        if ok and (best_perm is None or total > best_weight):
            best_perm = perm
            best_weight = total
    if best_perm is None:
        raise ParameterError("instance has no perfect matching on present edges")
    return Matching.of(enumerate(best_perm)), Fraction(best_weight, inst.scale)


def eager_assignment(cost: list[list[int]]) -> list[int]:
    """``oracles._min_cost_assignment`` with its dual shifts applied eagerly:
    after each scan, every tree column's row and column duals and every free
    column's slack move by that scan's delta.  Returns the column of each
    row; the deferred search must return the same one on every cost matrix,
    ties included."""
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row (1-based) currently matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        free, done = list(range(1, n + 1)), [0]
        while True:
            row, ui = cost[p[j0] - 1], u[p[j0]]
            delta = inf
            j1 = 0
            for j in free:
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in done:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            free.remove(j1)
            done.append(j1)
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            p[j0] = p[way[j0]]
            j0 = way[j0]
    result = [0] * n
    for j in range(1, n + 1):
        result[p[j] - 1] = j - 1
    return result


def optimal_matching(inst) -> Matching:
    """A generated instance's optimum: its optimal cycle and pad edges."""
    edges = inst.meta["edges"]
    return Matching.of(map(tuple, edges["opt"] + edges.get("pad", [])))


def suboptimal_matching(inst) -> Matching:
    """A generated single cycle's second best: its suboptimal edges."""
    edges = inst.meta["edges"]
    return Matching.of(map(tuple, edges["sub"] + edges["heavy"]))


def tree_edges(tree) -> list[tuple[int, int, Fraction]]:
    """Tree edges as (label, parent label, weight) triples."""
    return [
        (tree.labels[k], tree.labels[tree.parent[k]],
         Fraction(tree.weight_up[k], tree.scale))
        for k in range(1, tree.node_count())
    ]


def heavy_tail_tree(inst, k: int, l: int):
    """A depth k*n + l computation tree of the bare generated cycle ``inst``
    whose 2l-edge tail holds the heavy edge, and its root id."""
    n = inst.n
    ((hi, hj),) = inst.meta["edges"]["heavy"]
    heavy = {hi, n + hj}
    for v in range(2 * n):
        tree = unroll(inst, v, k * n + l)
        m = tree.node_count()
        # A cycle's tree is a path with two arms, which alternate in BFS
        # order: the odd nodes form one, the even nodes after the root the other.
        assert tree.parent == [-1, 0, 0] + list(range(1, m - 2))
        path = [tree.labels[x] for x in [*range(1, m, 2)][::-1] + [*range(0, m, 2)]]
        seq = list(zip(path, path[1:]))  # leaf-to-leaf edges as label pairs
        if any({a, b} == heavy for a, b in seq[-2 * l:] + seq[:2 * l]):
            return tree, v
    raise AssertionError("no computation tree has the heavy edge in its tail")


def class_weight_split(inst, tree) -> dict[str, Fraction]:
    """Total tree edge weight per generator edge class, the heavy edge
    counted as suboptimal and non-cycle edges as "light"."""
    n = inst.n
    classes = {
        frozenset((i, n + j)): "sub" if cls == "heavy" else cls
        for cls, pairs in inst.meta["edges"].items() for i, j in pairs
    }
    totals: dict[str, Fraction] = {}
    for a, b, w in tree_edges(tree):
        cls = classes.get(frozenset((a, b)), "light")
        totals[cls] = totals.get(cls, Fraction(0)) + w
    return totals


def random_rows(rng, n: int, kind: str) -> list[list[Optional[Fraction]]]:
    """An n x n weight table of ``kind`` dense, sparse, tied or rational,
    one draw per cell row by row, with at least one edge."""
    cell = {
        "dense": lambda: Fraction(rng.randint(-9, 9)),
        "sparse": lambda: None if rng.random() < 0.4 else Fraction(rng.randint(-9, 9)),
        "tied": lambda: None if rng.random() < 0.2 else Fraction(rng.randint(0, 2)),
        "rational": lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
    }[kind]
    rows = [[cell() for _ in range(n)] for _ in range(n)]
    if all(w is None for row in rows for w in row):
        rows[0][0] = Fraction(1)
    return rows


def random_forest(rng) -> list[tuple[int, int, Fraction]]:
    """A shuffled prefix of the edges of a random forest on 2..15 nodes,
    each node after the first joined to an earlier one by a weight in
    -9..9."""
    size = rng.randint(2, 15)
    edges = [(rng.randint(0, v - 1), v, Fraction(rng.randint(-9, 9))) for v in range(1, size)]
    rng.shuffle(edges)
    return edges[: rng.randint(0, min(len(edges), 14))]


def forest_pointers(edges) -> tuple[list[int], dict]:
    """``random_forest``'s edges (p, v, w), p < v, as the pointer forest
    ptr[v] = p, wt[v] = w on nodes 0..14."""
    ptr, wt = [-1] * 15, {}
    for p, v, w in edges:
        ptr[v], wt[v] = p, w
    return ptr, wt


def count_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Wrap ``owner.name`` for the test: the returned list records the
    positional arguments of every call, which then goes through."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@st.composite
def weight_tables(draw):
    """Weight matrices of n = 1..5, dense, sparse (rows of 0, 1, 2 or more
    edges), tied or rational, with at least one edge."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["dense", "sparse", "tied", "rational"]))
    cell = {
        "dense": st.integers(-9, 9).map(Fraction),
        "sparse": st.one_of(st.none(), st.integers(-9, 9).map(Fraction)),
        "tied": st.integers(0, 2).map(Fraction),
        "rational": st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
    }[kind]
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    if all(w is None for row in rows for w in row):
        rows[0][0] = Fraction(1)
    return rows
