"""Exact weighted bipartite instances, matchings, and JSON serialization.

All weights are `fractions.Fraction` values; arithmetic is exact everywhere.
An instance is a complete bipartite graph K_{n,n} given as a dense n x n
weight matrix.  Entries may be ``None`` for graphs restricted to a subset of
the edges (e.g. a bare weighted cycle); such edges simply do not exist.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence


class ParameterError(ValueError):
    """A documented precondition was violated.  CLI exit code 2."""


class HorizonExhausted(RuntimeError):
    """An iteration budget ran out before the requested event.  Exit code 3."""


class OracleCapExceeded(RuntimeError):
    """A brute-force or unrolling size cap was exceeded.  Exit code 4."""


class MissingEdgeError(ValueError):
    """An operation touched an edge that is absent from the instance."""


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a 'P/Q' or 'P' string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Format a rational as 'P/Q', or 'P' when the denominator is 1."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Matching:
    """A partial or perfect matching as a set of (left, right) index pairs."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        lefts = [i for i, _ in self.pairs]
        rights = [j for _, j in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ParameterError("duplicate endpoint in matching")

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(frozenset((int(i), int(j)) for i, j in pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def is_perfect(self, n: int) -> bool:
        return len(self.pairs) == n

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def partner_of_left(self) -> dict[int, int]:
        return {i: j for i, j in self.pairs}

    def partner_of_right(self) -> dict[int, int]:
        return {j: i for i, j in self.pairs}


@dataclass(frozen=True)
class Side:
    """Incidence lists of one side's nodes, neighbours in ascending order.

    ``nbrs[u]`` holds the neighbours of node u on the other side, ``w[u]``
    the aligned scaled weights, ``slot[u][s]`` the position of u in the
    list of its neighbour ``nbrs[u][s]``, and ``heavy[u]`` the largest
    weight of u, or ``None`` when u has fewer than two edges.
    """

    nbrs: list[list[int]]
    w: list[list[int]]
    slot: list[list[int]]
    heavy: list[Optional[int]]


def _incidence(
    rows: Sequence[Sequence[Optional[int]]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Present neighbours of each row's node and their aligned weights."""
    nbrs = [[v for v, x in enumerate(row) if x is not None] for row in rows]
    return nbrs, [[row[v] for v in nb] for row, nb in zip(rows, nbrs)]


def _heavy(w: list[list[int]]) -> list[Optional[int]]:
    return [max(ws) if len(ws) > 1 else None for ws in w]


class Instance:
    """A weighted K_{n,n}, possibly restricted to a subset of its edges.

    ``weights[i][j]`` is the exact weight of the edge {alpha_{i+1}, beta_{j+1}}
    or ``None`` when the edge is absent.  ``meta`` is an optional generator
    record (plain JSON-compatible dict, see the generators module).
    """

    def __init__(
        self,
        weights: list[list[Optional[Fraction]]],
        meta: Optional[dict] = None,
    ) -> None:
        n = len(weights)
        if n < 1 or any(len(row) != n for row in weights):
            raise ParameterError("weights must be a nonempty square matrix")
        self.n = n
        self.weights = [
            [None if w is None else Fraction(w) for w in row] for row in weights
        ]
        self.meta = meta
        self._scale: Optional[int] = None
        self._scaled_rows: Optional[list[list[Optional[int]]]] = None
        self._sides: Optional[tuple[Side, Side]] = None

    def weight(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ParameterError(f"edge index ({i},{j}) out of range for n={self.n}")
        w = self.weights[i][j]
        if w is None:
            raise MissingEdgeError(f"edge ({i},{j}) is absent")
        return w

    def has_edge(self, i: int, j: int) -> bool:
        return 0 <= i < self.n and 0 <= j < self.n and self.weights[i][j] is not None

    @property
    def is_dense(self) -> bool:
        return all(w is not None for row in self.weights for w in row)

    @property
    def max_abs_weight(self) -> Fraction:
        return max(
            (abs(w) for row in self.weights for w in row if w is not None),
            default=Fraction(0),
        )

    @property
    def scale(self) -> int:
        """Common denominator turning every present weight into an integer."""
        if self._scale is None:
            self._scale = lcm(
                *[w.denominator for row in self.weights for w in row if w is not None]
            )
        return self._scale

    def scaled_weights(self) -> list[list[Optional[int]]]:
        """Weights as integer numerators over ``scale`` (cached)."""
        if self._scaled_rows is None:
            s = self.scale
            self._scaled_rows = [
                [None if w is None else int(w * s) for w in row]
                for row in self.weights
            ]
        return self._scaled_rows

    def adjacency(self) -> tuple[Side, Side]:
        """Incidence lists of the left and the right side (cached).

        Raises ``ParameterError`` when the instance has no edge at all.
        """
        if self._sides is None:
            rows = self.scaled_weights()
            lnb, lw = _incidence(rows)
            rnb, rw = _incidence(list(zip(*rows)))
            if not any(lnb):
                raise ParameterError("instance has no edges")
            self._sides = (
                Side(lnb, lw, [[bisect_left(rnb[j], i) for j in nb]
                               for i, nb in enumerate(lnb)], _heavy(lw)),
                Side(rnb, rw, [[bisect_left(lnb[i], j) for i in nb]
                               for j, nb in enumerate(rnb)], _heavy(rw)),
            )
        return self._sides

    # -- graph view with node ids 0..2n-1 (left: 0..n-1, right: n..2n-1) --

    def node_count(self) -> int:
        return 2 * self.n

    def node_neighbors(self, u: int) -> list[tuple[int, Fraction]]:
        """Neighbors of graph node ``u`` with edge weights."""
        n = self.n
        if u < n:
            return [
                (n + j, w) for j, w in enumerate(self.weights[u]) if w is not None
            ]
        j = u - n
        return [
            (i, self.weights[i][j])
            for i in range(n)
            if self.weights[i][j] is not None
        ]

    # -- serialization --

    def to_json(self) -> str:
        scale = self.scale
        rows = [
            [None if w is None else int(w * scale) for w in row]
            for row in self.weights
        ]
        doc = {"n": self.n, "scale": scale, "weights": rows, "meta": self.meta}
        return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        """Parse ``to_json`` output; malformed documents raise ParameterError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ParameterError(f"instance is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParameterError("instance document must be a JSON object")
        missing = [key for key in ("n", "scale", "weights") if key not in doc]
        if missing:
            raise ParameterError(f"instance document lacks {', '.join(missing)}")
        n, scale, rows = doc["n"], doc["scale"], doc["weights"]
        # ``type(...) is int`` rejects JSON true/false, which load as bools.
        if type(scale) is not int or scale < 1:
            raise ParameterError("scale must be a positive integer")
        if type(n) is not int:
            raise ParameterError("n must be an integer")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ParameterError("weights must be a list of rows")
        if any(w is not None and type(w) is not int for row in rows for w in row):
            raise ParameterError("weight cells must be integers or null")
        weights = [
            [None if w is None else Fraction(w, scale) for w in row] for row in rows
        ]
        inst = cls(weights, meta=doc.get("meta"))
        if inst.n != n:
            raise ParameterError("declared n does not match the weight matrix")
        return inst

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def matching_weight(inst: Instance, m: Matching) -> Fraction:
    """Exact total weight of the matching's edges in the instance."""
    return sum((inst.weight(i, j) for i, j in m.pairs), start=Fraction(0))


def relabel(inst: Instance, left_perm: list[int], right_perm: list[int]) -> Instance:
    """Instance with row i moved to left_perm[i] and column j to right_perm[j]."""
    n = inst.n
    rows: list[list[Optional[Fraction]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[left_perm[i]][right_perm[j]] = inst.weights[i][j]
    return Instance(rows)


def all_perfect_matchings(n: int) -> Iterator[Matching]:
    """Every perfect matching of K_{n,n}, in lexicographic permutation order."""
    from itertools import permutations

    for perm in permutations(range(n)):
        yield Matching.of(enumerate(perm))
