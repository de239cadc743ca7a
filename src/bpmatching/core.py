"""Exact weighted bipartite instances, matchings, and JSON serialization.

An instance is K_{n,n} given as a dense n x n weight matrix; entries may be
``None`` for graphs restricted to a subset of the edges (e.g. a bare
weighted cycle), and such edges simply do not exist.  The instance holds
one matrix, integer numerators over one common scale
(``Instance.scaled_weights()``), which the engine, the oracles and the
tree DP work on.  Weights enter (``Instance(...)``) and leave
(``weights``, ``weight``) as `fractions.Fraction` values.  The one graph view is
``Instance.adjacency()``: per graph node, ids 0..2n-1 with alpha_i = i and
beta_j = n + j, the list of its neighbours and their scaled weights.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Optional


class ParameterError(ValueError):
    """A documented precondition was violated."""

    exit_code = 2  # of the command-line front end


class HorizonExhausted(RuntimeError):
    """An iteration budget ran out before the requested event."""

    exit_code = 3


class OracleCapExceeded(RuntimeError):
    """A brute-force or unrolling size cap was exceeded."""

    exit_code = 4


class MissingEdgeError(ValueError):
    """An operation touched an edge that is absent from the instance."""

    exit_code = 2


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
        pairs, k = self.pairs, len(self.pairs)
        if len(set(map(itemgetter(0), pairs))) != k or len(set(map(itemgetter(1), pairs))) != k:
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
class Adjacency:
    """Incidence lists over the graph ids 0..2n-1 (alpha_i is i, beta_j n + j).

    ``nbrs[u]`` holds u's neighbour ids in ascending order and ``w[u]`` the
    aligned scaled weights.  The rest, derived from these on first use (so
    ``dataclasses.replace`` rebuilds it), lays one value per incidence out
    flat, node u's row at ``start[u]:start[u + 1]``, aligned with
    ``nbrs[u]``: ``src`` holds each entry's neighbour, ``flat_w`` its weight,
    and ``dst`` the entry of the other end's row on its edge, so
    ``dst[start[u] + s]`` is u's entry in the row of ``nbrs[u][s]``.
    """

    nbrs: list[list[int]]
    w: list[list[int]]

    @cached_property
    def start(self) -> list[int]:
        return [0, *accumulate(map(len, self.nbrs))]

    @cached_property
    def src(self) -> list[int]:
        return list(chain.from_iterable(self.nbrs))

    @cached_property
    def flat_w(self) -> list[int]:
        return list(chain.from_iterable(self.w))

    @cached_property
    def dst(self) -> list[int]:
        start, nbrs = self.start, self.nbrs
        return [start[v] + bisect_left(nbrs[v], u) for u, nb in enumerate(nbrs) for v in nb]


class Instance:
    """A weighted K_{n,n}, possibly restricted to a subset of its edges.

    The one weight matrix is ``scaled_weights()``: ``[i][j]`` is the integer
    numerator over ``scale`` of the edge {alpha_{i+1}, beta_{j+1}}, or
    ``None`` when the edge is absent; ``scale`` and the numerators share no
    common factor.  ``weights`` and ``weight(i, j)`` are ``Fraction`` views
    of it.  ``meta`` is an optional generator record (plain JSON-compatible
    dict, see the generators module).
    """

    def __init__(
        self,
        weights: list[list[Optional[Fraction]]],
        meta: Optional[dict] = None,
    ) -> None:
        cells = [[w if w is None or isinstance(w, (int, Fraction)) else Fraction(w)
                  for w in row] for row in weights]
        scale = lcm(*{w.denominator for row in cells for w in row if w is not None})
        self._store([[None if w is None else w.numerator * (scale // w.denominator)
                      for w in row] for row in cells], scale, meta)

    @classmethod
    def scaled(
        cls, rows: list[list[Optional[int]]], scale: int, meta: Optional[dict] = None
    ) -> "Instance":
        """The instance with weights ``rows[i][j] / scale``, scale a positive int."""
        inst = cls.__new__(cls)
        inst._store(rows, scale, meta)
        return inst

    def _store(self, rows: list[list[Optional[int]]], scale: int,
               meta: Optional[dict]) -> None:
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise ParameterError("weights must be a nonempty square matrix")
        g = gcd(scale, *[x for row in rows for x in row if x is not None])
        self.n, self.scale, self.meta = n, scale // g, meta
        self._rows = [[None if x is None else x // g for x in row] for row in rows]
        self._adj: Optional[Adjacency] = None
        self._bare: Optional[Instance] | bool = False  # ``bare_view``, False until taken

    @property
    def weights(self) -> list[list[Optional[Fraction]]]:
        """The exact weights, ``None`` for an absent edge (a new matrix)."""
        return [[None if x is None else Fraction(x, self.scale) for x in row]
                for row in self._rows]

    def weight(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ParameterError(f"edge index ({i},{j}) out of range for n={self.n}")
        x = self._rows[i][j]
        if x is None:
            raise MissingEdgeError(f"edge ({i},{j}) is absent")
        return Fraction(x, self.scale)

    def has_edge(self, i: int, j: int) -> bool:
        return 0 <= i < self.n and 0 <= j < self.n and self._rows[i][j] is not None

    def scaled_weights(self) -> list[list[Optional[int]]]:
        """Weights as integer numerators over ``scale`` (read-only)."""
        return self._rows

    def adjacency(self) -> Adjacency:
        """The incidence lists of every graph node (cached).

        Raises ``ParameterError`` when the instance has no edge at all.
        """
        if self._adj is None:
            n, rows = self.n, self._rows
            nbrs = [[n + j for j, x in enumerate(row) if x is not None] for row in rows]
            nbrs += [[i for i, x in enumerate(col) if x is not None] for col in zip(*rows)]
            if not any(nbrs):
                raise ParameterError("instance has no edges")
            self._adj = Adjacency(
                nbrs,
                [[rows[min(u, v)][max(u, v) - n] for v in nb] for u, nb in enumerate(nbrs)],
            )
        return self._adj

    # -- serialization --

    def to_json(self) -> str:
        doc = {"n": self.n, "scale": self.scale, "weights": self._rows, "meta": self.meta}
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
        if doc.get("meta") is not None and not isinstance(doc["meta"], dict):
            raise ParameterError("meta must be a JSON object or null")
        inst = cls.scaled(rows, scale, doc.get("meta"))
        if inst.n != n:
            raise ParameterError("declared n does not match the weight matrix")
        return inst

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def matching_weight(inst: Instance, m: Matching) -> Fraction:
    """Exact total weight of the matching's edges in the instance.

    Sums the scaled integer weights; an out-of-range or absent edge raises
    as in ``Instance.weight``.
    """
    rows = inst.scaled_weights()
    for i, j in m.pairs:
        if not inst.has_edge(i, j):
            inst.weight(i, j)  # raises ParameterError or MissingEdgeError
    return Fraction(sum(rows[i][j] for i, j in m.pairs), inst.scale)


def bare_view(inst: Instance) -> Optional[Instance]:
    """``inst`` without its filler edges, those of scaled weight -2*W where
    W > 0 is the largest weight; None when it has none.  The bare view keeps
    ``inst.scale``: W stays in it, so its weights share no factor the
    fillers do not.  Memoised on ``inst``, like its adjacency."""
    if inst._bare is False:
        rows = inst.scaled_weights()
        w = max((x for row in rows for x in row if x is not None), default=0)
        inst._bare = Instance.scaled(
            [[None if x == -2 * w else x for x in row] for row in rows], inst.scale
        ) if w > 0 and any(-2 * w in row for row in rows) else None
    return inst._bare


def relabel(inst: Instance, left_perm: list[int], right_perm: list[int]) -> Instance:
    """Instance with row i moved to left_perm[i] and column j to right_perm[j]."""
    n, old = inst.n, inst.scaled_weights()
    rows: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[left_perm[i]][right_perm[j]] = old[i][j]
    return Instance.scaled(rows, inst.scale)

