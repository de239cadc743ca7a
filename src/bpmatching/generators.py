"""Adversarial instance constructions: heavy cycles and prime multi-cycles.

The single-cycle family places a 2n-cycle with one heavy suboptimal edge;
the multi-cycle family packs node-disjoint heavy cycles whose half-lengths
are distinct primes from the interval (n/2c, n/c), padded with forced pairs.
Both families have a unique maximum weight matching with uniqueness gap eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Instance, ParameterError, format_rational


@dataclass(frozen=True)
class CycleParams:
    """Parameters of the heavy-cycle construction."""

    n: int
    w_max: Fraction
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_max", Fraction(self.w_max))
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.n < 3:
            raise ParameterError("cycle half-length must be >= 3")
        if self.w_max <= 0:
            raise ParameterError("w_max must be positive")
        if not (0 < self.eps < self.w_max / (4 * (self.n - 2))):
            raise ParameterError(f"eps must satisfy 0 < eps < w_max/(4(n-2)) at n={self.n}")

    @property
    def w_opt(self) -> Fraction:
        return self.w_max / 2

    @property
    def w_sub(self) -> Fraction:
        n = self.n
        return self.w_max / 2 - self.w_max / (2 * (n - 1)) - self.eps / (n - 1)


def _place_cycle(
    rows: list[list[Optional[Fraction]]], params: CycleParams, offset: int = 0
) -> dict[str, list[list[int]]]:
    """Writes the opt, sub and heavy weights of one 2n-cycle occupying
    indices offset..offset+n-1 into ``rows``; returns its edge classes."""
    n = params.n
    classes = {
        "opt": [[offset + i, offset + i] for i in range(n)],
        "sub": [[offset + i + 1, offset + i] for i in range(n - 1)],
        "heavy": [[offset, offset + n - 1]],
    }
    for cls, w in ("opt", params.w_opt), ("sub", params.w_sub), ("heavy", params.w_max):
        for i, j in classes[cls]:
            rows[i][j] = w
    return classes


def gen_cycle(params: CycleParams, embed: bool = False) -> Instance:
    """The heavy-cycle instance, bare (edges only on the cycle) or embedded.

    Edge weights: optimal edges w_max/2; plain suboptimal edges
    w_max/2 - w_max/(2(n-1)) - eps/(n-1); the heavy edge w_max.  When
    embedded, every non-cycle edge of K_{n,n} weighs -2*w_max.
    """
    n = params.n
    light = -2 * params.w_max
    rows: list[list[Optional[Fraction]]] = [
        [light if embed else None] * n for _ in range(n)
    ]
    classes = _place_cycle(rows, params)
    meta = {
        "family": "cycle",
        "n": n,
        "w_max": format_rational(params.w_max),
        "eps": format_rational(params.eps),
        "embed": embed,
        "edges": classes,
        "cycles": [{"offset": 0, "half_length": n}],
    }
    return Instance(rows, meta=meta)


def select_primes(n: int, c: int) -> tuple[int, ...]:
    """The c smallest primes strictly inside (n/2c, n/c).

    Availability is checked by trial division of every integer in the
    interval rather than assumed from asymptotic counting bounds.
    """
    if c < 1 or n < 1:
        raise ParameterError("n and c must be positive")
    lo = Fraction(n, 2 * c)
    hi = Fraction(n, c)
    primes = [p for p in range(max(2, math.floor(lo) + 1), math.ceil(hi))
              if all(p % q for q in range(2, math.isqrt(p) + 1))]
    if len(primes) < c:
        raise ParameterError(
            f"only {len(primes)} primes in ({lo}, {hi}); need {c}"
        )
    return tuple(primes[:c])


def default_cycle_count(n: int) -> int:
    """floor((1/2) * sqrt(n / log n))."""
    if n < 3:
        raise ParameterError("n must be >= 3")
    return max(1, math.floor(0.5 * math.sqrt(n / math.log(n))))


def gen_multicycle(
    n: int,
    w_max: Fraction,
    eps: Fraction,
    c: Optional[int] = None,
) -> Instance:
    """K_{n,n} packed with node-disjoint heavy cycles of prime half-lengths.

    Cycle blocks occupy the lowest indices in prime order; the remaining
    n - sum(n_i) index pairs are pad edges of weight w_max/2; every other
    edge weighs -2*w_max.  Each cycle satisfies the single-cycle parameter
    constraint with its own half-length, so the largest prime bounds eps.
    """
    w_max = Fraction(w_max)
    eps = Fraction(eps)
    if c is None:
        c = default_cycle_count(n)
    primes = select_primes(n, c)
    light = -2 * w_max
    rows: list[list[Optional[Fraction]]] = [[light] * n for _ in range(n)]
    classes: dict[str, list[list[int]]] = {"opt": [], "sub": [], "heavy": [], "pad": []}
    cycles = []
    offset = 0
    for n_i in primes:
        block = _place_cycle(rows, CycleParams(n=n_i, w_max=w_max, eps=eps), offset)
        for cls in ("opt", "sub", "heavy"):
            classes[cls].extend(block[cls])
        cycles.append({"offset": offset, "half_length": n_i})
        offset += n_i
    for i in range(offset, n):
        rows[i][i] = w_max / 2
        classes["pad"].append([i, i])
    meta = {
        "family": "multicycle",
        "n": n,
        "w_max": format_rational(w_max),
        "eps": format_rational(eps),
        "embed": True,
        "c": c,
        "primes": list(primes),
        "edges": classes,
        "cycles": cycles,
    }
    return Instance(rows, meta=meta)


def failure_window(n: int, c: int, w_max: Fraction, eps: Fraction) -> Fraction:
    """Iteration window in which at least c/2 cycles cannot be perfect.

    min( w_max/(8*c*eps), floor((n/2c)^(c/2)) ), computed exactly.
    """
    w_max = Fraction(w_max)
    eps = Fraction(eps)
    if eps <= 0:
        raise ParameterError("eps must be positive")
    # m*m <= x iff m*m <= floor(x) for an integer m.
    m = math.isqrt(math.floor(Fraction(n, 2 * c) ** c))
    return min(w_max / (8 * c * eps), Fraction(m))

