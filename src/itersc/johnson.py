"""Johnson-graph combinatorics: vertex sets of m-subsets, induced subgraphs,
the union-of-adjacent-pairs operator and its iterates, and the two-block
partition construction.

Vertices are canonicalized as sorted id tuples and vertex sets as sorted
tuples of vertices, so every brute-force enumeration is order-stable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

from .errors import BudgetExceededError, DomainError, PreconditionViolationError
from .values import jsonable


def _canon_vertex(v) -> tuple:
    return tuple(sorted(v))


@dataclass(frozen=True)
class VertexSet:
    """A subset of the m-subsets of 1..n."""

    n: int
    m: int
    vertices: tuple  # sorted tuple of sorted id tuples

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v) -> bool:
        return _canon_vertex(v) in set(self.vertices)

    def union_of(self) -> frozenset:
        return frozenset(x for v in self.vertices for x in v)

    def to_jsonable(self) -> dict:
        return {"n": self.n, "m": self.m, "vertices": [list(v) for v in self.vertices]}


def vertex_set(n: int, m: int, vertices) -> VertexSet:
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    canon = sorted({_canon_vertex(v) for v in vertices})
    for v in canon:
        if len(v) != m:
            raise DomainError(f"vertex {v} does not have cardinality {m}")
        if not all(1 <= x <= n for x in v):
            raise DomainError(f"vertex {v} outside 1..{n}")
        if len(set(v)) != m:
            raise DomainError(f"vertex {v} has repeated elements")
    return VertexSet(n=n, m=m, vertices=tuple(canon))


def adjacent(b1, b2) -> bool:
    """Johnson rule: two m-subsets are adjacent iff they share m-1 elements."""
    m = len(b1)
    return len(set(b1) & set(b2)) == m - 1


def zeta(u: VertexSet) -> VertexSet:
    """Unions of adjacent pairs: lands one Johnson level up."""
    if u.m >= u.n:
        raise DomainError(f"zeta undefined at m={u.m} for n={u.n}")
    out = set()
    vs = u.vertices
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if adjacent(vs[i], vs[j]):
                out.add(tuple(sorted(set(vs[i]) | set(vs[j]))))
    return VertexSet(n=u.n, m=u.m + 1, vertices=tuple(sorted(out)))


def zeta_iter(u: VertexSet, v: int) -> VertexSet:
    if not 0 <= v <= u.n - u.m:
        raise DomainError(f"iterate count {v} outside 0..{u.n - u.m}")
    cur = u
    for _ in range(v):
        cur = zeta(cur)
    return cur


def components(u: VertexSet) -> list[VertexSet]:
    """Connected components of the induced Johnson subgraph."""
    remaining = set(u.vertices)
    out = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in remaining:
                if w not in comp and adjacent(v, w):
                    comp.add(w)
                    frontier.append(w)
        remaining -= comp
        out.append(VertexSet(n=u.n, m=u.m, vertices=tuple(sorted(comp))))
    return out


def partition_two_blocks(u: VertexSet) -> tuple[frozenset, frozenset]:
    """Split 1..n into A, B so every 2-subset of u stays inside one block.

    Exists whenever |u| <= n - 2.  If some id is uncovered, it forms B by
    itself (smallest uncovered id); otherwise the induced subgraph is
    disconnected and the component holding the smallest vertex becomes A.
    """
    if u.m != 2:
        raise DomainError("partition construction applies to 2-subsets")
    n = u.n
    if len(u) > n - 2:
        raise PreconditionViolationError(
            f"|U| = {len(u)} exceeds n - 2 = {n - 2}; a partition may not exist")
    everyone = frozenset(range(1, n + 1))
    covered = u.union_of()
    uncovered = sorted(everyone - covered)
    if uncovered:
        b = frozenset({uncovered[0]})
        return everyone - b, b
    comps = components(u)
    # |U| <= n-2 and full coverage force a disconnected induced subgraph
    if len(comps) < 2:
        raise PreconditionViolationError(
            "connected 2-subset family covering 1..n admits no partition")
    comps.sort(key=lambda c: c.vertices[0])
    a = comps[0].union_of()
    return a, everyone - a


def check_partition(u: VertexSet, a: frozenset, b: frozenset) -> bool:
    """Independent containment checker for partition_two_blocks outputs."""
    everyone = set(range(1, u.n + 1))
    if set(a) | set(b) != everyone or set(a) & set(b):
        return False
    if not a or not b:
        return False
    return all(set(v) <= set(a) or set(v) <= set(b) for v in u)


@dataclass(frozen=True)
class VanishingReport:
    n: int
    m: int
    mode: str
    checked: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "checked": self.checked,
            "counterexamples": [jsonable(c) for c in self.counterexamples],
        }


EXHAUSTIVE_BUDGET = 2_000_000  # families an exhaustive vanishing check may visit


def _exhaustive_cost(n: int, m: int) -> int:
    size = comb(n, m)
    return sum(comb(size, k) for k in range(0, n - m + 1))


def verify_zeta_vanishing(n: int, m: int, mode: str = "exhaustive",
                          samples: int = 10000, seed: int = 0) -> VanishingReport:
    """Check that n-m iterates of zeta kill every U with |U| <= n - m."""
    if not 2 <= m <= n:
        raise DomainError(f"need 2 <= m <= n, got m={m}, n={n}")
    all_vertices = list(itertools.combinations(range(1, n + 1), m))
    counterexamples = []
    checked = 0
    if mode == "exhaustive":
        if _exhaustive_cost(n, m) > EXHAUSTIVE_BUDGET:
            raise BudgetExceededError(
                f"exhaustive vanishing check for (n={n}, m={m}) exceeds budget")
        for k in range(0, n - m + 1):
            for combo in itertools.combinations(all_vertices, k):
                u = VertexSet(n=n, m=m, vertices=tuple(sorted(combo)))
                checked += 1
                if len(zeta_iter(u, n - m)) != 0:
                    counterexamples.append([list(v) for v in u])
    elif mode == "sampled":
        rng = random.Random(seed)
        sizes = list(range(0, n - m + 1))
        per_size = max(1, -(-samples // max(1, len(sizes))))
        for k in sizes:
            for _ in range(per_size):
                combo = rng.sample(all_vertices, k) if k else []
                u = VertexSet(n=n, m=m, vertices=tuple(sorted(combo)))
                checked += 1
                if len(zeta_iter(u, n - m)) != 0:
                    counterexamples.append([list(v) for v in u])
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return VanishingReport(n=n, m=m, mode=mode, checked=checked,
                           counterexamples=tuple(counterexamples))
