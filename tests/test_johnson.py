"""Johnson-level combinatorics: zeta, components, bounds, partitions."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itersc.errors import BudgetExceededError, DomainError, PreconditionViolationError
from itersc.johnson import (
    adjacent,
    check_partition,
    components,
    partition_two_blocks,
    verify_zeta_vanishing,
    vertex_set,
    zeta,
    zeta_iter,
)


def test_zeta_one_step():
    u = vertex_set(3, 2, [(1, 2), (2, 3)])
    assert zeta(u).vertices == ((1, 2, 3),)


def test_zeta_singleton_empty():
    assert len(zeta(vertex_set(3, 2, [(1, 2)]))) == 0


def test_zeta_disjoint_pair_empty():
    assert len(zeta(vertex_set(4, 2, [(1, 2), (3, 4)]))) == 0


def test_zeta_domain_error_at_top_level():
    with pytest.raises(DomainError):
        zeta(vertex_set(3, 3, [(1, 2, 3)]))


def test_zeta_iter_identity_and_chain():
    u = vertex_set(4, 2, [(1, 2), (2, 3), (3, 4)])
    assert zeta_iter(u, 0) is u or zeta_iter(u, 0).vertices == u.vertices
    assert zeta_iter(u, 1).vertices == ((1, 2, 3), (2, 3, 4))
    assert zeta_iter(u, 2).vertices == ((1, 2, 3, 4),)
    with pytest.raises(DomainError):
        zeta_iter(u, 3)


def test_zeta_small_families_vanish():
    # |U| <= n - m always dies after n - m iterations
    for u in ([], [(1, 2)], [(2, 3)], [(1, 3)]):
        assert len(zeta_iter(vertex_set(3, 2, u), 1)) == 0


def test_components_shapes():
    assert components(vertex_set(4, 2, [])) == []
    assert len(components(vertex_set(4, 2, [(1, 2), (2, 3)]))) == 1
    comps = components(vertex_set(4, 2, [(1, 2), (3, 4)]))
    assert [c.vertices for c in comps] == [((1, 2),), ((3, 4),)]


def _is_connected(u):
    return len(components(u)) <= 1


def _union_bound_holds(u):
    """The lemma for connected induced subgraphs: |union U| <= m - 1 + |U|."""
    return len(u.union_of()) <= u.m - 1 + len(u)


def test_union_bound_cases():
    assert _union_bound_holds(vertex_set(4, 2, [(1, 2)]))
    assert _union_bound_holds(vertex_set(4, 2, [(1, 2), (2, 3), (3, 4)]))
    # the bound needs connectivity: two disjoint pairs cover 4 > 1 + 2 ids
    disjoint = vertex_set(4, 2, [(1, 2), (3, 4)])
    assert not _is_connected(disjoint) and not _union_bound_holds(disjoint)


def test_union_bound_exhaustive_small():
    # every connected induced subgraph satisfies |union| <= m - 1 + |U|
    for n, m in ((4, 2), (4, 3), (5, 2)):
        vs = list(itertools.combinations(range(1, n + 1), m))
        for k in range(1, min(len(vs), 5) + 1):
            for combo in itertools.combinations(vs, k):
                u = vertex_set(n, m, combo)
                if _is_connected(u):
                    assert _union_bound_holds(u)


def test_partition_component_split():
    a, b = partition_two_blocks(vertex_set(4, 2, [(1, 2), (3, 4)]))
    assert (sorted(a), sorted(b)) == ([1, 2], [3, 4])


def test_partition_uncovered_rule():
    a, b = partition_two_blocks(vertex_set(3, 2, []))
    assert sorted(b) == [1] and sorted(a) == [2, 3]


def test_partition_too_large_raises():
    with pytest.raises(PreconditionViolationError):
        partition_two_blocks(vertex_set(4, 2, [(1, 2), (2, 3), (3, 4)]))


def test_partition_checker_rejects_bad_splits():
    u = vertex_set(4, 2, [(1, 2)])
    assert not check_partition(u, frozenset({1}), frozenset({2, 3, 4}))
    assert not check_partition(u, frozenset({1, 2, 3, 4}), frozenset())
    assert check_partition(u, frozenset({1, 2}), frozenset({3, 4}))


def test_partition_exhaustive_small():
    for n in (3, 4, 5):
        vs = list(itertools.combinations(range(1, n + 1), 2))
        for k in range(0, n - 1):
            for combo in itertools.combinations(vs, k):
                u = vertex_set(n, 2, combo)
                a, b = partition_two_blocks(u)
                assert check_partition(u, a, b), (n, combo, a, b)


def test_vanishing_exhaustive_3_2():
    report = verify_zeta_vanishing(3, 2)
    assert report.ok and report.checked == 4  # empty set plus three singletons


def test_vanishing_exhaustive_4_2_and_witness():
    report = verify_zeta_vanishing(4, 2)
    assert report.ok
    # one extra vertex can survive the iterates
    u = vertex_set(4, 2, [(1, 2), (2, 3), (3, 4)])
    assert len(zeta_iter(u, 2)) > 0


def test_vanishing_budget_guard():
    with pytest.raises(BudgetExceededError):
        verify_zeta_vanishing(20, 2)


def test_vanishing_sampled_mode():
    report = verify_zeta_vanishing(7, 2, mode="sampled", samples=500, seed=1)
    assert report.ok and report.checked >= 500


def test_vanishing_mode_validation():
    with pytest.raises(DomainError):
        verify_zeta_vanishing(4, 2, mode="nonsense")
    with pytest.raises(DomainError):
        verify_zeta_vanishing(4, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_zeta_monotone_and_union_inclusion(seed):
    import random
    rng = random.Random(seed)
    n = rng.choice((4, 5))
    m = rng.choice((2, 3))
    vs = list(itertools.combinations(range(1, n + 1), m))
    w_verts = rng.sample(vs, rng.randint(0, len(vs)))
    u_verts = rng.sample(w_verts, rng.randint(0, len(w_verts)))
    u = vertex_set(n, m, u_verts)
    w = vertex_set(n, m, w_verts)
    assert set(zeta(u).vertices) <= set(zeta(w).vertices)
    for v in range(0, n - m + 1):
        assert zeta_iter(u, v).union_of() <= u.union_of()


def test_connected_zeta_stays_connected_with_equal_union():
    # exhaustive for n <= 5: connected U with |U| > 1 keeps zeta connected
    for n in (4, 5):
        for m in (2, 3):
            vs = list(itertools.combinations(range(1, n + 1), m))
            for k in range(2, min(len(vs), 4) + 1):
                for combo in itertools.combinations(vs, k):
                    u = vertex_set(n, m, combo)
                    if not _is_connected(u):
                        continue
                    zu = zeta(u)
                    assert _is_connected(zu), (n, m, combo)
                    assert zu.union_of() == u.union_of()


def test_small_connected_families_never_cover_everything():
    # connected U with |U| <= n - m leaves some id uncovered
    for n in (4, 5):
        for m in (2, 3):
            vs = list(itertools.combinations(range(1, n + 1), m))
            for k in range(1, n - m + 1):
                for combo in itertools.combinations(vs, k):
                    u = vertex_set(n, m, combo)
                    if _is_connected(u):
                        assert u.union_of() != frozenset(range(1, n + 1))


def test_adjacency_rule():
    assert adjacent((1, 2), (2, 3))
    assert not adjacent((1, 2), (3, 4))


def test_vertex_set_canonicalization_and_validation():
    u = vertex_set(4, 2, [(2, 1), (4, 3), (1, 2)])
    assert u.vertices == ((1, 2), (3, 4))
    with pytest.raises(DomainError):
        vertex_set(4, 2, [(1, 2, 3)])
    with pytest.raises(DomainError):
        vertex_set(4, 2, [(0, 1)])
    with pytest.raises(DomainError):
        vertex_set(4, 2, [(2, 2)])
