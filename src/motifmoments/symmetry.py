"""Automorphism group orders of pattern graphs.

An automorphism is a vertex permutation that maps edges to edges.  The
moment formulas need only the order of the group, so it is counted, never
listed: by orbit-stabiliser along the chain of point stabilisers, with a
backtracking search (degree pruning) that stops at the first automorphism it
finds.  A brute-force filter over all k! permutations is kept alongside as an
independent cross-check.
"""

from __future__ import annotations

from itertools import permutations

from .pattern import PatternGraph


def automorphism_count(pattern: PatternGraph) -> int:
    """Order of the automorphism group; always divides k!.

    |Aut| is the product over v of the orbit size of v under the maps that
    fix 0..v-1.  The orbit holds v itself (the identity) and every w > v for
    which a backtracking search extends (0..v-1 fixed, v -> w) to an
    automorphism; each search stops at its first completion.
    """
    k = pattern.vertex_count
    adjacent = [0] * k  # neighbour bitmasks
    for u, v in pattern.edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    degree = [mask.bit_count() for mask in adjacent]
    image = list(range(k))

    def candidates(v: int, used: int, start: int) -> list[int]:
        # images w >= start for v, given image[:v] and the set `used` of its values:
        # w is free, has v's degree, and its neighbours among the used images are
        # exactly the images of v's earlier neighbours
        target = sum(1 << image[u] for u in range(v) if adjacent[v] >> u & 1)
        return [
            w
            for w in range(start, k)
            if not used >> w & 1 and degree[w] == degree[v] and adjacent[w] & used == target
        ]

    def extends(v: int, w: int, used: int) -> bool:
        # does image[:v], with v -> w added, extend to an automorphism?
        image[v] = w
        used |= 1 << w
        return v + 1 == k or any(extends(v + 1, x, used) for x in candidates(v + 1, used, 0))

    order = 1
    for v in range(k):
        fixed = (1 << v) - 1  # 0..v-1 are mapped to themselves
        order *= 1 + sum(extends(v, w, fixed) for w in candidates(v, fixed, v + 1))
        image[v] = v
    return order


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
