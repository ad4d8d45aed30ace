"""Automorphism group orders of pattern graphs.

An automorphism is a vertex permutation that maps edges to edges.  The
moment formulas need only the order of the group, so it is counted, never
listed: by orbit-stabiliser along the chain of point stabilisers.  Orbits
come from one backtracking search (degree pruning) that asks whether a
partial map extends to an automorphism and stops at the first one it finds;
the moment engine uses the same orbits to enumerate vertex tuples modulo the
group.  The tests cross-check the count against a brute-force filter over
all k! permutations.
"""

from __future__ import annotations

from .pattern import PatternGraph


def _adjacency(pattern: PatternGraph) -> list[int]:
    """Neighbour bitmask of every vertex."""
    adjacent = [0] * pattern.vertex_count
    for u, v in pattern.edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    return adjacent


def _extends(adjacent: list[int], fixed: int, source: int, target: int) -> bool:
    """Does some automorphism fix every vertex in the bitmask `fixed` and map
    source -> target (both outside `fixed`)?

    The fixed vertices map to themselves and source to target; the other
    vertices are assigned in turn.  A vertex x may take image w when w is
    unused, has x's degree, and its neighbours among the used images are
    exactly the images of x's neighbours assigned so far.
    """
    if adjacent[source] & fixed != adjacent[target] & fixed or (
        adjacent[source].bit_count() != adjacent[target].bit_count()
    ):
        return False
    k = len(adjacent)
    domain = [v for v in range(k) if fixed >> v & 1]
    image = domain + [target]  # image[j] is the image of domain[j]
    domain += [source] + [v for v in range(k) if not fixed >> v & 1 and v != source]

    def search(pos: int, used: int) -> bool:
        if pos == k:
            return True
        x = domain[pos]
        degree = adjacent[x].bit_count()
        wanted = sum(1 << image[j] for j in range(pos) if adjacent[x] >> domain[j] & 1)
        for w in range(k):
            if (
                not used >> w & 1
                and adjacent[w] & used == wanted
                and adjacent[w].bit_count() == degree
            ):
                image.append(w)
                if search(pos + 1, used | 1 << w):
                    return True
                image.pop()
        return False

    return search(len(image), fixed | 1 << target)


def _orbits(adjacent: list[int], fixed: int) -> dict[int, int]:
    """Orbits of the automorphisms that fix every vertex in the bitmask
    `fixed`, on the other vertices: {least vertex of an orbit: its size}."""
    sizes: dict[int, int] = {}
    for w in range(len(adjacent)):
        if not fixed >> w & 1:
            for rep in sizes:
                if _extends(adjacent, fixed, rep, w):
                    sizes[rep] += 1
                    break
            else:
                sizes[w] = 1
    return sizes


def automorphism_count(pattern: PatternGraph) -> int:
    """Order of the automorphism group; always divides k!.

    |Aut| is the product over v of the orbit size of v under the maps that
    fix 0..v-1 (orbit-stabiliser along the point-stabiliser chain).
    """
    k = pattern.vertex_count
    adjacent = _adjacency(pattern)
    order = 1
    for v in range(k):
        fixed = (1 << v) - 1
        order *= 1 + sum(_extends(adjacent, fixed, v, w) for w in range(v + 1, k))
    return order

