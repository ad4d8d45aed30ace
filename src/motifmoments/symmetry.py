"""Automorphism group orders of pattern graphs.

An automorphism is a vertex permutation that maps edges to edges.  The
moment formulas need only the order of the group, so it is counted, never
listed: by orbit-stabiliser along the chain of point stabilisers.  Orbits
come from a backtracking search (degree pruning) for an automorphism that
maps one vertex to another; every automorphism it finds is kept, and all its
cycles are merged into the orbit partition, so one search often settles a
whole orbit.  The partition starts from the twin classes: when u and v are
twins, N(u) - {v} = N(v) - {u}, the transposition (u v) is an automorphism,
so clique:8, whose automorphisms are all products of such, needs no search.
This is the orbit and twin pruning of McKay and Piperno, *Practical graph
isomorphism II* (2014), applied to the search itself.  The moment engine
reads the stabilisers' orbits from one `_StabiliserOrbits` table per pattern.
The tests cross-check the count and the orbits against a brute-force filter
over all k! permutations.
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


def _twin_classes(adjacent: list[int]) -> list[int]:
    """The classes of two or more twins, as bitmasks.  u and v are twins when
    N(u) - {v} = N(v) - {u}: N(u) = N(v) if they are not adjacent, N[u] = N[v]
    if they are.  No N(x) is an N[y] (it would hold y, so x in N[y] = N(x)),
    and no vertex has twins of both kinds: the classes are the groups of
    equal N(u) or N[u]."""
    groups: dict[int, int] = {}
    for u, around in enumerate(adjacent):
        for key in (around, around | 1 << u):
            groups[key] = groups.get(key, 0) | 1 << u
    return [members for members in groups.values() if members & (members - 1)]


def _seeded(k: int, fixed: int, twins: list[int]) -> list[int]:
    """The partition label of `_settle` in which each twin class, less the
    vertices in the bitmask `fixed`, is one class: swapping two twins fixes
    every other vertex, so two free twins share an orbit of the stabiliser."""
    label = list(range(k))
    for members in twins:
        free = [x for x in range(k) if (members & ~fixed) >> x & 1]
        for x in free:
            label[x] = free[0]
    return label


def _search(adjacent: list[int], fixed: int, source: int, target: int) -> list[int] | None:
    """An automorphism that fixes every vertex in the bitmask `fixed` and maps
    source -> target (both outside `fixed`), as the list of images, or None.

    The fixed vertices map to themselves and source to target; the other
    vertices are assigned in turn.  A vertex x may take image w when w is
    unused, has x's degree, and its neighbours among the used images are
    exactly the images of x's neighbours assigned so far.
    """
    if adjacent[source] & fixed != adjacent[target] & fixed or (
        adjacent[source].bit_count() != adjacent[target].bit_count()
    ):
        return None
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

    found = search(len(image), fixed | 1 << target)
    del search  # the closure refers to itself; unbound, it leaves no cycle
    if not found:
        return None
    images = [0] * k
    for x, w in zip(domain, image):
        images[x] = w
    return images


def _settle(adjacent: list[int], fixed: int, v: int, label: list[int]) -> None:
    """Grow v's class of the partition `label` into v's full orbit under the
    automorphisms fixing `fixed`.

    label[x] is the least vertex known to share x's orbit; label[v] == v, and
    every class with a label below v is already a whole orbit.  Targets
    w > v are tried from the highest down, skipping those already placed;
    each automorphism found merges all of its cycles into the partition, and
    a failed search rules out only its own pair.
    """
    for w in range(len(adjacent) - 1, v, -1):
        if label[w] <= v or fixed >> w & 1:
            continue
        images = _search(adjacent, fixed, v, w)
        if images is None:
            continue
        for x, y in enumerate(images):
            low, high = sorted((label[x], label[y]))
            if low != high:
                for z, name in enumerate(label):
                    if name == high:
                        label[z] = low


class _StabiliserOrbits(dict):
    """table[fixed]: the orbits of the automorphisms that fix every vertex in
    the bitmask `fixed`, on the other vertices, as {least vertex: size}.  Each
    is settled on its first lookup and kept; the twin classes that seed the
    searches are found on the first, so an unread table costs nothing more."""

    def __init__(self, pattern: PatternGraph) -> None:
        self._adjacent = _adjacency(pattern)
        self._twins: list[int] | None = None

    def __missing__(self, fixed: int) -> dict[int, int]:
        adjacent = self._adjacent
        if self._twins is None:
            self._twins = _twin_classes(adjacent)
        label = _seeded(len(adjacent), fixed, self._twins)
        sizes: dict[int, int] = {}
        for w in range(len(adjacent)):
            if not fixed >> w & 1:
                if label[w] == w:
                    _settle(adjacent, fixed, w, label)
                sizes[label[w]] = sizes.get(label[w], 0) + 1
        self[fixed] = sizes
        return sizes


def automorphism_count(pattern: PatternGraph) -> int:
    """Order of the automorphism group; always divides k!.

    |Aut| is the product over v of the orbit size of v under the maps that
    fix 0..v-1 (orbit-stabiliser along the point-stabiliser chain).  Each
    level's partition starts from the twin classes, found once per call.
    """
    k = pattern.vertex_count
    adjacent = _adjacency(pattern)
    twins = _twin_classes(adjacent)
    order = 1
    for v in range(k):
        label = _seeded(k, (1 << v) - 1, twins)
        _settle(adjacent, (1 << v) - 1, v, label)
        order *= label.count(v)
    return order
