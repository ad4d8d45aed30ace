"""Exact moment polynomials for subgraph counts in the uniform random graph.

The model is G(n, 1/2): every labeled graph on n nodes is equally likely,
each of the C(n, 2) possible edges being present independently with
probability 1/2.  For patterns A and B this module produces exact polynomials
in n for the expected count, for the expectation of the product of the two
counts, and for their covariance (the variance when A = B).

The second moment is a sum over pairs of placed copies, sorted by the
overlap (Janson, Luczak and Rucinski, *Random Graphs*, 2000, ch. 3).  Two
copies that share i vertices and c edges have all their edges present with
probability 2^-(eA+eB-c).  Matching an i-subset S of A's vertices, taken in
increasing order, with an ordered i-tuple t of B's vertices fixes such an
overlap; the remaining vertices of both copies can be placed in
(n)_{kA+kB-i} ways.  Hence

    E[X_A X_B] = 2^-(eA+eB) / (|Aut A| |Aut B|)
                 * sum_{i>=0} (n)_{kA+kB-i} * sum_{S,t} 2^popcount(mask_A(S) & mask_B(t))

where a mask is the induced edge set on the i slots.  The inner sum is
taken in one of two orders, whichever is expected to cost less.

Tuple order: the masks of every ordered tuple of B and every subset of A
are built in one pass per pattern.  Tuples in one orbit of the automorphism
group share their mask, so the tuple pass visits one representative per
orbit, about e * k! / |Aut| of them and at most e * k!, and counts each by
its orbit size.  A pass has two phases: the prefixes whose point stabiliser
is nontrivial are walked depth first, off a stack of prefixes, and counted
in one table per level; the subtree below a prefix whose stabiliser is
trivial, where every representative stands for |Aut| tuples, is expanded a
level at a time in bulk into one plain list of masks per level.  Every
prefix of the subset pass is of the second kind, so it expands one subtree
per first vertex.  An |Aut| = 1 tuple pass visits every ordered tuple, so
its masks are the adjacency read at slot pairs that do not depend on the
pattern: it is built column-wise instead, each level as byte planes (one
byte of every mask per plane) from a per-k table of slot columns, with no
integer per tuple (`_broadword.tuple_levels`, imported only then).  The pair
loop takes A's masks counted.  A long level of B's facing few distinct A
masks is paired whole by a broadword kernel (`_broadword.broadword`), which
takes |a & b| for one A mask a and every B mask b at once in a few
whole-string passes over B's byte planes, a list's packed first; any other
level is counted too and paired one pair of distinct masks at a time.
Where the representatives are fewer than A's 2^kA subsets, A's side is its
ordered tuples too (B's own pass when A == B): the inner sum over B's
tuples does not depend on the order of S, so each i-subset counts i! times
and level i's total is divided by i!.  Otherwise A's subsets are taken in
A's search order (`_in_search_order`), where they have fewer distinct masks
than under most labellings.

Edge-set order: 2^c is the number of sets J of common edges, so with P the
pattern with fewer edges and Q the other, and u = |V(J)|,

    sum_{S,t} 2^c = sum_{J subset E(P)} emb(J -> Q) * C(kP-u, i-u) * (kQ-u)_{i-u}

where emb(J -> Q) counts the injective maps that send J's edges to edges of
Q.  This costs at most 2^(eP) embedding counts and does not grow with k!.
The subsets J are those of P in its search order, each relabelled in order
of first appearance, and one count serves every J with the same relabelling,
so a path or cycle needs as many counts under any labelling (the search
order breaks ties of degree by the neighbours' degrees, then by label, so
other patterns' counts can move by a few percent).  Each count is taken
modulo Aut Q as the tuple pass is: maps that differ by an automorphism
fixing the images placed so far have as many completions, so one per orbit
is followed.  Both orders read a stabiliser's
orbits from one `symmetry._StabiliserOrbits` table per pattern and pass.

`_route` alone plans a pair, the same in either argument order: it picks
the order by the cost rule set out above `_TUPLE_SET_UP` (the edge-set order
for sparse pairs, such as the variances of path:7, cycle:8 and of every
pattern with at most 5 vertices and 3 edges), orients the pair, picks A's
side and puts the subset side in search order.  Both give the same integers.
All arithmetic is exact integer counting until one rational scale per
polynomial at the end; `covariance_poly` subtracts the product of the means
from the second moment in integers over the same scale.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Collection, Iterable
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, perm
from operator import itemgetter

from .algebra import RationalPolynomial, _Record
from .pattern import PatternGraph, _check_size
from .symmetry import _adjacency, _StabiliserOrbits, automorphism_count


class MomentReport(_Record):
    """Mean, second-moment and covariance polynomials for a pattern pair.

    second_moment is the overlap sum (see the module docstring) and
    covariance = second_moment - mean_a * mean_b, the variance of the count
    when pattern_a equals pattern_b.  Each is assembled in integers over one
    scale, |Aut| 2^e for a mean and |Aut A| |Aut B| 2^(eA+eB) for the other
    two, and each coefficient is one Fraction of an integer over it.
    """

    pattern_a: PatternGraph
    pattern_b: PatternGraph
    mean_a: RationalPolynomial
    mean_b: RationalPolynomial
    second_moment: RationalPolynomial
    covariance: RationalPolynomial
    aut_a: int
    aut_b: int


@lru_cache(maxsize=None)
def _falls(k: int) -> tuple[int, ...]:
    """The integer coefficients of (n)_k, lowest power first, by
    (n)_k = (n)_{k-1} * (n - k + 1) in integers."""
    if k == 0:
        return (1,)
    below = _falls(k - 1)
    return tuple(high - (k - 1) * low for high, low in zip((0, *below), (*below, 0)))


@lru_cache(maxsize=None)
def _falls_product(k_a: int, k_b: int) -> tuple[int, ...]:
    """The integer coefficients of (n)_kA (n)_kB, lowest power first."""
    product = [0] * (k_a + k_b + 1)
    falls_b = _falls(k_b)
    for i, a in enumerate(_falls(k_a)):
        for j, b in enumerate(falls_b):
            product[i + j] += a * b
    return tuple(product)


def _mean(pattern: PatternGraph, aut: int) -> RationalPolynomial:
    """(n)_k / (|Aut| 2^e): the integer coefficients of (n)_k over that scale."""
    scale = aut * 2**pattern.edge_count
    return RationalPolynomial(Fraction(c, scale) for c in _falls(pattern.vertex_count))


def mean_poly(pattern: PatternGraph) -> RationalPolynomial:
    """Expected number of copies of the pattern, as a degree-k polynomial.

    Ordered injective placements (the falling factorial) divided by the
    automorphism count, times the probability 2^-edges that one placement's
    edges are all present.
    """
    _check_size(pattern.vertex_count)
    return _mean(pattern, automorphism_count(pattern))


@lru_cache(maxsize=None)
def _candidates(k: int, ordered: bool) -> tuple[tuple[int, ...], ...]:
    """By a prefix's vertex set: the vertices placed next once its stabiliser
    is trivial, the free ones for a tuple and those above the last for a
    subset."""
    if not ordered:
        tails = [tuple(range(start, k)) for start in range(k + 1)]
        return tuple(tails[used.bit_length()] for used in range(1 << k))
    free = [tuple(range(k))]
    for top in range(k):  # the sets whose highest vertex is top
        free += [f[: (i := f.index(top))] + f[i + 1 :] for f in free]
    return tuple(free)


def _in_search_order(pattern: PatternGraph) -> PatternGraph:
    """The pattern relabelled in depth-first order: each component from an
    unlabelled vertex of least degree, the neighbours of least degree first,
    ties of degree broken by the sorted degrees of the vertices' neighbours.

    The overlap sums do not depend on the labels, but the work of a subset
    side does: its edge subsets, or vertex subsets, that differ by a shift
    along a path or cycle of the pattern get one key, or mask, when the
    labels run along it.  path:8's 127 nonempty edge subsets need 33
    embedding counts in this order, and 68-77 under six random labellings.
    With the neighbours' degrees, the subset sides of the asym6 patterns
    have one count of distinct masks under 40 random labellings, where
    asym6-3, asym6-7 and asym6-8 had 29-32 by degree alone.  Remaining ties
    fall to the input labels, so on other patterns the work can still vary a
    little with them.
    """
    k = pattern.vertex_count
    adjacent = _adjacency(pattern)
    degree = [a.bit_count() for a in adjacent]
    by_degree = sorted(
        range(k), key=lambda x: (degree[x], sorted(degree[y] for y in range(k) if adjacent[x] >> y & 1))
    )
    label = [0] * k
    seen = 0
    for root in by_degree:
        stack = [root]
        while stack:
            x = stack.pop()
            if not seen >> x & 1:
                label[x] = seen.bit_count()
                seen |= 1 << x
                fresh = adjacent[x] & ~seen
                stack += [y for y in reversed(by_degree) if fresh >> y & 1]
    edges = [(x, y) if (x := label[u]) < (y := label[v]) else (y, x) for u, v in pattern.edges]
    return PatternGraph._of_valid(k, frozenset(edges))


def _mask_tables(
    pattern: PatternGraph, depth: int, aut: int = 0
) -> tuple[list[Counter[int]], list[Collection[int]]]:
    """(tables, bulk): the induced slot-pair masks of the pattern's i-vertex
    selections, with multiplicities, for i up to depth.  Level i is the
    weighted Counter tables[i] together with bulk[i], each of whose masks
    stands for max(aut, 1) selections: a plain list, or for an |Aut| = 1
    tuple pass byte planes (`_broadword.Planes`), which iterate as masks.

    Without `aut` a selection is an i-subset in increasing vertex order
    (`_route` plans this pass on the pattern in search order).  With
    aut = |Aut(pattern)| it is an ordered i-tuple of distinct vertices, and
    the tuples are enumerated modulo the group: t and sigma(t) have the same
    mask, so a node with prefix p places one representative w of each orbit
    of G_p, the automorphisms fixing p pointwise, and counts it weight*|G_p w|
    times, the number of tuples its prefix stands for.  By orbit-stabiliser
    |G_p| = aut / weight, so once the weight reaches aut the stabiliser is
    trivial and every free vertex is its own orbit.  That is about
    e * k! / aut representatives, at most e * k!.  G_p depends only on the
    set of p, so the representatives and orbit sizes are read from the
    pattern's orbit table, which finds them once per set.

    The pass has two phases.  Prefixes whose stabiliser is nontrivial are
    walked depth first, each popped from a stack of the prefixes still to
    extend, and counted with their weights in `tables`.  Below a prefix whose
    stabiliser is trivial every selection stands for max(aut, 1) of them
    (every prefix of the subset pass is such a prefix), so its subtree is
    expanded one level at a time instead: one list of (mask, used, packed)
    states per level, whose masks are appended to `bulk` uncounted, and no
    states for the deepest level, whose masks are appended as they are made.
    Each such subtree is expanded as soon as its root is made, and the root
    of the pass is always walked, so the subset pass holds the states of one
    first vertex's subtree at a time.

    An |Aut| = 1 tuple pass takes neither phase.  Every ordered tuple is its
    own representative, so `_broadword.tuple_levels` reads each level off a
    per-k table of slot-pair columns, at about a tenth of the walk's cost
    (0.04 against 0.41 ms at k = 6, 1.9 against 28 ms at k = 8), and keeps
    a few bytes a mask where a list of integers took tens.  Where a prefix's
    stabiliser is nontrivial, the subtrees hang below prefixes that depend
    on the pattern, so the walk stays.

    Slot pair (j, p), j < p, is bit p(p-1)/2 + j, so placing w at slot p adds
    the pairs of p with the slots of w's placed neighbours.  Those travel down
    the pass in one integer whose field w, bits w*d to w*d+d-1 (d = depth - 1:
    the last slot pairs with no later one), holds w's.  Placing w at slot p
    ORs in bit x*d + p for each neighbour x of w, so nothing is undone.
    """
    if aut == 1:
        from ._broadword import tuple_levels

        return [Counter() for _ in range(depth + 1)], tuple_levels(pattern, depth)
    k = pattern.vertex_count
    d = depth - 1
    spread, field = [0] * k, (1 << d) - 1
    for u, v in pattern.edges:
        spread[u] |= 1 << v * d
        spread[v] |= 1 << u * d
    orbits = _StabiliserOrbits(pattern)
    tables: list[Counter[int]] = [Counter() for _ in range(depth + 1)]
    bulk: list[list[int]] = [[] for _ in range(depth + 1)]
    after = _candidates(k, aut > 0)
    scale = max(aut, 1)  # the weight of a prefix with a trivial stabiliser

    def expand(top: int, states: list[tuple[int, int, int]]) -> None:
        for size in range(top, depth):
            shift = size * (size - 1) // 2
            if size + 1 < depth:
                states = [
                    (mask | (packed >> w * d & field) << shift, used | 1 << w, packed | spread[w] << size)
                    for mask, used, packed in states
                    for w in after[used]
                ]
                if not states:  # a subset's subtree ends once no vertex is left above it
                    return
                bulk[size + 1] += map(itemgetter(0), states)
            else:
                bulk[size + 1] += (
                    mask | (packed >> w * d & field) << shift
                    for mask, used, packed in states
                    for w in after[used]
                )

    walk = [(0, 1, 0, 0, 0)]  # (size, weight, mask, used, packed) of each walked prefix
    while walk:
        size, weight, mask, used, packed = walk.pop()
        table = tables[size + 1]
        get = table.get
        shift = size * (size - 1) // 2
        placed = orbits[used] if weight < aut else dict.fromkeys(after[used], 1)
        for w, orbit in placed.items():
            grown = mask | (packed >> w * d & field) << shift
            count = weight * orbit
            table[grown] = get(grown, 0) + count
            if size + 1 < depth:
                state = grown, used | 1 << w, packed | spread[w] << size
                if count == scale:
                    expand(size + 1, [state])
                else:
                    walk.append((size + 1, count, *state))
    return tables, bulk


def _sums_by_tuples(
    pattern_a: PatternGraph, pattern_b: PatternGraph, aut_a: int, aut_b: int
) -> list[int]:
    """The overlap sums from the tuple tables of B (kB <= kA) and the tables
    of A: its tuple tables, B's own if A == B, when aut_a is |Aut A|, and its
    subset tables when aut_a is 0, as `_route` plans (see the module docstring).

    A level's pair loop takes A's masks counted.  When B's bulk at the level
    is wide and A has few distinct masks, it is paired whole by the
    broadword kernel, as byte planes (a list packed first), apart from B's
    walked masks and with B's weight |Aut B| taken out; otherwise B's masks
    are counted too and paired one pair of distinct masks at a time.  The
    widest levels come first and each is freed once summed, so a wide
    level's pair loop never runs beside a wider level's masks.
    """
    depth = pattern_b.vertex_count
    tables_b, bulk_b = _mask_tables(pattern_b, depth, aut_b)
    same = aut_a and pattern_a == pattern_b
    tables_a, bulk_a = (tables_b, bulk_b) if same else _mask_tables(pattern_a, depth, aut_a)
    scale_a = max(aut_a, 1)
    sums = [1] + [0] * depth
    for i in range(depth, 0, -1):
        table_b, masks_b = tables_b[i], bulk_b[i]
        wide = len(masks_b) >= _BROADWORD_MIN
        if same:  # A's side is B's own tables; keep B's walked masks apart if wide
            table_a = _folded(Counter(table_b) if wide else table_b, masks_b, scale_a)
        else:
            table_a = _folded(tables_a[i], bulk_a[i], scale_a)
        if wide and len(table_a) < _COUNT_MIN:
            from ._broadword import Planes, broadword

            if isinstance(masks_b, list):
                masks_b = Planes.packed(masks_b, i * (i - 1) // 2)
            listed = broadword(table_a.items(), masks_b)
            total = _pairs(table_a.items(), table_b.items()) + aut_b * listed
        else:
            table_b = table_a if same else _folded(table_b, masks_b, aut_b)
            total = _pairs(table_a.items(), table_b.items())
        tables_a[i] = tables_b[i] = bulk_a[i] = bulk_b[i] = None
        sums[i] = total // (factorial(i) if aut_a else 1)
    return sums


def _folded(table: Counter[int], masks: Iterable[int], scale: int) -> Counter[int]:
    """The table, with scale added in place for each of the masks."""
    if scale == 1:
        table.update(masks)
    else:
        get = table.get  # `+=` on a Counter calls its Python-level __missing__ per new mask
        for mask in masks:
            table[mask] = get(mask, 0) + scale
    return table


def _pairs(items_a: Iterable[tuple[int, int]], items_b: Iterable[tuple[int, int]]) -> int:
    """The sum of count_a * count_b * 2^|a & b| over two sides' (mask, count)
    items, one pair of masks at a time.  Plain loops, not `sum` over
    generators: a level of a clique holds one mask a side, and the two
    generators cost more than its one pair."""
    total = 0
    for mask_a, count_a in items_a:
        row = 0
        for mask_b, count_b in items_b:
            row += count_b << (mask_a & mask_b).bit_count()
        total += count_a * row
    return total


# A level's pair loop is chosen from the sizes of its sides alone.  In
# process (2-vCPU Intel Xeon, Python 3.11.7) the broadword kernel costs
# about 2-4 us per A mask plus 5-25 ns per B mask, packing a list into
# planes 11-14 ns per mask, and the pair loop 65-75 ns per pair of distinct
# masks, so the kernel pays from about 64 B masks on.  Lists shorter than
# _BROADWORD_MIN are counted and paired one pair at a time: every level of a
# pattern with at most 5 vertices (at most 5! = 120 masks) and of clique:7/8
# and star:6/7 stays on that path.  Counting costs 30-80 ns per mask for a
# list and 1.2 times that for planes, which are interleaved into rows
# first, about as much as one A mask's kernel pass; so from _COUNT_MIN
# distinct A masks on B's masks are counted and paired one pair of distinct
# masks at a time instead.  Both thresholds come from timing every level of
# cycle:7 and of |Aut| = 1 patterns with 6-9 vertices each way
# (BENCH_broadword.json).  Retimed once |Aut| = 1 tuple passes gave the
# kernel planes with no packing, on 85 levels with at least 100 masks
# (cycle:7, one |Aut| = 2 and 16 |Aut| = 1 patterns with 6-8 vertices):
# both still hold.  Levels of 120-336 planes' masks with 5-8 A masks take
# 0.65-1.45 times as long counted as by the kernel, and the levels' total is
# flat for any _COUNT_MIN from 12 to 24.  No threshold on A alone fits
# k = 8, where level 4 (25-31 A masks, 1,680 B masks, at most 2^6 of them
# distinct) is 2.4-3.7 times faster counted and level 6 (26-28 A masks,
# 20,160 B masks) 1.1-1.6 times faster by the kernel on four patterns of
# five (0.85 on the fifth).
_BROADWORD_MIN = 128
_COUNT_MIN = 16


def _sums_by_edge_sets(
    pattern_a: PatternGraph, pattern_b: PatternGraph, aut_a: int, aut_b: int
) -> list[int]:
    """The overlap sums over the sets J of common edges of P = A and Q = B
    (see the module docstring; either pattern may be P): J fixes the images
    of its u vertices, and the other i - u vertices of S are any of P's
    remaining vertices, placed in order on any of Q's.  The J are the edge
    subsets of P, which `_route` puts in search order.  emb(J -> Q) is
    memoised per J relabelled in order of first appearance, and counted
    modulo Aut Q (aut_b), every J reading one orbit table of Q; the empty J
    has one map.  J's key and its
    vertices in that order extend those of J less its highest edge, which
    come first in the enumeration, so each subset costs one step, not one
    per edge.
    """
    edges = pattern_a.sorted_edges()
    adjacent = _adjacency(pattern_b)
    orbits = _StabiliserOrbits(pattern_b)  # shared by every J
    k_a, k_b = pattern_a.vertex_count, pattern_b.vertex_count
    by_size = [1] + [0] * k_a  # sum of emb(J -> Q) over the J with u vertices
    memo: dict[tuple[tuple[int, int], ...], int] = {}
    keys: list[tuple[tuple[int, int], ...]] = [()]  # by subset bits, as memo's keys
    firsts: list[tuple[int, ...]] = [()]  # by subset bits, J's vertices by first appearance
    for bits in range(1, 1 << len(edges)):
        top = bits.bit_length() - 1
        parent = bits ^ 1 << top
        x, y = edges[top]
        first = firsts[parent]
        if x not in first:
            first += (x,)
        if y not in first:
            first += (y,)
        key = keys[parent] + ((first.index(x), first.index(y)),)
        keys.append(key)
        firsts.append(first)
        if key not in memo:
            memo[key] = _embedding_count(key, len(first), adjacent, aut_b, orbits)
        by_size[len(first)] += memo[key]
    depth = min(k_a, k_b)
    return [
        sum(by_size[u] * comb(k_a - u, i - u) * perm(k_b - u, i - u) for u in range(i + 1))
        for i in range(depth + 1)
    ]


def _embedding_count(
    edges: tuple[tuple[int, int], ...],
    u: int,
    adjacent: list[int],
    aut: int,
    orbits: _StabiliserOrbits,
) -> int:
    """Injective maps of vertices 0..u-1 into the graph Q with neighbour masks
    `adjacent` that send every edge to an edge.  `_sums_by_edge_sets` calls
    this once per key, an edge subset of P in search order relabelled in
    order of first appearance, and counts the empty subset's one map itself.

    The vertices are placed one component after another, each in depth-first
    order, so every vertex but a component's first has an earlier neighbour
    and its candidates are the free common neighbours of those images.  At a
    component's first vertex the earlier components are complete, so the
    count of the rest depends only on the free vertices and is memoised.

    The maps are counted modulo Aut Q (aut = |Aut Q|).  G_used, the
    automorphisms fixing every placed image, maps the free common neighbours
    of any of them onto themselves, so every candidate set is a union of its
    orbits, and two candidates in one orbit have as many completions: one
    representative per orbit is placed and counted orbit-size times.  As in
    `_mask_tables` the weight, the product of those sizes, is aut / |G_used|;
    once it reaches aut the stabiliser is trivial and every candidate is
    placed.  G_used's orbits are `orbits[used]`, read from the orbit table of
    Q or of any graph with Q's automorphisms, such as Q's complement; the
    caller shares one table among the edge sets of one target.
    """
    neighbours = [0] * u
    for x, y in edges:
        neighbours[x] |= 1 << y
        neighbours[y] |= 1 << x
    order: list[int] = []
    seen = 0
    for root in range(u):
        stack = [] if seen >> root & 1 else [root]
        seen |= 1 << root
        while stack:
            x = stack.pop()
            order.append(x)
            fresh = neighbours[x] & ~seen
            seen |= fresh
            stack += [y for y in range(u) if fresh >> y & 1]
    earlier = [[j for j in range(i) if neighbours[x] >> order[j] & 1] for i, x in enumerate(order)]
    images = [0] * u  # neighbour mask of each placed vertex's image
    memo: dict[tuple[int, int], int] = {}
    full = (1 << len(adjacent)) - 1

    def place(i: int, free: int, weight: int) -> int:
        if not earlier[i] and (i, free) in memo:
            return memo[i, free]
        candidates = free
        for j in earlier[i]:
            candidates &= images[j]
        if i == u - 1:
            return candidates.bit_count()
        total = 0
        if weight < aut:
            for w, orbit in orbits[full ^ free].items():
                if candidates >> w & 1:
                    images[i] = adjacent[w]
                    total += orbit * place(i + 1, free ^ 1 << w, weight * orbit)
        else:
            while candidates:
                low = candidates & -candidates
                images[i] = adjacent[low.bit_length() - 1]
                total += place(i + 1, free ^ low, weight)
                candidates ^= low
        if not earlier[i]:
            memo[i, free] = total
        return total

    total = place(0, full, 1) if u else 1
    del place  # the closure refers to itself; unbound, it leaves no cycle
    return total


# `_route`'s rule: one edge subset of the edge-set order costs about
# 7 e^2 (1 + kQ/|Aut Q|) / 20 representatives of the tuple order, e being P's
# edge count: the subset's key takes e steps, its embedding count grows with
# the subset, and Q's orbits cut it.  The tuple order also pays
# _TUPLE_SET_UP representatives per call, for its tables and orbit searches.
# Fitted on both orders timed in process (means of 5-15 interleaved runs,
# garbage collection on, 2-vCPU Intel Xeon, Python 3.11.7) over 337 pairs:
# every isomorphism class with k <= 6, path:7/8, cycle:7/8, star:7,
# clique:7/8, four |Aut| = 1 six-vertex patterns with 8-9 edges, 20 |Aut| = 1
# eight-vertex patterns with 6-9 edges, 71 seeded 7- and 8-vertex patterns
# with 5-14 edges and 27 covariance pairs.  The faster order takes 4.65 s in
# all; this rule loses 2.6 ms, at most 0.6 ms on one pair (an |Aut| = 1
# six-vertex pattern with 6 edges: 1.8 ms by tuples against 1.2 ms).  On 147
# pairs drawn with other seeds it loses 6.3 ms of 4.80 s, at most 5.0 ms.
# Timed as best of 3-9 runs with garbage collection off instead, the two
# samples lose 19 and 39 ms.  cycle:7 sits on the boundary: its edge sets took
# 0.86-1.24 times its tuple time over the four samples.  Rechecked once the
# tuple pass expanded subtrees below a trivial stabiliser level by level: over
# 304 pairs (254 of this sample's, the route tests' patterns and 30 seeded
# |Aut| <= 4 patterns with 7-8 vertices and 6-10 edges) the rule loses 1.2 ms
# of 0.92 s, and 1.0 ms on the 254 rows, where it lost 1.6 ms before.
# Rechecked on random labels once both orders took subsets in search order:
# over two seeded relabellings of the route tests' 44 patterns and 14
# covariance pairs (116 pairs, medians of 5 interleaved runs) the rule loses
# 0.8 and 1.1 ms of 0.61 and 0.46 s for two seeds, at most 0.25 ms on one pair
# (path:6 with an |Aut| = 1 six-vertex pattern with 8 edges, 0.9-1.1 ms by
# tuples against 0.7-0.8 ms).  No set-up from 0 to 500 saves more than
# 0.2 ms over both samples, less than their run-to-run spread, so it stays.
# Under those labels cycle:7's edge sets took 0.88-1.17 times its tuple
# time, where they took 1.01-1.33 times before.  Rechecked once the tuple
# order paired long lists by the broadword kernel: over the route tests' 53
# variance patterns and 14 covariance pairs, as built and under one seeded
# relabelling (65 pairs each, the edge-set order untimed where the sparser
# pattern has more than 16 edges; medians of 5 interleaved runs), the rule
# loses 0.22 and 0.17 ms of 0.18 s each, where it lost 0.35 and 0.37 ms
# on the same pairs before.  Its largest loss moved from path:6 with an
# |Aut| = 1 six-vertex pattern with 8 edges (tuples 1.2 times edge sets
# before, 0.97-1.0 now) to star:5 with cycle:8 (tuples 1.2-1.4 times).
# cycle:7 is no longer a tie: its edge sets take 1.6 times its tuple time.
# The rule loses less than it did, so the constant stays.
_TUPLE_SET_UP = 50


def _tuple_count(pattern: PatternGraph, aut: int) -> int:
    """About how many representatives the tuple pass visits: e * k! / |Aut|."""
    return pattern.edge_count * factorial(pattern.vertex_count) // aut


def _route(
    pattern_a: PatternGraph, pattern_b: PatternGraph, aut_a: int, aut_b: int
) -> tuple[Callable[..., list[int]], PatternGraph, PatternGraph, int, int]:
    """The pair's plan (order, first, second, aut_first, aut_second): the
    overlap sums are order(first, second, aut_first, aut_second), whichever
    pattern comes first; sums[i] sums 2^popcount(mask_A(S) & mask_B(t)) over
    i-subsets S of A and ordered i-tuples t of B, and sums[0] = 1.

    The tuple side has fewer vertices, then fewer tuple representatives, then,
    between two different patterns, the smaller sorted edge list.  The
    edge-set order takes P, the pattern with fewer edges (the other one on a
    tie), as first, in search order, when its 2^eP subsets should cost less
    than the tuple side's representatives and set-up (see the constant).
    Else the tuple order takes A first: ordered (aut_first = |Aut A|) when
    its tuple representatives are fewer than its 2^kA subsets, and otherwise
    on its subsets (aut_first = 0) in search order.
    """
    key_a = pattern_a.vertex_count, _tuple_count(pattern_a, aut_a)
    key_b = pattern_b.vertex_count, _tuple_count(pattern_b, aut_b)
    if key_b > key_a or (
        key_b == key_a and pattern_a != pattern_b and pattern_b.sorted_edges() > pattern_a.sorted_edges()
    ):
        pattern_a, pattern_b, aut_a, aut_b, key_a, key_b = pattern_b, pattern_a, aut_b, aut_a, key_b, key_a
    p, q, aut_p, aut_q = pattern_a, pattern_b, aut_a, aut_b  # B is the tuple side
    if p.edge_count > q.edge_count:
        p, q, aut_p, aut_q = q, p, aut_q, aut_p
    e = p.edge_count
    if 7 * 2**e * e * e * (aut_q + q.vertex_count) < 20 * aut_q * (key_b[1] + _TUPLE_SET_UP):
        return _sums_by_edge_sets, _in_search_order(p), q, aut_p, aut_q
    if key_a[1] >= 2 ** key_a[0]:  # A's side is its subsets
        pattern_a, aut_a = _in_search_order(pattern_a), 0
    return _sums_by_tuples, pattern_a, pattern_b, aut_a, aut_b


def second_moment_poly(pattern_a: PatternGraph, pattern_b: PatternGraph) -> RationalPolynomial:
    """Exact polynomial for E[count_A * count_B], summed over every overlap
    of two placed copies, the empty overlap included."""
    _check_size(pattern_a.vertex_count)
    _check_size(pattern_b.vertex_count)
    aut_a = automorphism_count(pattern_a)
    aut_b = aut_a if pattern_b == pattern_a else automorphism_count(pattern_b)
    # sum_i overlap_i * (n)_{k-i} in integer coefficients, then one division
    k = pattern_a.vertex_count + pattern_b.vertex_count
    total = [0] * (k + 1)
    order, *plan = _route(pattern_a, pattern_b, aut_a, aut_b)
    for i, overlap in enumerate(order(*plan)):
        for power, coeff in enumerate(_falls(k - i)):
            total[power] += overlap * coeff
    scale = aut_a * aut_b * 2 ** (pattern_a.edge_count + pattern_b.edge_count)
    return RationalPolynomial(Fraction(c, scale) for c in total)


def covariance_poly(
    pattern_a: PatternGraph, pattern_b: PatternGraph, workers: int = 1
) -> MomentReport:
    """Covariance of the two subgraph counts, with all components bundled.

    covariance = second_moment - mean_a * mean_b, formed in integers over
    the second moment's scale |Aut A| |Aut B| 2^(eA+eB): the second moment's
    numerators over it, recovered exactly from its coefficients, less the
    convolution of (n)_kA and (n)_kB, which is mean_a * mean_b over it and
    is kept per (kA, kB).
    Only the empty overlap reaches degree kA + kB, so the leading
    coefficient is exactly 1/scale; |Aut A| |Aut B| is read from it, and A's
    group is searched again only when A != B.

    `workers` must be >= 1 and has no other effect; the output is the same
    for every value.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    second = second_moment_poly(pattern_a, pattern_b)
    scale = second.coeffs[-1].denominator
    auts = scale >> (pattern_a.edge_count + pattern_b.edge_count)
    same = pattern_a == pattern_b
    aut_a = isqrt(auts) if same else automorphism_count(pattern_a)
    aut_b = auts // aut_a
    mean_a = _mean(pattern_a, aut_a)
    products = _falls_product(pattern_a.vertex_count, pattern_b.vertex_count)
    # both have degree kA + kB
    numerators = [c.numerator * (scale // c.denominator) - p for c, p in zip(second.coeffs, products)]
    return MomentReport(
        pattern_a=pattern_a,
        pattern_b=pattern_b,
        mean_a=mean_a,
        mean_b=mean_a if same else _mean(pattern_b, aut_b),
        second_moment=second,
        covariance=RationalPolynomial(Fraction(c, scale) for c in numerators),
        aut_a=aut_a,
        aut_b=aut_b,
    )


def variance_poly(pattern: PatternGraph, workers: int = 1) -> MomentReport:
    """Variance of the subgraph count: the covariance of a pattern with itself.

    `workers` must be >= 1 and has no other effect.
    """
    return covariance_poly(pattern, pattern, workers=workers)
