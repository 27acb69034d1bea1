"""Isomorphism-free catalogs of small graphs.

Graphs on n vertices are generated from the catalog on n-1 vertices by
canonical augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998). Each parent P is extended by a new vertex v
attached to one neighbourhood from each orbit of Aut(P) on the subsets of
V(P), the least member of the orbit. The child C = P + v is kept only if v
is the canonical vertex to delete from C: v must have the largest degree in
C, then among the vertices tied with it the largest sorted list of
neighbour degrees, then among those still tied the least certificate of
C - t (C - v is P itself). This ranking is invariant under isomorphism.
The rule is exact:

- completeness: for any graph C, take the t* that ranks first (largest
  degree, then neighbour degrees, then least cert(C - t*)); C - t* is
  isomorphic to a catalogued parent P, and P extended by the image of
  N(t*) is accepted and isomorphic to C. An automorphism of P that maps
  one neighbourhood onto another extends to an isomorphism of the
  children that fixes v, so the orbit's least member gives C as well;
- uniqueness across parents: if accepted children P1 + v1 and P2 + v2 are
  isomorphic by f, then f(v1) and v2 both rank first in P2 + v2, so equal
  least certificates give P1 = (P1 + v1) - v1 ~ (P2 + v2) - f(v1) ~ P2:
  the same catalogued parent;
- uniqueness within a parent: call a child tied if some vertex t that is
  not a twin of v (swapping t and v is not an automorphism) ranks first
  with it, that is with cert(C - t) = cert(P). In an untied child the
  vertices ranking first are v and its twins, which form one twin class.
  An isomorphism f between two untied children maps v1 into v2's twin
  class, so after a twin swap it maps v1 to v2 and restricts to an
  automorphism of P taking N(v1) onto N(v2): the same orbit, extended
  once. f maps twin classes onto twin classes, so a tied child, whose
  first-ranked vertices span two classes, is never isomorphic to an
  untied one. Only tied children are deduplicated, by their own
  certificates.

The least neighbourhood of an isomorphism class is the least member of
its orbit and is met first, so each class keeps the representative it
had when every accepted child was deduplicated by certificate.

Certificates are looked up before they are searched for. Colour
refinement gives, besides the colours the search orders by, an
isomorphism invariant: the hash of the sorted final vertex signatures.
When level n is built, level n-1 is complete, so each C - t is
isomorphic to exactly one catalogued graph, which has the invariant of
C - t. If no other catalogued graph has it, that graph is the one, and
cert(C - t) is its least code, since equal certificates mean isomorphic
graphs. Only a C - t whose invariant several catalogued graphs share is
certified by its own search. Each catalogued graph is searched once, at
its first lookup or its own expansion, and keeps its least code after
that. Isomorphic tied children have equal invariants too, so
certificates are computed only among tied children that share one.

Sizes are capped at MAX_CATALOG_N; the known counts for n <= 8 are
1, 2, 4, 11, 34, 156, 1044, 12346 graphs (of which 1, 1, 2, 6, 21, 112,
853, 11117 are connected), and the test suite pins these.

The certificate is a minimum adjacency code over all vertex orderings
sorted by refined color, searched with prefix pruning and a twin skip
(interchangeable vertices generate the same subtree), which keeps the
degenerate symmetric cases like complete and empty graphs cheap. The same
search, run once per parent, yields generators of Aut(P): every ordering
that reaches the least code, and every twin pair it skipped.
"""

from __future__ import annotations

from .graph import Graph, _bits


def _refine(n: int, masks: list) -> tuple:
    """Iterated neighbour-multiset colour refinement: the final colours,
    canonical ints, and an isomorphism invariant, the hash of the sorted
    final (colour, sorted neighbour colours) signatures."""
    colors = [m.bit_count() for m in masks]
    nbrs = [_bits(m) for m in masks]
    sigs = []
    for _ in range(n):
        sigs = [(colors[v], tuple(sorted([colors[u] for u in nbrs[v]]))) for v in range(n)]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [relabel[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors, hash(tuple(sorted(sigs)))


def _interchangeable(masks: list, a: int, b: int) -> bool:
    """True iff swapping a and b (fixing everything else) is an automorphism."""
    return masks[a] & ~(1 << b) == masks[b] & ~(1 << a)


def _search(n: int, masks: list) -> tuple:
    """The least adjacency code of a graph on n vertices, every ordering
    that reaches it, and the twin pairs the search skipped.

    Row i of the code holds vertex i's adjacency bits to vertices placed
    before it, minimized lexicographically over the orderings sorted by
    refined color. Prefix pruning cuts only strictly larger prefixes, so
    every ordering that reaches the least code and is not cut by a twin
    skip is returned.
    """
    colors = _refine(n, masks)[0]
    target = sorted(colors)
    best: tuple | None = None
    orders: list = []
    twins: set = set()

    def rec(placed: list, rows: list, remaining: set):
        nonlocal best, orders
        p = len(placed)
        if p == n:
            code = tuple(rows)
            if best is None or code < best:
                best = code
                orders = [tuple(placed)]
            elif code == best:
                orders.append(tuple(placed))
            return
        need = target[p]
        reps = []
        for v in sorted(remaining):
            if colors[v] != need:
                continue
            for u in reps:
                if _interchangeable(masks, u, v):
                    twins.add((u, v))
                    break
            else:
                reps.append(v)
        scored = []
        for v in reps:
            mv = masks[v]
            row = 0
            for i, u in enumerate(placed):
                if (mv >> u) & 1:
                    row |= 1 << i
            scored.append((row, v))
        scored.sort()
        for row, v in scored:
            if best is not None and tuple(rows) + (row,) > best[: p + 1]:
                break
            placed.append(v)
            rows.append(row)
            remaining.discard(v)
            rec(placed, rows, remaining)
            placed.pop()
            rows.pop()
            remaining.add(v)

    rec([], [], set(range(n)))
    # rec reaches itself through its closure cell; emptying the cell frees
    # the search state now rather than at the next cyclic collection
    del rec
    return best, orders, twins


def _generators(orders: list, twins: set) -> list:
    """Generators of the automorphism group, each as the list of images of
    the vertices, from the orderings and twin pairs that _search returns.

    Two orderings with the same code differ by an automorphism, and a twin
    pair (u, v) is the automorphism that swaps u and v. Every automorphism
    maps the first ordering onto an ordering with the least code. A twin
    skip at some depth maps the skipped subtree onto a searched one, since
    neither vertex is placed yet, so by induction over depth every such
    ordering is a returned one composed with twin swaps: these generate
    the whole group.
    """
    base = orders[0]
    gens = []
    for order in orders[1:]:
        perm = [0] * len(base)
        for a, b in zip(base, order):
            perm[a] = b
        gens.append(perm)
    for u, v in twins:
        perm = list(range(len(base)))
        perm[u], perm[v] = v, u
        gens.append(perm)
    return gens


def certificate(n: int, masks: list) -> tuple:
    """Canonical adjacency code: equal certificates iff isomorphic graphs."""
    return (n,) + _search(n, masks)[0]


def canonical_certificate(g: Graph) -> tuple:
    return certificate(g.n, list(g.adjacency_masks))


def _delete_vertex(masks: list, t: int) -> list:
    """Masks of the graph with vertex t removed and the later vertices shifted down."""
    low = (1 << t) - 1
    return [(m & low) | ((m >> (t + 1)) << t) for u, m in enumerate(masks) if u != t]


def _canonical_children(level: "_Level", i: int) -> list:
    """Masks of the children of level.graphs[i] whose new vertex is the
    canonical one to delete.

    One child per isomorphism class; see the module docstring.
    """
    pm = list(level.graphs[i].adjacency_masks)
    v = len(pm)
    n = v + 1
    hi = 1 << v
    deg = [m.bit_count() for m in pm]
    top = max(deg)
    # at[d]: the parent vertices of degree d
    at = [0] * n
    for u, d in enumerate(deg):
        at[d] |= 1 << u
    best, orders, twins = level.search(i)
    level.searched[i] = (best,)
    # one image table per generator: tab[s] is the image of the vertex set
    # s, built by adding vertex u to the table of the sets below 1 << u
    tables = []
    for perm in _generators(orders, twins):
        tab = [0]
        for w in perm:
            bit = 1 << w
            tab += [t | bit for t in tab]
        tables.append(tab)
    # marked[sub]: sub lies in the Aut(P)-orbit of a neighbourhood already met
    marked = bytearray(hi)
    # first[inv]: the first tied child kept with invariant inv; certs[inv]:
    # the certificates of those kept with it, once a second one arrives
    first = {}
    certs = {}
    out = []
    for sub in range(hi):
        k = sub.bit_count()
        # a parent vertex of degree > k, or of degree k gaining v, outranks v
        if k < top or sub & at[k] or marked[sub]:
            continue
        stack = [sub]
        while stack:
            s = stack.pop()
            for tab in tables:
                t = tab[s]
                if not marked[t]:
                    marked[t] = 1
                    stack.append(t)
        tied = at[k] & ~sub
        if k:
            tied |= sub & at[k - 1]
        masks = pm + [sub]
        for u in _bits(sub):
            masks[u] |= hi
        tie = False
        if tied:
            cdeg = [m.bit_count() for m in masks]
            key = sorted(cdeg[u] for u in _bits(sub))
            rivals = []
            outranked = False
            for t in _bits(tied):
                tkey = sorted(cdeg[u] for u in _bits(masks[t]))
                if tkey > key:
                    outranked = True
                    break
                # deleting a twin of v leaves a copy of P, so the twin cannot beat v
                if tkey == key and not _interchangeable(masks, t, v):
                    rivals.append(t)
            if outranked:
                continue
            for t in rivals:
                rival = level.least(_delete_vertex(masks, t))
                if rival < best:
                    outranked = True
                    break
                tie = tie or rival == best
            if outranked:
                continue
        # only a child whose new vertex ties with a non-twin can repeat a
        # class, and only with a tied child of the same invariant
        if tie:
            inv = _refine(n, masks)[1]
            if inv in first:
                if inv not in certs:
                    certs[inv] = {certificate(n, first[inv])}
                cert = certificate(n, masks)
                if cert in certs[inv]:
                    continue
                certs[inv].add(cert)
            else:
                first[inv] = masks
        out.append(masks)
    return out


class _Level:
    """The complete catalog on v vertices, looked up by invariant. Each
    graph's _search runs at most once; see the module docstring."""

    def __init__(self, graphs: list):
        self.graphs = graphs
        self.v = graphs[0].n
        # classes[inv]: the index of the one class with invariant inv, or -1
        self.classes = {}
        for i, g in enumerate(graphs):
            inv = _refine(self.v, g.adjacency_masks)[1]
            self.classes[inv] = -1 if inv in self.classes else i
        # searched[i]: _search's result for graphs[i] from its first use,
        # cut to the least code once graphs[i] is expanded
        self.searched = {}

    def search(self, i: int) -> tuple:
        if i not in self.searched:
            self.searched[i] = _search(self.v, list(self.graphs[i].adjacency_masks))
        return self.searched[i]

    def least(self, masks: list) -> tuple:
        """The least code of the graph on v vertices with these rows."""
        i = self.classes[_refine(self.v, masks)[1]]
        return certificate(self.v, masks)[1:] if i < 0 else self.search(i)[0]


# n = 9 has 274,668 classes; n = 10 has about 12 million and would run for hours
MAX_CATALOG_N = 9

_ALL: dict[int, list] = {}


def nonisomorphic_graphs(n: int) -> list:
    """All graphs on exactly n vertices, one representative per isomorphism class.

    Returns a new list on every call; the graphs themselves are shared.
    """
    if n < 1:
        raise ValueError(f"catalog needs n >= 1, got {n}")
    if n > MAX_CATALOG_N:
        raise ValueError(f"catalog is capped at n <= {MAX_CATALOG_N}, got {n}")
    if n not in _ALL:
        if n == 1:
            _ALL[1] = [Graph(1)]
        else:
            level = _Level(nonisomorphic_graphs(n - 1))
            _ALL[n] = [
                Graph.from_rows(n, masks)
                for i in range(len(level.graphs))
                for masks in _canonical_children(level, i)
            ]
    return list(_ALL[n])


def connected_graphs(n: int) -> list:
    return [g for g in nonisomorphic_graphs(n) if g.is_connected()]


def connected_catalog(max_n: int) -> list:
    """All connected graphs with 1 <= n <= max_n, up to isomorphism."""
    return [g for k in range(1, max_n + 1) for g in connected_graphs(k)]


def full_catalog(max_n: int) -> list:
    """All graphs (connected or not) with 1 <= n <= max_n, up to isomorphism."""
    return [g for k in range(1, max_n + 1) for g in nonisomorphic_graphs(k)]
