"""The interval [R, S] of intermediate rings: enumeration and order structure.

Enumeration is a breadth-first closure: from each known intermediate ring T,
adjoin one vector c of each GF(q)-line of a complement C of T in the top ring
and close under multiplication, (q**codim - 1) / (q - 1) closures per node,
each T[c] costing dim T[c] products (`generated_subalgebra`).  Completeness
follows because any strictly larger intermediate ring contains some T[c], and
T[c] = T[ac] for every nonzero scalar a.  The closures also give the covers:
X covers T iff (q**(dim X - dim T) - 1) / (q - 1) of them, one per line of
X ∩ C, give X, because X = T + (X ∩ C) and a ring strictly between T and X
takes the lines it contains.  A brute-force scan over all subspaces serves as
an independent oracle.  Both charge their analysis before they work: one unit
per line vector of each node expanded, or per subspace to be scanned.  The
order, meets, joins, the delta test and distributivity are read off bitmasks
built from the covers, with no linear algebra.  A maximal chain is a plain
tuple of node indices, a path of covers from bottom to top; whatever belongs
to its steps belongs to the covers and is keyed by them.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import gfq
from .algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    generated_subalgebra,
    localize_extension,
    quotient,
    support,
)
from .analysis import DEFAULT_BUDGET, Analysis
from .gfq import complement_in, in_span, rref


@dataclass
class ExtensionLattice:
    """The full interval; covers holds the sorted (i, j) with nodes[j] covering nodes[i],
    so j > i; bit k of above[i] (below[i]) says nodes[i] ⊆ nodes[k] (nodes[k] ⊆ nodes[i])."""

    ext: Extension
    nodes: tuple
    bottom: int
    top: int
    covers: tuple

    def __post_init__(self):
        up = [[] for _ in self.nodes]
        self.above = [1 << k for k in range(len(self.nodes))]
        self.below = list(self.above)
        for i, j in self.covers:  # below[i] is complete: covers into i come first
            up[i].append(j)
            self.below[j] |= self.below[i]
        for i, j in reversed(self.covers):  # likewise above[j]
            self.above[i] |= self.above[j]
        self._up = tuple(map(tuple, up))

    def leq(self, i, j):
        return bool(self.above[i] >> j & 1)

    def join(self, i, j):
        """The compositum: the common upper bound of least dimension, so index."""
        common = self.above[i] & self.above[j]
        return (common & -common).bit_length() - 1

    def meet(self, i, j):
        """The intersection: the common lower bound of greatest index."""
        return (self.below[i] & self.below[j]).bit_length() - 1

    def up(self, i):
        """The upper covers of nodes[i], in increasing index order."""
        return self._up[i]

    def index_of(self, node):
        if node not in self.nodes:
            raise AlgebraError("not a node of this lattice")
        return self.nodes.index(node)


def _closure_tasks(ext, node, an):
    F = ext.ambient.field
    comp = complement_in(F, node.basis, ext.top.basis)
    an.charge("interval enumeration", (F.q ** len(comp) - 1) // (F.q - 1))
    return list(gfq.line_vectors(F, comp))


def enumerate_interval(ext, an=None):
    """Every intermediate ring of ext, sorted by (dimension, basis), and the
    covers: X = T[c] covers T iff (q**(dim X - dim T) - 1) / (q - 1) closures
    from T give X, one per line of X ∩ C, as X = T + (X ∩ C) for the
    complement C of T and a ring strictly between takes the lines it contains."""
    an = an or Analysis()
    A = ext.ambient
    q = A.field.q
    seen = {ext.bottom.basis: ext.bottom}
    hits = {}  # (T, X) bases -> closures from T that gave X
    frontier = [ext.bottom]
    pool = ThreadPoolExecutor(max_workers=an.threads) if an.threads > 1 else None
    try:
        while frontier:
            tasks = [(node, s) for node in frontier for s in _closure_tasks(ext, node, an)]

            def close(task):
                node, s = task
                return generated_subalgebra(A, [s], seed=node)

            results = pool.map(close, tasks) if pool else map(close, tasks)
            frontier = []
            for (node, _), new in zip(tasks, results):
                edge = node.basis, new.basis
                hits[edge] = hits.get(edge, 0) + 1
                if new.basis not in seen:
                    seen[new.basis] = new
                    frontier.append(new)
    finally:
        if pool:
            pool.shutdown()
    nodes = sorted(seen.values(), key=lambda n: (n.dim, n.basis))
    index = {n.basis: k for k, n in enumerate(nodes)}
    covers = sorted((index[t], index[x]) for (t, x), count in hits.items()
                    if count == (q ** (len(x) - len(t)) - 1) // (q - 1))
    return ExtensionLattice(ext=ext, nodes=tuple(nodes), bottom=index[ext.bottom.basis],
                            top=index[ext.top.basis], covers=tuple(covers))


def brute_force_interval(ext, an=None):
    """Scan all subspaces between bottom and top, keep the closed ones."""
    A = ext.ambient
    F = A.field
    codim = ext.top.dim - ext.bottom.dim
    (an or Analysis()).charge("subspace oracle", gfq.count_subspaces(F.q, codim))
    comp = complement_in(F, ext.bottom.basis, ext.top.basis)
    found = set()
    for mat in gfq.all_rref_matrices(F, codim):
        lifted = tuple(gfq.lincomb(F, row, comp) for row in mat)
        rows = rref(F, ext.bottom.basis + lifted)
        closed = all(in_span(F, rows, A.mul(a, b))
                     for a, b in itertools.combinations_with_replacement(rows, 2))
        if closed:
            found.add(Subalgebra(A, rows, check=False))
    return frozenset(found)


def interval_length(lat):
    """Longest bottom-to-top path in the cover relation."""
    return len(longest_chain(lat)) - 1


def longest_chain(lat):
    """A witness chain attaining the interval length, as a tuple of node indices."""
    dist = {lat.bottom: 0}
    parent = {lat.bottom: None}
    for i, j in lat.covers:  # nodes are sorted by dimension: topological order
        if i in dist and dist[i] + 1 > dist.get(j, -1):
            dist[j] = dist[i] + 1
            parent[j] = i
    if lat.top not in dist:
        raise AlgebraError("lattice has no bottom-to-top path")
    chain = [lat.top]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return tuple(reversed(chain))


def is_chained(lat):
    """True iff the nodes are totally ordered by inclusion, that is iff no node
    has two upper covers: the meet of two incomparable nodes would."""
    lower = [i for i, _ in lat.covers]
    return len(set(lower)) == len(lower)


def first_incomparable_pair(lat):
    for i, j in itertools.combinations(range(len(lat.nodes)), 2):
        if not lat.leq(i, j) and not lat.leq(j, i):
            return lat.nodes[i], lat.nodes[j]
    return None


@dataclass(frozen=True)
class ArithmeticWitness:
    maximal_ideal: object
    pair: tuple  # two incomparable intermediate rings, in ambient coordinates


def is_arithmetic(ext, an=None):
    """Chainedness of every localization; returns (bool, failure witnesses).

    A localization is a subinterval of [R, S], so a witness pair is two
    incomparable nodes of it as they stand.
    """
    an = an or Analysis()
    failures = []
    for M in support(ext, an):
        loc_lat = an.lattice(localize_extension(ext, M, an))
        if not is_chained(loc_lat):
            failures.append(ArithmeticWitness(maximal_ideal=M,
                                              pair=first_incomparable_pair(loc_lat)))
    return not failures, tuple(failures)


def is_pinched_at(lat, node):
    """True iff every node is comparable with the given node, a ring of lat."""
    i = lat.index_of(node)
    return lat.above[i] | lat.below[i] == (1 << len(lat.nodes)) - 1


def is_delta_extension(lat):
    """True iff the module sum T + U of any two nodes equals their compositum:
    T + U lies in T ∨ U and has dimension dim T + dim U - dim(T ∧ U)."""
    dim = [node.dim for node in lat.nodes]
    for i, j in itertools.combinations(range(len(lat.nodes)), 2):
        if dim[i] + dim[j] != dim[lat.meet(i, j)] + dim[lat.join(i, j)]:
            return False, (lat.nodes[i], lat.nodes[j])
    return True, None


def check_distributivity(lat):
    """Meet/join distributivity over all node triples; first failure returned."""
    n = len(lat.nodes)
    meet = {(i, j): lat.meet(i, j) for i in range(n) for j in range(n)}
    join = {(i, j): lat.join(i, j) for i in range(n) for j in range(n)}
    for b, c, d in itertools.product(range(n), repeat=3):
        if meet[b, join[c, d]] != join[meet[b, c], meet[b, d]]:
            return False, (lat.nodes[b], lat.nodes[c], lat.nodes[d])
        if join[b, meet[c, d]] != meet[join[b, c], join[b, d]]:
            return False, (lat.nodes[b], lat.nodes[c], lat.nodes[d])
    return True, None


def maximal_chains(lat, limit=DEFAULT_BUDGET):
    """The first limit bottom-to-top cover paths in depth-first order, each a
    tuple of node indices, and whether there are more."""
    chains = []
    stack = [(lat.bottom, (lat.bottom,))]
    while stack:
        node, path = stack.pop()
        if node == lat.top:
            if len(chains) == limit:
                return chains, True
            chains.append(path)
            continue
        for j in reversed(lat.up(node)):
            stack.append((j, path + (j,)))
    return chains, False


def quotient_interval_check(ext, J_rows, an=None):
    """Compare [R+J, S] with [R/I, S/J] through the projection map.

    J is an ideal of the top ring S, given by rows, and I = R ∩ J.  Returns
    (ok, details): the map must be bijective and carry the cover relation
    of [R+J, S] onto that of [R/I, S/J].
    """
    an = an or Analysis()
    A = ext.ambient
    J_rows = rref(A.field, J_rows)
    r_plus_j = Subalgebra(A, ext.bottom.basis + J_rows, check=False)
    lat_up = an.lattice(Extension(r_plus_j, ext.top))
    qm = quotient(ext.top, J_rows)
    r_bar = Subalgebra(qm.algebra, qm.project_rows(ext.bottom.basis), check=False)
    lat_down = an.lattice(Extension(r_bar))
    images = [qm.project_rows(node.basis) for node in lat_up.nodes]
    down_index = {node.basis: k for k, node in enumerate(lat_down.nodes)}
    ok = len(set(images)) == len(images) and set(images) == set(down_index)
    if ok:
        # a bijection of finite posets is an isomorphism iff it maps covers onto covers
        to_down = [down_index[b] for b in images]
        ok = tuple(sorted((to_down[i], to_down[j]) for i, j in lat_up.covers)) \
            == lat_down.covers
    return ok, {
        "upstairs": len(lat_up.nodes),
        "downstairs": len(lat_down.nodes),
    }


def to_dot(lat, edge_labels=None, node_note=None):
    """Hasse diagram in DOT format, cover edges bottom-up, stable ordering."""
    lines = ["digraph interval {", "  rankdir=BT;"]
    for i, node in enumerate(lat.nodes):
        basis = "; ".join("".join(str(c) for c in row) for row in node.basis)
        note = f" {node_note(i)}" if node_note else ""
        lines.append(f'  n{i} [label="dim {node.dim}{note}\\n[{basis}]"];')
    for i, j in lat.covers:
        label = f' [label="{edge_labels[(i, j)]}"]' if edge_labels else ""
        lines.append(f"  n{i} -> n{j}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
