"""The interval [R, S] of intermediate rings: enumeration and order structure.

Enumeration is a breadth-first closure: from each known intermediate ring T,
adjoin one vector c of each GF(q)-line of a complement C of T in the top ring
and close under multiplication, each T[c] costing dim T[c] products
(`generated_subalgebra`).  Completeness follows because any strictly larger
intermediate ring contains some T[c], and T[c] = T[ac] for every nonzero
scalar a.  A line need not be closed when it lies in a ring X already
certified minimal over T, for T < T[c] <= X forces T[c] = X: the certificate
(`_is_minimal_over`, by Ferrand and Olivier) asks that the conductor (T:X)
be maximal in T and X/(T:X) be of dimension 2, or a field of prime degree,
over the field T/(T:X).  So a field step of prime degree d costs one closure
where its (q**d - 1) / (q - 1) lines cost as many.  The closures, and the
skipped lines that count as closures giving X, also give the covers: X
covers T iff (q**(dim X - dim T) - 1) / (q - 1) of them, one per line of
X ∩ C, give X, because X = T + (X ∩ C) and a ring strictly between T and X
takes the lines it contains.  A brute-force scan over all subspaces serves
as an independent oracle.  Both charge their analysis before they work: one
unit per line vector of each node expanded, closed or skipped, or per
subspace to be scanned.  The order and joins are read off bitmasks built
from the covers, and the delta test and distributivity are local criteria
on the covers, with no linear algebra.  A maximal chain is a plain tuple of
node indices, a path of covers from bottom to top; whatever belongs to its
steps belongs to the covers and is keyed by them, so the chains are
counted, and their trace sets gathered, in one pass over the covers without
listing a chain.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import gfq
from .algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    conductor,
    generated_subalgebra,
    localize_extension,
    quotient,
)
from .analysis import DEFAULT_BUDGET, Analysis
from .gfq import complement_in, contains_rows, in_span, rref


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

    def join(self, i, j):
        """The compositum: the common upper bound of least dimension, so index."""
        common = self.above[i] & self.above[j]
        return (common & -common).bit_length() - 1

    def up(self, i):
        """The upper covers of nodes[i], in increasing index order."""
        return self._up[i]

    def index_of(self, node):
        if node not in self.nodes:
            raise AlgebraError("not a node of this lattice")
        return self.nodes.index(node)


def _is_maximal(M, ring, an):
    """True iff the ideal M of ring is maximal, read off the memoized
    Frobenius kernels (K, Nil) of ring: ring/Nil is a product of fields, so
    ring/M is a field iff M holds Nil and the image of K, one GF(q) per
    local factor of ring/M, is GF(q) alone, dim(K + M) = dim M + 1."""
    F = ring.ambient.field
    fixed, nil = an.frobenius(ring)
    return contains_rows(F, M.basis, nil) and len(rref(F, [*M.basis, *fixed])) == M.dim + 1


def _is_minimal_over(T, X, an):
    """True iff X is a minimal overring of T < X (Ferrand and Olivier,
    Homomorphismes minimaux d'anneaux, 1970): the conductor M = (T:X) is a
    maximal ideal of T and, over k = T/M, X/M has dimension 2, or has prime
    dimension and is a field, that is M is maximal in X too.

    The memoized Frobenius counts (r, s) first rule out a pair that fits no
    minimal kind (see `canonical.cover_kind`), with d = dim X - dim T and
    s_T - r_T + 1 the largest residue degree T can have: a decomposed step
    adds a local factor and d <= that degree to s, an inert one adds d to s,
    and a ramified one keeps r and s, with d a residue degree.
    """
    (r_t, s_t), (r_x, s_x) = an.frobenius_counts(T), an.frobenius_counts(X)
    d, fmax = X.dim - T.dim, s_t - r_t + 1
    if not ((r_x == r_t + 1 and s_x - s_t == d <= fmax)
            or (r_x == r_t and s_x - s_t == d)
            or (r_x == r_t and s_x == s_t and d <= fmax)):
        return False
    M = conductor(T, X)
    if not _is_maximal(M, T, an):
        return False
    m, rem = divmod(X.dim - M.dim, T.dim - M.dim)
    return not rem and (m == 2 or (gfq.factor_multiplicity(m) == 1 and _is_maximal(M, X, an)))


def _line_rows(ext, node, an):
    """A complement of node in the top, charged one unit per line vector."""
    F = ext.ambient.field
    comp = complement_in(F, node.basis, ext.top.basis)
    an.charge("interval enumeration", (F.q ** len(comp) - 1) // (F.q - 1))
    return comp


def _expand(ext, node, comp, an):
    """The ring T[c] of each line vector c of comp, in line order, for T = node.

    A line vector inside a ring X certified minimal over T gives X with no
    closure.  A closure X is put to the certificate once, and only when X/T
    has lines enough for skips to pay: d = dim X - dim T >= 2 and q**d > 8.
    """
    A = ext.ambient
    F = A.field
    certified, tried, out = [], set(), []
    for c in gfq.line_vectors(F, comp):
        for X in certified:
            if X.contains_vector(c):
                break
        else:
            X = generated_subalgebra(A, [c], seed=node)
            d = X.dim - node.dim
            if d >= 2 and F.q ** d > 8 and X.basis not in tried:
                tried.add(X.basis)
                if _is_minimal_over(node, X, an):
                    certified.append(X)
        out.append(X)
    return out


def enumerate_interval(ext, an=None):
    """Every intermediate ring of ext, sorted by (dimension, basis), and the
    covers: X = T[c] covers T iff (q**(dim X - dim T) - 1) / (q - 1) line
    vectors c from T give X, one per line of X ∩ C, as X = T + (X ∩ C) for the
    complement C of T and a ring strictly between takes the lines it contains.

    Each level of the search charges every node's lines before it closes
    any; with an.threads > 1 the nodes of a level are expanded in a pool,
    and their rings are merged in node order, so the result is the same.
    """
    an = an or Analysis()
    q = ext.ambient.field.q
    seen = {ext.bottom.basis: ext.bottom}
    hits = {}  # (T, X) bases -> line vectors from T that gave X
    frontier = [ext.bottom]
    pool = ThreadPoolExecutor(max_workers=an.threads) if an.threads > 1 else None
    try:
        while frontier:
            comps = [_line_rows(ext, node, an) for node in frontier]

            def expand(job):
                return _expand(ext, *job, an)

            results = (pool.map if pool else map)(expand, zip(frontier, comps))
            found = []
            for node, rings in zip(frontier, results):
                for new in rings:
                    edge = node.basis, new.basis
                    hits[edge] = hits.get(edge, 0) + 1
                    if new.basis not in seen:
                        seen[new.basis] = new
                        found.append(new)
            frontier = found
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


def _path_lengths(lat):
    """The lengths of the shortest and the longest bottom-to-top path of covers."""
    short, long = {lat.bottom: 0}, {lat.bottom: 0}
    for i, j in lat.covers:  # nodes are sorted by dimension: topological order
        if i in short:
            short[j] = min(short.get(j, short[i] + 1), short[i] + 1)
            long[j] = max(long.get(j, 0), long[i] + 1)
    if lat.top not in short:
        raise AlgebraError("lattice has no bottom-to-top path")
    return short[lat.top], long[lat.top]


def interval_length(lat):
    """Longest bottom-to-top path in the cover relation."""
    return _path_lengths(lat)[1]


def is_chained(lat):
    """True iff the nodes are totally ordered by inclusion."""
    return first_incomparable_pair(lat) is None


def first_incomparable_pair(lat):
    """The first incomparable pair in index order, or None: the two lowest
    upper covers of the lowest node b with two or more (the meet of two
    incomparable nodes has two).  Every node lies on the chain below b or
    above b, and a node above another comes after it in (dim, basis) order."""
    for i in range(len(lat.nodes)):
        if len(lat.up(i)) > 1:
            return tuple(lat.nodes[j] for j in lat.up(i)[:2])
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
    for M in an.support(ext):
        pair = first_incomparable_pair(an.lattice(localize_extension(ext, M, an)))
        if pair is not None:
            failures.append(ArithmeticWitness(maximal_ideal=M, pair=pair))
    return not failures, tuple(failures)


def is_pinched_at(lat, node):
    """True iff every node is comparable with the given node, a ring of lat."""
    i = lat.index_of(node)
    return lat.above[i] | lat.below[i] == (1 << len(lat.nodes)) - 1


def is_delta_extension(lat):
    """True iff the module sum of any two nodes is their compositum; else
    the first pair U, V of upper covers of a node T, in node order, with
    dim(U ∨ V) != dim U + dim V - dim T.

    Pairs of upper covers suffice.  U ∩ V = T, so U + V = U ∨ V iff the
    dimensions agree, and then U + V covers U and V: by the modular law of
    subspaces a ring Z with U ⊆ Z ⊆ U + V is U + (Z ∩ V), and Z ∩ V is T
    or V.  For any X and Y take maximal chains X_0 ⊂ ... ⊂ X_m of
    [X ∧ Y, X] and Y_0 ⊂ ... ⊂ Y_n of [X ∧ Y, Y]; by induction on i + j
    each X_i + Y_j is a ring covering X_(i-1) + Y_j and X_i + Y_(j-1),
    which reaches X + Y.
    """
    dim = [node.dim for node in lat.nodes]
    for t in range(len(lat.nodes)):
        for u, v in itertools.combinations(lat.up(t), 2):
            if dim[lat.join(u, v)] != dim[u] + dim[v] - dim[t]:
                return False, (lat.nodes[u], lat.nodes[v])
    return True, None


def check_distributivity(lat):
    """True iff the lattice is distributive: iff every maximal chain has as
    many steps as there are join-irreducibles (one lower cover) and as
    meet-irreducibles (one upper cover).  A finite lattice is distributive
    iff it is locally distributive upward and downward, and each is that
    chain-length condition (Dilworth, Avann; see Monjardet, A use for
    frequently rediscovering a concept, Order 1985)."""
    shortest, longest = _path_lengths(lat)
    joins = sum(k == 1 for k in Counter(j for _, j in lat.covers).values())
    meets = sum(k == 1 for k in Counter(i for i, _ in lat.covers).values())
    return shortest == longest == joins == meets


def chain_census(lat, trace):
    """The number of maximal chains and the set of their trace sets, where
    trace maps each cover edge to its trace and a chain's trace set is the
    set of its edges' traces: one pass over the sorted covers, each carrying
    the path count and the trace sets of its lower node up to the higher."""
    count = [0] * len(lat.nodes)
    sets = [set() for _ in lat.nodes]
    count[lat.bottom], sets[lat.bottom] = 1, {frozenset()}
    for i, j in lat.covers:  # sorted by i, and i < j: node i is settled
        count[j] += count[i]
        sets[j] |= {s | {trace[i, j]} for s in sets[i]}
    return count[lat.top], sets[lat.top]


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


def to_dot(lat, edge_labels=None):
    """Hasse diagram in DOT format, cover edges bottom-up, stable ordering."""
    lines = ["digraph interval {", "  rankdir=BT;"]
    for i, node in enumerate(lat.nodes):
        basis = "; ".join("".join(map(str, row)) for row in node.entry_rows())
        lines.append(f'  n{i} [label="dim {node.dim}\\n[{basis}]"];')
    for i, j in lat.covers:
        label = f' [label="{edge_labels[(i, j)]}"]' if edge_labels else ""
        lines.append(f"  n{i} -> n{j}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
