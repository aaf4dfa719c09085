"""The interval [R, S] of intermediate rings: enumeration and order structure.

Enumeration is a breadth-first closure: from each known intermediate ring,
adjoin every coset representative of the top ring and close under
multiplication.  Completeness follows because any strictly larger
intermediate ring contains a one-element enlargement.  A brute-force scan
over all subspaces serves as an independent oracle.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import gfq
from .algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    generated_subalgebra,
    support,
)
from .analysis import DEFAULT_NODE_BUDGET, Analysis
from .gfq import complement_in, in_span, intersect_rowspaces, rref

DEFAULT_SUBSPACE_BUDGET = 2 ** 24
DEFAULT_TRANSVERSAL_BUDGET = 2 ** 22
DEFAULT_CHAIN_BUDGET = 100_000


class BudgetExceeded(RuntimeError):
    def __init__(self, what, limit):
        super().__init__(f"{what} budget exceeded (limit {limit})")
        self.what = what
        self.limit = limit


@dataclass
class ExtensionLattice:
    """The full interval with its covering (Hasse) relation."""

    ext: Extension
    nodes: tuple
    bottom: int
    top: int
    _leq: dict = field(default_factory=dict, repr=False)
    _covers: tuple = field(default=None, repr=False)

    def leq(self, i, j):
        key = (i, j)
        if key not in self._leq:
            a, b = self.nodes[i], self.nodes[j]
            self._leq[key] = a.dim <= b.dim and b.contains(a)
        return self._leq[key]

    @property
    def covers(self):
        if self._covers is None:
            out = []
            n = len(self.nodes)
            for i in range(n):
                ups = [j for j in range(n)
                       if j != i and self.nodes[j].dim > self.nodes[i].dim
                       and self.leq(i, j)]
                for j in ups:
                    if not any(k != j and self.leq(k, j) for k in ups):
                        out.append((i, j))
            self._covers = tuple(sorted(out))
        return self._covers

    def up(self, i):
        return tuple(j for a, j in self.covers if a == i)

    def index_of(self, node):
        for i, n in enumerate(self.nodes):
            if n == node:
                return i
        raise AlgebraError("not a node of this lattice")

    def __len__(self):
        return len(self.nodes)


@dataclass
class ChainReport:
    """A maximal chain as node indices, with per-step classification slots."""

    nodes: tuple
    steps: tuple = None            # filled with MinimalKind records
    crucial_traces: tuple = None   # crucial ideal of each step, met with R


def _closure_tasks(ext, node):
    F = ext.ambient.field
    comp = complement_in(F, node.basis, ext.top.basis)
    if F.q ** len(comp) > DEFAULT_TRANSVERSAL_BUDGET:
        raise BudgetExceeded("coset transversal", DEFAULT_TRANSVERSAL_BUDGET)
    return [s for s in gfq.transversal(F, comp, ext.ambient.dim) if any(s)]


def enumerate_interval(ext, node_budget=DEFAULT_NODE_BUDGET, threads=1):
    """Every intermediate ring of ext, sorted by (dimension, basis)."""
    A = ext.ambient
    seen = {ext.bottom.basis: ext.bottom}
    frontier = [ext.bottom]
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        while frontier:
            tasks = [(node, s) for node in frontier for s in _closure_tasks(ext, node)]

            def close(task):
                node, s = task
                return generated_subalgebra(A, [s], seed=node)

            results = pool.map(close, tasks) if pool else map(close, tasks)
            frontier = []
            for new in results:
                if new.basis not in seen:
                    seen[new.basis] = new
                    frontier.append(new)
                    if len(seen) > node_budget:
                        raise BudgetExceeded("node count", node_budget)
    finally:
        if pool:
            pool.shutdown()
    nodes = sorted(seen.values(), key=lambda n: (n.dim, n.basis))
    lat = ExtensionLattice(
        ext=ext,
        nodes=tuple(nodes),
        bottom=nodes.index(ext.bottom),
        top=nodes.index(ext.top),
    )
    return lat


def brute_force_interval(ext, subspace_budget=DEFAULT_SUBSPACE_BUDGET):
    """Scan all subspaces between bottom and top, keep the closed ones."""
    A = ext.ambient
    F = A.field
    codim = ext.top.dim - ext.bottom.dim
    if gfq.count_subspaces(F.q, codim) > subspace_budget:
        raise BudgetExceeded("subspace scan", subspace_budget)
    comp = complement_in(F, ext.bottom.basis, ext.top.basis)
    found = set()
    for mat in gfq.all_rref_matrices(F, codim):
        lifted = []
        for row in mat:
            v = A.zero
            for c, b in zip(row, comp):
                if c:
                    v = gfq.vadd(F, v, gfq.vscale(F, c, b))
            lifted.append(v)
        rows = rref(F, ext.bottom.basis + tuple(lifted))
        closed = all(in_span(F, rows, A.mul(a, b))
                     for a, b in itertools.combinations_with_replacement(rows, 2))
        if closed:
            found.add(Subalgebra(A, rows, check=False))
    return frozenset(found)


def interval_length(lat):
    """Longest bottom-to-top path in the cover relation."""
    return len(longest_chain(lat).nodes) - 1


def longest_chain(lat):
    """A witness chain attaining the interval length."""
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
    return ChainReport(nodes=tuple(reversed(chain)))


def is_chained(lat):
    """True iff the nodes are totally ordered by inclusion."""
    dims = [n.dim for n in lat.nodes]
    if len(set(dims)) != len(dims):
        return False
    order = sorted(range(len(lat.nodes)), key=lambda i: dims[i])
    return all(lat.leq(order[k], order[k + 1]) for k in range(len(order) - 1))


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
    """Chainedness of every localization; returns (bool, failure witnesses)."""
    an = an or Analysis()
    failures = []
    for M in support(ext, an):
        loc, fac = an.localization(ext, M)
        loc_lat = an.lattice(loc)
        if is_chained(loc_lat):
            continue
        pair = first_incomparable_pair(loc_lat)
        failures.append(ArithmeticWitness(
            maximal_ideal=M,
            pair=tuple(_pull_back_node(ext, fac, t) for t in pair),
        ))
    return not failures, tuple(failures)


def _pull_back_node(ext, fac, node):
    """Preimage in [R, S] of a node of a localized interval."""
    if fac is None:
        return node
    A = ext.ambient
    F = A.field
    e = fac.embed(fac.algebra.one)
    one_minus_e = gfq.vsub(F, A.one, e)
    rest = [A.mul(one_minus_e, s) for s in ext.top.basis]
    rows = rref(F, [fac.embed(v) for v in node.basis] + rest)
    return Subalgebra(A, rows, check=False)


def is_pinched_at(lat, node):
    """True iff every node is comparable with the given node."""
    i = node if isinstance(node, int) else lat.index_of(node)
    if not 0 <= i < len(lat.nodes):
        raise AlgebraError("not a node of this lattice")
    return all(lat.leq(i, j) or lat.leq(j, i) for j in range(len(lat.nodes)))


def module_sum_rows(lat, i, j):
    F = lat.ext.ambient.field
    return rref(F, lat.nodes[i].basis + lat.nodes[j].basis)


def compositum_rows(lat, i, j):
    A = lat.ext.ambient
    return rref(A.field, [A.mul(a, b) for a in lat.nodes[i].basis
                          for b in lat.nodes[j].basis])


def is_delta_extension(ext, lat):
    """True iff the module sum of any two nodes equals their compositum."""
    for i, j in itertools.combinations_with_replacement(range(len(lat.nodes)), 2):
        if module_sum_rows(lat, i, j) != compositum_rows(lat, i, j):
            return False, (lat.nodes[i], lat.nodes[j])
    return True, None


def check_distributivity(lat):
    """Meet/join distributivity over all node triples; first failure returned."""
    n = len(lat.nodes)
    index = {node.basis: k for k, node in enumerate(lat.nodes)}
    A = lat.ext.ambient
    meet = {}
    join = {}
    for i in range(n):
        for j in range(i, n):
            m_rows = intersect_rowspaces(A.field, lat.nodes[i].basis,
                                         lat.nodes[j].basis, A.dim)
            meet[i, j] = meet[j, i] = index[m_rows]
            join[i, j] = join[j, i] = index[compositum_rows(lat, i, j)]
    for b, c, d in itertools.product(range(n), repeat=3):
        if meet[b, join[c, d]] != join[meet[b, c], meet[b, d]]:
            return False, (lat.nodes[b], lat.nodes[c], lat.nodes[d])
        if join[b, meet[c, d]] != meet[join[b, c], join[b, d]]:
            return False, (lat.nodes[b], lat.nodes[c], lat.nodes[d])
    return True, None


def maximal_chains(lat, budget=DEFAULT_CHAIN_BUDGET):
    """All bottom-to-top cover paths in depth-first order; flags truncation."""
    chains = []
    truncated = False
    stack = [(lat.bottom, (lat.bottom,))]
    while stack:
        node, path = stack.pop()
        if node == lat.top:
            chains.append(ChainReport(nodes=path))
            if len(chains) >= budget:
                truncated = bool(stack)
                break
            continue
        for j in reversed(lat.up(node)):
            stack.append((j, path + (j,)))
    return chains, truncated


def greedy_maximal_chain(ext):
    """One maximal chain from bottom to top, built cover by cover."""
    A = ext.ambient
    chain = [ext.bottom]
    current = ext.bottom
    while current != ext.top:
        best = None
        for s in _closure_tasks(ext, current):
            cand = generated_subalgebra(A, [s], seed=current)
            if cand.dim > current.dim and (best is None or cand.dim < best.dim):
                best = cand
        current = best
        chain.append(current)
    return chain


def quotient_interval_check(ext, J_rows, an=None):
    """Compare [R+J, S] with [R/I, S/J] through the projection map.

    Returns (ok, details): the map must be bijective, order-preserving and
    order-reflecting.  Requires the top of ext to be its whole ambient.
    """
    from .algebra import quotient  # local import to avoid cycle at module load

    an = an or Analysis()
    A = ext.ambient
    F = A.field
    if ext.top != A.full():
        raise AlgebraError("quotient comparison requires a full-top extension")
    J_rows = rref(F, J_rows)
    r_plus_j = Subalgebra(A, ext.bottom.basis + J_rows, check=False)
    lat_up = an.lattice(Extension(r_plus_j, ext.top))
    qm = quotient(A, J_rows)
    r_bar = Subalgebra(qm.algebra, qm.project_rows(ext.bottom.basis), check=False)
    lat_down = an.lattice(Extension(r_bar))
    images = [qm.project_rows(node.basis) for node in lat_up.nodes]
    down_set = {node.basis for node in lat_down.nodes}
    ok = (len(set(images)) == len(images)
          and set(images) == down_set)
    if ok:
        for i, j in itertools.permutations(range(len(lat_up.nodes)), 2):
            up_le = lat_up.leq(i, j)
            down_le = gfq.contains_rows(F, images[j], images[i])
            if up_le != down_le:
                ok = False
                break
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
