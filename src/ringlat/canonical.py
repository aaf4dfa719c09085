"""Classification of minimal steps and the canonical decomposition.

A cover edge T < U of an interval is classified as inert, decomposed or
ramified from the conductor (T:U) and the maximal ideals of U above it;
exactly one of the three condition sets may hold.  On top of the per-edge
classification sit the subintegral / infra-integral / t-closed predicates,
the seminormalization and t-closure (each computed by two independent
routes that must agree), and the supremum of residual-extension lengths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gfq
from .algebra import (
    AlgebraError,
    Extension,
    Ideal,
    InternalInvariantError,
    Subalgebra,
    conductor,
    intersect_with,
    support,
)
from .analysis import Analysis
from .gfq import intersect_rowspaces, rref
from .lattice import greedy_maximal_chain, interval_length

INERT = "inert"
DECOMPOSED = "decomposed"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class MinimalKind:
    """Classification of one minimal step T < U with its evidence."""

    kind: str
    conductor: Ideal             # M = (T:U), maximal in T
    primes_above: tuple          # maximal ideals of U involved in the match
    residual_degrees: tuple      # [U/Q : T/M] for each listed prime


def classify_minimal(T, U, an=None):
    """Sort an adjacent pair into exactly one of the three minimal types."""
    an = an or Analysis()
    A = T.ambient
    F = A.field
    if not U.contains(T) or U.dim <= T.dim:
        raise AlgebraError("classification requires an adjacent pair T < U")
    M = conductor(T, U)
    dec_t = an.decomposition(T)
    if all(f.maximal_ideal != M for f in dec_t.factors):
        raise InternalInvariantError(
            "minimal-conductor-not-maximal",
            "conductor of an adjacent pair is not maximal in the bottom ring")
    res_t = T.dim - M.dim
    dec_u = an.decomposition(U)
    max_u = sorted(dec_u.factors, key=lambda f: f.maximal_ideal.basis)
    res_u = {f.maximal_ideal: U.dim - f.maximal_ideal.dim for f in max_u}

    matches = []
    # inert: M stays maximal in U and the residue extension has prime degree
    for f in max_u:
        Q = f.maximal_ideal
        if Q.basis == M.basis:
            deg, rem = divmod(U.dim - Q.dim, res_t)
            if not rem and gfq.is_prime(deg):
                matches.append(MinimalKind(INERT, M, (Q,), (deg,)))
    # decomposed: two maximal ideals meeting in M, both residually trivial
    for fa, fb in itertools.combinations(max_u, 2):
        Qa, Qb = fa.maximal_ideal, fb.maximal_ideal
        met = intersect_rowspaces(F, Qa.basis, Qb.basis, A.dim)
        if met == M.basis and res_u[Qa] == res_t and res_u[Qb] == res_t:
            matches.append(MinimalKind(DECOMPOSED, M, (Qa, Qb), (1, 1)))
    # ramified: a square-zero prime strictly above M, doubled residue on U/M
    for f in max_u:
        Q = f.maximal_ideal
        square = rref(F, [A.mul(a, b) for a in Q.basis for b in Q.basis])
        if (gfq.contains_rows(F, M.basis, square)
                and gfq.contains_rows(F, Q.basis, M.basis)
                and Q.dim > M.dim
                and U.dim - M.dim == 2 * res_t
                and res_u[Q] == res_t):
            matches.append(MinimalKind(RAMIFIED, M, (Q,), (1,)))
    if len(matches) != 1:
        raise InternalInvariantError(
            "trichotomy",
            f"adjacent pair matched {len(matches)} minimal types instead of 1")
    return matches[0]


def crucial_ideal(T, U, an=None):
    """The unique maximal ideal of T where the pair is locally nontrivial."""
    A = T.ambient
    F = A.field
    dec_t = (an or Analysis()).decomposition(T)
    diffs = []
    for f in dec_t.factors:
        e = f.idempotent
        dim_t = len(rref(F, [A.mul(e, r) for r in T.basis]))
        dim_u = len(rref(F, [A.mul(e, r) for r in U.basis]))
        if dim_t != dim_u:
            diffs.append(f.maximal_ideal)
    if len(diffs) != 1:
        raise InternalInvariantError(
            "crucial-uniqueness",
            f"{len(diffs)} maximal ideals are locally nontrivial, expected 1")
    M = diffs[0]
    if M != conductor(T, U):
        raise InternalInvariantError(
            "crucial-vs-conductor",
            "crucial ideal differs from the conductor on an integral minimal pair")
    return M


@dataclass(frozen=True)
class ResidualExtension:
    """One residue-field extension of the pair, with its divisor length."""

    prime_top: Ideal
    prime_bottom: Ideal
    degree: int
    length: int


def residual_extensions(ext, an=None):
    """Residue-field data at every maximal ideal of the top ring."""
    an = an or Analysis()
    R, S, A = ext.bottom, ext.top, ext.ambient
    dec_s = an.decomposition(S)
    dec_r = an.decomposition(R)
    max_r = {f.maximal_ideal.basis: f.maximal_ideal for f in dec_r.factors}
    out = []
    for f in sorted(dec_s.factors, key=lambda f: f.maximal_ideal.basis):
        Q = f.maximal_ideal
        p_rows = intersect_with(R, Q.basis, A)
        if p_rows not in max_r:
            raise InternalInvariantError(
                "contraction-not-maximal",
                "a maximal ideal of the top does not contract to one of the bottom")
        P = max_r[p_rows]
        deg, rem = divmod(S.dim - Q.dim, R.dim - P.dim)
        if rem:
            raise InternalInvariantError(
                "residue-degree-not-integral",
                "residue dimensions are not divisible")
        out.append(ResidualExtension(Q, P, deg, gfq.factor_multiplicity(deg)))
    return tuple(out)


def is_infra_integral(ext, an=None):
    """All residue-field extensions are isomorphisms."""
    return all(r.degree == 1 for r in residual_extensions(ext, an))


def is_subintegral(ext, an=None):
    """Residually trivial with a bijective contraction of maximal ideals."""
    an = an or Analysis()
    residuals = residual_extensions(ext, an)
    if any(r.degree != 1 for r in residuals):
        return False
    images = [r.prime_bottom.basis for r in residuals]
    n_bottom = len(an.decomposition(ext.bottom).factors)
    return len(set(images)) == len(images) == n_bottom


@dataclass(frozen=True)
class TClosedResult:
    value: bool
    method: str          # "scan" or "chain"
    witness: tuple = None  # (b, r) violating the closure condition


def is_t_closed(ext, an=None):
    """Closure under the quadratic-cubic membership condition.

    The definitional scan checks every pair (b, r); past the analysis's scan
    budget we fall back to classifying one maximal chain, every step of
    which must be inert.
    """
    an = an or Analysis()
    R, S, A = ext.bottom, ext.top, ext.ambient
    F = A.field
    if F.q ** (S.dim + R.dim) <= an.scan_budget:
        r_elements = list(gfq.span_vectors(F, R.basis)) if R.dim else [A.zero]
        for b in gfq.span_vectors(F, S.basis):
            if R.contains_vector(b):
                continue
            b2 = A.mul(b, b)
            b3 = A.mul(b2, b)
            for r in r_elements:
                if (R.contains_vector(gfq.vsub(F, b2, A.mul(r, b)))
                        and R.contains_vector(gfq.vsub(F, b3, A.mul(r, b2)))):
                    return TClosedResult(False, "scan", (b, r))
        return TClosedResult(True, "scan")
    chain = greedy_maximal_chain(ext)
    for lo, hi in zip(chain, chain[1:]):
        if classify_minimal(lo, hi, an).kind != INERT:
            return TClosedResult(False, "chain")
    return TClosedResult(True, "chain")


def seminormalization(ext, an=None):
    """Largest intermediate ring subintegral over the bottom."""
    an = an or Analysis()
    hits = [n for n in an.lattice(ext).nodes
            if is_subintegral(Extension(ext.bottom, n), an)]
    top = max(hits, key=lambda n: n.dim)
    for n in hits:
        if not top.contains(n):
            raise InternalInvariantError(
                "seminormalization-not-unique",
                "subintegral nodes have no greatest element")
    return top


def t_closure(ext, an=None):
    """Pivot ring, computed by two characterizations that must agree."""
    an = an or Analysis()
    lat = an.lattice(ext)
    infra = [n for n in lat.nodes if is_infra_integral(Extension(ext.bottom, n), an)]
    greatest = max(infra, key=lambda n: n.dim)
    for n in infra:
        if not greatest.contains(n):
            raise InternalInvariantError(
                "t-closure-not-unique",
                "infra-integral nodes have no greatest element")
    closed = [n for n in lat.nodes
              if is_t_closed(Extension(n, ext.top), an).value]
    least = min(closed, key=lambda n: n.dim)
    for n in closed:
        if not n.contains(least):
            raise InternalInvariantError(
                "t-closure-not-unique",
                "t-closed nodes have no least element")
    if greatest != least:
        raise InternalInvariantError(
            "t-closure-mismatch",
            "greatest infra-integral node differs from least t-closed node")
    return greatest


@dataclass(frozen=True)
class CanonicalDecomposition:
    """The chain R <= +R <= tR <= S (integral closure equals the top here)."""

    seminormalization: Subalgebra
    t_closure: Subalgebra

    def dims(self):
        return (self.seminormalization.dim, self.t_closure.dim)


def canonical_decomposition(ext, an=None):
    an = an or Analysis()
    plus = seminormalization(ext, an)
    tcl = t_closure(ext, an)
    if not tcl.contains(plus):
        raise InternalInvariantError(
            "canonical-chain-broken",
            "seminormalization not contained in the t-closure")
    return CanonicalDecomposition(seminormalization=plus, t_closure=tcl)


def lambda_invariant(ext, an=None):
    """Supremum of the lengths of the residue-field extensions."""
    return max((r.length for r in residual_extensions(ext, an)), default=0)


@dataclass(frozen=True)
class LambdaCrossCheck:
    value: int
    after_t_closure: int
    localized_sup: int = None
    msupp_count: int = None
    length_bound_ok: bool = None

    @property
    def consistent(self):
        if self.value != self.after_t_closure:
            return False
        if self.localized_sup is not None and self.value != self.localized_sup:
            return False
        return self.length_bound_ok is not False


def lambda_crosscheck(ext, an=None):
    """Independent recomputations of the residual-length supremum."""
    an = an or Analysis()
    value = lambda_invariant(ext, an)
    tcl = an.canonical(ext).t_closure
    after = lambda_invariant(Extension(tcl, ext.top), an)
    localized_sup = None
    msupp = None
    bound_ok = None
    if tcl == ext.bottom and not ext.is_trivial:  # t-closed integral pair
        supp = support(ext, an)
        msupp = len(supp)
        localized = []
        for M in supp:
            loc, _ = an.localization(ext, M)
            localized.append(interval_length(an.lattice(loc)))
        localized_sup = max(localized, default=0)
        bound_ok = interval_length(an.lattice(ext)) <= msupp * value
    return LambdaCrossCheck(value, after, localized_sup, msupp, bound_ok)


def classify_cover_edges(lat, an=None):
    """MinimalKind for every cover edge, keyed by the edge index pair."""
    an = an or Analysis()
    return {(i, j): classify_minimal(lat.nodes[i], lat.nodes[j], an)
            for i, j in lat.covers}


def census(edge_kinds):
    out = {INERT: 0, DECOMPOSED: 0, RAMIFIED: 0}
    for kind in edge_kinds.values():
        out[kind.kind] += 1
    return out


def classify_chain(lat, chain, edge_kinds=None, an=None):
    """Fill the classification and crucial-ideal slots of a chain report."""
    an = an or Analysis()
    if edge_kinds is None:
        edge_kinds = {}
    steps = []
    traces = []
    R = lat.ext.bottom
    A = lat.ext.ambient
    for i, j in zip(chain.nodes, chain.nodes[1:]):
        kind = edge_kinds.get((i, j)) or classify_minimal(lat.nodes[i], lat.nodes[j], an)
        steps.append(kind)
        crux = crucial_ideal(lat.nodes[i], lat.nodes[j], an)
        traces.append(intersect_with(R, crux.basis, A))
    chain.steps = tuple(steps)
    chain.crucial_traces = tuple(traces)
    return chain


def chain_trace_set(chain):
    """The set of crucial ideals of the chain steps, met with the bottom ring."""
    return frozenset(chain.crucial_traces)


@dataclass(frozen=True)
class ChainCheckReport:
    all_inert: bool
    all_ramified_or_decomposed: bool
    infra_integral: bool
    t_closed: bool
    quasi_local_conductor_ok: bool  # vacuously true unless local and t-closed
    violations: tuple

    @property
    def consistent(self):
        return not self.violations


def verify_chain_classification(lat, chain, an=None):
    """Check a classified chain against the whole-pair predicates."""
    an = an or Analysis()
    ext = Extension(lat.nodes[chain.nodes[0]], lat.nodes[chain.nodes[-1]])
    if chain.steps is None:
        classify_chain(lat, chain, an=an)
    kinds = [s.kind for s in chain.steps]
    all_inert = all(k == INERT for k in kinds)
    all_rd = all(k in (RAMIFIED, DECOMPOSED) for k in kinds)
    infra = is_infra_integral(ext, an)
    tcl = is_t_closed(ext, an).value
    violations = []
    if infra != all_rd:
        violations.append("infra-integral flag disagrees with the step census")
    if tcl != all_inert:
        violations.append("t-closed flag disagrees with the step census")
    quasi_local_ok = True
    if tcl and not ext.is_trivial and an.decomposition(ext.bottom).is_local:
        M = an.decomposition(ext.bottom).factors[0].maximal_ideal
        cond = conductor(ext.bottom, ext.top)
        if M.basis != cond.basis:
            quasi_local_ok = False
            violations.append("local t-closed pair: conductor is not the maximal ideal")
        if not an.decomposition(ext.top).is_local:
            quasi_local_ok = False
            violations.append("local t-closed pair: top ring is not local")
    return ChainCheckReport(
        all_inert=all_inert,
        all_ramified_or_decomposed=all_rd,
        infra_integral=infra,
        t_closed=tcl,
        quasi_local_conductor_ok=quasi_local_ok,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class AdditivityReport:
    total: int
    below_t_closure: int
    above_t_closure: int
    t_split_ok: bool
    seminormal_split_applicable: bool
    below_seminormalization: int = None
    above_seminormalization: int = None
    seminormal_split_ok: bool = None


def length_additivity_check(ext, an=None):
    """Interval length against the splits at the t-closure (and +R if licit).

    Both sides of each split are independent longest-path computations on
    sub-lattices enumerated on their own (each distinct interval once per
    analysis), not read off the lattice of ext.  The split at the
    seminormalization is checked only when no ramified cover exists above
    it, which is the subextension-closure hypothesis the split needs.
    """
    an = an or Analysis()
    total = interval_length(an.lattice(ext))
    dec = an.canonical(ext)
    tcl = dec.t_closure
    below = interval_length(an.lattice(Extension(ext.bottom, tcl)))
    above = interval_length(an.lattice(Extension(tcl, ext.top)))
    plus = dec.seminormalization
    upper = an.lattice(Extension(plus, ext.top))
    upper_kinds = classify_cover_edges(upper, an)
    applicable = all(k.kind != RAMIFIED for k in upper_kinds.values())
    b_plus = a_plus = split_ok = None
    if applicable:
        b_plus = interval_length(an.lattice(Extension(ext.bottom, plus)))
        a_plus = interval_length(upper)
        split_ok = total == b_plus + a_plus
    return AdditivityReport(
        total=total,
        below_t_closure=below,
        above_t_closure=above,
        t_split_ok=total == below + above,
        seminormal_split_applicable=applicable,
        below_seminormalization=b_plus,
        above_seminormalization=a_plus,
        seminormal_split_ok=split_ok,
    )
