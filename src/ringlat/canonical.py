"""Classification of minimal steps and the canonical decomposition.

A cover edge T < U of an interval is classified as inert, decomposed or
ramified by two routes.  The count route compares the Frobenius counts of
T and U: their numbers of local factors and the dimensions of their reduced
parts.  The conductor route solves for the conductor (T:U) and tests the
maximal ideals of U above it; exactly one of the three condition sets may
hold.  ``analyze`` reads the first; ``check`` reads the second and asserts
that the two agree on every cover.  Beside them sit the
subintegral / infra-integral / t-closed predicates, the canonical chain
R <= +R <= tR <= S and the supremum of residual-extension lengths.  +R and tR
come from closed forms, +R = R + Nil(S) and tR as one Frobenius kernel, and
the canonical decomposition checks each against the nodes that the covers
of its kinds, by the count route, reach from R in the lattice.  The crucial
ideal of a cover is a fact of that cover alone, computed once per cover; a
maximal chain, a tuple of node indices, reads the kinds and crucial traces
of its covers.
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
    localize_extension,
    support,
)
from .analysis import Analysis
from .gfq import intersect_rowspaces
from .lattice import interval_length

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
        square = (A.mul(a, b) for a, b in itertools.combinations_with_replacement(Q.basis, 2))
        if (Q.dim > M.dim
                and U.dim - M.dim == 2 * res_t
                and res_u[Q] == res_t
                and gfq.contains_rows(F, Q.basis, M.basis)
                and gfq.contains_rows(F, M.basis, square)):
            matches.append(MinimalKind(RAMIFIED, M, (Q,), (1,)))
    if len(matches) != 1:
        raise InternalInvariantError(
            "trichotomy",
            f"adjacent pair matched {len(matches)} minimal types instead of 1")
    return matches[0]


def cover_kind(T, U, an=None):
    """The kind of a cover T < U from the Frobenius counts (r, s) of its rings.

    By Ferrand-Olivier, U/M is k x k, a field of prime degree over k, or
    k[e] with e**2 = 0, where M is the crucial ideal and k = T/M.  So U has
    one more local factor than T when the cover is decomposed; otherwise it
    has as many, and a larger reduced part (dim - dim Nil) when it is inert.
    """
    an = an or Analysis()
    (r_t, s_t), (r_u, s_u) = an.frobenius_counts(T), an.frobenius_counts(U)
    if r_u == r_t + 1:
        return DECOMPOSED
    if r_u == r_t and s_u >= s_t:
        return INERT if s_u > s_t else RAMIFIED
    raise InternalInvariantError(
        "cover-counts",
        f"Frobenius counts {(r_t, s_t)} below and {(r_u, s_u)} above fit no minimal kind")


def check_cover_kinds(lat, edge_kinds, an=None):
    """Raise unless the Frobenius counts give every cover edge the kind that
    its conductor gave it in edge_kinds."""
    an = an or Analysis()
    for (i, j), kind in edge_kinds.items():
        counted = an.cover_kind(lat.nodes[i], lat.nodes[j])
        if counted != kind.kind:
            raise InternalInvariantError(
                "cover-counts",
                f"cover {i} < {j} is {counted} by its Frobenius counts "
                f"and {kind.kind} by its conductor")


def crucial_ideal(T, U, an=None):
    """The unique maximal ideal of T where the pair is locally nontrivial."""
    an = an or Analysis()
    diffs = support(Extension(T, U), an)
    if len(diffs) != 1:
        raise InternalInvariantError(
            "crucial-uniqueness",
            f"{len(diffs)} maximal ideals are locally nontrivial, expected 1")
    M = diffs[0]
    if M != an.edge_kind(T, U).conductor:
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
    R, S = ext.bottom, ext.top
    dec_s = an.decomposition(S)
    dec_r = an.decomposition(R)
    max_r = {f.maximal_ideal.basis: f.maximal_ideal for f in dec_r.factors}
    out = []
    for f in sorted(dec_s.factors, key=lambda f: f.maximal_ideal.basis):
        Q = f.maximal_ideal
        p_rows = intersect_with(R, Q.basis)
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


def is_t_closed(ext, an=None):
    """R is t-closed in S: R is its own t-closure, read off the memoized
    canonical decomposition."""
    return (an or Analysis()).canonical(ext).t_closure == ext.bottom


def seminormalization(ext, an=None):
    """+R = R + Nil(S), the greatest intermediate ring subintegral over R.

    (R + Nil(S))/Nil(S) is R/Nil(R), so R + Nil(S) has the maximal ideals and
    residue fields of R; and a ring T subintegral over R is R + Nil(T), as
    T/Nil(T) is the image of R/Nil(R).
    """
    nil = (an or Analysis()).decomposition(ext.top).nilradical
    return Subalgebra(ext.ambient, ext.bottom.basis + nil.basis, check=False)


def t_closure(ext, an=None):
    """tR = {s in S : s^Q - s in N for every maximal ideal N of S}, where
    Q = |κ(N ∩ R)|: the elements whose residue at each N lies in the image
    of κ(N ∩ R), the greatest intermediate ring infra-integral over R.

    Q is a power of q, so x -> x^Q - x is GF(q)-linear and tR is the kernel
    of one linear map, S -> the product of the S/N.
    """
    an = an or Analysis()
    R, S, A = ext.bottom, ext.top, ext.ambient
    F = A.field
    residuals = residual_extensions(ext, an)

    def residues(s):
        return sum((gfq.reduce_vec(F, r.prime_top.basis,
                                   gfq.vsub(F, A.pow(s, F.q ** (R.dim - r.prime_bottom.dim)), s))
                    for r in residuals), ())

    kernel = gfq.left_kernel(F, [residues(s) for s in S.basis])
    return Subalgebra(A, [gfq.lincomb(F, c, S.basis) for c in kernel], check=False)


@dataclass(frozen=True)
class CanonicalDecomposition:
    """The chain R <= +R <= tR <= S (integral closure equals the top here)."""

    seminormalization: Subalgebra
    t_closure: Subalgebra

    def dims(self):
        return (self.seminormalization.dim, self.t_closure.dim)


def canonical_decomposition(ext, an=None):
    """+R and tR by their closed forms, each checked against the classified
    lattice: the nodes that ramified covers reach from R are the nodes under
    +R, and those that ramified or decomposed covers reach are those under tR."""
    an = an or Analysis()
    plus = seminormalization(ext, an)
    tcl = t_closure(ext, an)
    if not tcl.contains(plus):
        raise InternalInvariantError(
            "canonical-chain-broken",
            "seminormalization not contained in the t-closure")
    lat = an.lattice(ext)
    for ring, kinds, tag in ((plus, (RAMIFIED,), "seminormalization-vs-lattice"),
                             (tcl, (RAMIFIED, DECOMPOSED), "t-closure-vs-lattice")):
        reached = {lat.bottom}
        for i, j in lat.covers:  # sorted by i, and i < j: node i is settled
            if i in reached and an.cover_kind(lat.nodes[i], lat.nodes[j]) in kinds:
                reached.add(j)
        if reached != {k for k, n in enumerate(lat.nodes) if ring.contains(n)}:
            raise InternalInvariantError(
                tag, "closed form differs from the nodes its covers reach from the bottom")
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
            localized.append(interval_length(an.lattice(localize_extension(ext, M, an))))
        localized_sup = max(localized, default=0)
        bound_ok = interval_length(an.lattice(ext)) <= msupp * value
    return LambdaCrossCheck(value, after, localized_sup, msupp, bound_ok)


def classify_cover_edges(lat, an=None):
    """MinimalKind for every cover edge, keyed by the edge index pair."""
    an = an or Analysis()
    return {(i, j): an.edge_kind(lat.nodes[i], lat.nodes[j]) for i, j in lat.covers}


def crucial_traces(lat, an=None):
    """The crucial ideal of every cover edge met with the bottom ring, keyed by
    the edge index pair: the trace of a maximal chain is the set of its edges'."""
    an = an or Analysis()
    R = lat.ext.bottom
    return {(i, j): intersect_with(R, crucial_ideal(lat.nodes[i], lat.nodes[j], an).basis)
            for i, j in lat.covers}


def census(kinds):
    """The number of covers of each kind, from an iterable of kind names."""
    out = {INERT: 0, DECOMPOSED: 0, RAMIFIED: 0}
    for kind in kinds:
        out[kind] += 1
    return out


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
    """Check the kinds of the covers along a chain of node indices against the
    whole-pair predicates."""
    an = an or Analysis()
    ext = Extension(lat.nodes[chain[0]], lat.nodes[chain[-1]])
    kinds = [an.edge_kind(lat.nodes[i], lat.nodes[j]).kind for i, j in zip(chain, chain[1:])]
    all_inert = all(k == INERT for k in kinds)
    all_rd = all(k in (RAMIFIED, DECOMPOSED) for k in kinds)
    infra = is_infra_integral(ext, an)
    tcl = is_t_closed(ext, an)
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
