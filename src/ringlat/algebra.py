"""Finite-dimensional commutative unital algebras over GF(q).

An :class:`Algebra` is given by structure constants on a fixed basis and is
validated (commutative, associative, unital) at construction.  Subalgebras
and ideals store their vectors in the coordinates of one fixed ambient
Algebra, as canonical reduced-echelon bases, so equality and hashing are
structural.  Quotients and idempotent factors are new Algebra objects
connected to their source by explicit linear maps.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gfq
from .analysis import Analysis
from .gfq import (
    GF,
    coords_in_rref,
    in_span,
    intersect_rowspaces,
    reduce_vec,
    rref,
    vadd,
    vscale,
    vsub,
    zero_vec,
)


class AlgebraError(ValueError):
    """Invalid construction data (bad tables, bad subspaces, bad input)."""


class InternalInvariantError(RuntimeError):
    """A structural cross-check failed; carries a short machine tag."""

    def __init__(self, tag, message):
        super().__init__(f"[{tag}] {message}")
        self.tag = tag


class Algebra:
    """Commutative unital algebra over GF(q) given by structure constants.

    ``table[i][j]`` is the coordinate vector of the basis product e_i e_j.
    """

    def __init__(self, field, table, one, check=True):
        self.field = field
        self.dim = len(table)
        if self.dim < 1:
            raise AlgebraError("algebra dimension must be >= 1")
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.one = tuple(one)
        if len(self.one) != self.dim or any(len(row) != self.dim for row in self.table) \
                or any(len(v) != self.dim for row in self.table for v in row):
            raise AlgebraError("structure constant table has inconsistent shape")
        bad = [c for row in self.table for v in row for c in v
               if not isinstance(c, int) or not 0 <= c < field.q]
        if bad:
            raise AlgebraError(f"scalar {bad[0]} outside range({field.q})")
        if check:
            self.validate()

    def validate(self):
        n, F = self.dim, self.field
        for i in range(n):
            for j in range(i, n):
                if self.table[i][j] != self.table[j][i]:
                    raise AlgebraError(f"multiplication not commutative at ({i},{j})")
        for i in range(n):
            if self.mul(self.one, self.basis_vec(i)) != self.basis_vec(i):
                raise AlgebraError(f"unit fails on basis vector {i}")
        for i in range(n):
            for j in range(i, n):
                eij = self.table[i][j]
                for k in range(j, n):
                    left = self.mul(eij, self.basis_vec(k))
                    right = self.mul(self.basis_vec(i), self.table[j][k])
                    if left != right:
                        raise AlgebraError(f"multiplication not associative at ({i},{j},{k})")

    def basis_vec(self, i):
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def basis(self):
        return tuple(self.basis_vec(i) for i in range(self.dim))

    @property
    def zero(self):
        return zero_vec(self.dim)

    def mul(self, u, v):
        F = self.field
        acc = [0] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.table[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = F.mul(ui, vj)
                for k, t in enumerate(row[j]):
                    if t:
                        acc[k] = F.add(acc[k], F.mul(c, t))
        return tuple(acc)

    def pow(self, u, k):
        result = self.one
        base = tuple(u)
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def elements(self):
        """All q**dim coordinate vectors."""
        return itertools.product(self.field.elements(), repeat=self.dim)

    def full(self):
        if not hasattr(self, "_full"):
            self._full = Subalgebra(self, self.basis(), check=False)
        return self._full

    def same_table(self, other):
        return (self.field.same_field(other.field) and self.dim == other.dim
                and self.table == other.table and self.one == other.one)

    def __repr__(self):
        return f"Algebra(dim={self.dim}, q={self.field.q})"


class Subalgebra:
    """Unital multiplicatively closed subspace of an Algebra.

    The basis is the canonical reduced echelon form, so two subalgebras of
    the same ambient algebra are equal iff their basis tuples are equal.
    """

    def __init__(self, ambient, rows, check=True):
        self.ambient = ambient
        self.basis = rref(ambient.field, rows)
        if check:
            F = ambient.field
            if not in_span(F, self.basis, ambient.one):
                raise AlgebraError("subalgebra must contain the unit")
            for a, b in itertools.combinations_with_replacement(self.basis, 2):
                if not in_span(F, self.basis, ambient.mul(a, b)):
                    raise AlgebraError("subspace not closed under multiplication")

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, v):
        return in_span(self.ambient.field, self.basis, v)

    def contains(self, other):
        return all(self.contains_vector(v) for v in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subalgebra) and other.ambient is self.ambient
                and other.basis == self.basis)

    def __hash__(self):
        return hash((id(self.ambient), self.basis))

    def __repr__(self):
        return f"Subalgebra(dim={self.dim}, basis={[list(r) for r in self.basis]})"


class Ideal:
    """Subspace closed under multiplication by a ring (Algebra or Subalgebra).

    Vectors are stored in the coordinates of the top-level ambient Algebra.
    """

    def __init__(self, ring, rows, check=True):
        self.ring = ring
        self.ambient = ring if isinstance(ring, Algebra) else ring.ambient
        self.basis = rref(self.ambient.field, rows)
        if check:
            F = self.ambient.field
            ring_rows = ring.basis() if isinstance(ring, Algebra) else ring.basis
            for x in self.basis:
                if not in_span(F, ring_rows, x):
                    raise AlgebraError("ideal not contained in its ring")
                for r in ring_rows:
                    if not in_span(F, self.basis, self.ambient.mul(r, x)):
                        raise AlgebraError("subspace not an ideal of the ring")

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, v):
        return in_span(self.ambient.field, self.basis, v)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and other.ambient is self.ambient
                and other.basis == self.basis)

    def __hash__(self):
        return hash((id(self.ambient), self.basis))

    def __repr__(self):
        return f"Ideal(dim={self.dim}, basis={[list(r) for r in self.basis]})"


class Extension:
    """A pair bottom <= top of subalgebras of a common ambient algebra."""

    def __init__(self, bottom, top=None):
        if top is None:
            top = bottom.ambient.full()
        if isinstance(top, Algebra):
            top = top.full()
        if bottom.ambient is not top.ambient:
            raise AlgebraError("extension endpoints must share an ambient algebra")
        if not top.contains(bottom):
            raise AlgebraError("bottom of extension not contained in top")
        self.bottom = bottom
        self.top = top
        self.ambient = bottom.ambient

    @property
    def is_trivial(self):
        return self.bottom == self.top

    def __eq__(self, other):
        return (isinstance(other, Extension) and self.bottom == other.bottom
                and self.top == other.top)

    def __hash__(self):
        return hash((self.bottom, self.top))

    def __repr__(self):
        return f"Extension({self.bottom.dim} <= {self.top.dim} in dim {self.ambient.dim})"


# ---------------------------------------------------------------------------
# constructors


def make_poly_quotient(field, coeffs):
    """The algebra field[Y]/(f) on the basis 1, y, ..., y^(deg f - 1)."""
    f = tuple(coeffs)
    if len(f) < 2:
        raise AlgebraError("polynomial must have degree >= 1")
    if f[-1] != 1:
        raise AlgebraError("polynomial must be monic")
    if any(not isinstance(c, int) or not 0 <= c < field.q for c in f):
        raise AlgebraError(f"coefficients must lie in range({field.q})")
    d = len(f) - 1
    # powers of y reduced mod f, up to degree 2d-2
    powers = [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]
    for _ in range(d - 1):
        prev = powers[-1]
        shifted = [0] + list(prev[:-1])
        top = prev[-1]
        if top:
            for j in range(d):
                shifted[j] = field.sub(shifted[j], field.mul(top, f[j]))
        powers.append(tuple(shifted))
    table = tuple(tuple(powers[i + j] for j in range(d)) for i in range(d))
    one = tuple(1 if k == 0 else 0 for k in range(d))
    return Algebra(field, table, one)


def base_algebra(field):
    """The field itself as a one-dimensional algebra."""
    return make_poly_quotient(field, (0, 1))


def make_product(*algebras):
    """Direct product with block-diagonal structure constants."""
    if len(algebras) < 2:
        raise AlgebraError("product needs at least two factors")
    field = algebras[0].field
    for a in algebras[1:]:
        if not a.field.same_field(field):
            raise AlgebraError("product factors must share the base field")
    dims = [a.dim for a in algebras]
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    n = sum(dims)

    def emb(vec, k):
        return zero_vec(offsets[k]) + tuple(vec) + zero_vec(n - offsets[k] - dims[k])

    table = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
    for k, a in enumerate(algebras):
        for i in range(a.dim):
            for j in range(a.dim):
                table[offsets[k] + i][offsets[k] + j] = emb(a.table[i][j], k)
    one = zero_vec(n)
    for k, a in enumerate(algebras):
        one = vadd(field, one, emb(a.one, k))
    return Algebra(field, table, one)


def generated_subalgebra(ambient, gens, seed=None):
    """Smallest subalgebra containing the seed, the unit and the generators."""
    F = ambient.field
    rows = [ambient.one]
    if seed is not None:
        rows.extend(seed.basis)
    for g in gens:
        if len(g) != ambient.dim:
            raise AlgebraError("generator has wrong coordinate length")
        rows.append(tuple(g))
    rows = rref(F, rows)
    while True:
        prods = [ambient.mul(a, b)
                 for a, b in itertools.combinations_with_replacement(rows, 2)]
        new = rref(F, tuple(rows) + tuple(prods))
        if len(new) == len(rows):
            return Subalgebra(ambient, rows, check=False)
        rows = new


def span_rows_of(ring):
    return ring.basis() if isinstance(ring, Algebra) else ring.basis


# ---------------------------------------------------------------------------
# ideals


def conductor(R, S=None):
    """Largest common ideal of R and S: all x in R with x*S inside R."""
    A = R.ambient
    F = A.field
    if S is None:
        S = A.full()
    if isinstance(S, Algebra):
        S = S.full()
    if not S.contains(R):
        raise AlgebraError("conductor requires R <= S")
    unknown_rows = []
    for r in R.basis:
        constraint = []
        for s in S.basis:
            constraint.extend(reduce_vec(F, R.basis, A.mul(r, s)))
        unknown_rows.append(tuple(constraint))
    if not unknown_rows:
        return Ideal(R, (), check=False)
    ker = gfq.left_kernel(F, unknown_rows)
    rows = []
    for coeffs in ker:
        v = zero_vec(A.dim)
        for c, r in zip(coeffs, R.basis):
            if c:
                v = vadd(F, v, vscale(F, c, r))
        rows.append(v)
    ideal = Ideal(R, rows)
    # the conductor is an ideal of S as well; verify
    for x in ideal.basis:
        for s in S.basis:
            if not ideal.contains_vector(A.mul(s, x)):
                raise InternalInvariantError(
                    "conductor-not-ideal-of-top",
                    "conductor fails to absorb multiplication from the top ring")
    return ideal


def ideal_mul_rows(A, rows_a, rows_b):
    """Row basis of the product span {a*b}."""
    return rref(A.field, [A.mul(a, b) for a in rows_a for b in rows_b])


def ideal_power_rows(A, ring_rows, m_rows, k):
    """Row basis of M**k; k = 0 gives the whole ring."""
    if k == 0:
        return rref(A.field, ring_rows)
    cur = rref(A.field, m_rows)
    for _ in range(k - 1):
        cur = ideal_mul_rows(A, cur, m_rows)
    return cur


# ---------------------------------------------------------------------------
# nilradical and local structure


def nilradical(ring):
    """Ideal of nilpotents, via the kernel of x -> x**(p^m) over GF(p)."""
    A = ring if isinstance(ring, Algebra) else ring.ambient
    F = A.field
    ring_rows = span_rows_of(ring)
    d = len(ring_rows)
    pm = 1
    while pm < d:
        pm *= F.p
    # GF(p)-basis of the ring: scalar powers y^j times each basis row
    fp_scalars = [F._encode([1 if k == j else 0 for k in range(F.e)])
                  for j in range(F.e)]
    fp_basis = [vscale(F, s, r) for r in ring_rows for s in fp_scalars]
    Fp = F.prime_field()
    constraint_rows = []
    for v in fp_basis:
        w = A.pow(v, pm)
        digits = []
        for c in w:
            digits.extend(F.element_digits(c))
        constraint_rows.append(tuple(digits))
    ker = gfq.left_kernel(Fp, constraint_rows)
    rows = []
    for coeffs in ker:
        v = zero_vec(A.dim)
        for c, b in zip(coeffs, fp_basis):
            if c:
                v = vadd(F, v, vscale(F, c, b))
        rows.append(v)
    return Ideal(ring, rows)


@dataclass(frozen=True)
class FactorMap:
    """A subspace of an algebra carrying its own algebra structure."""

    source: Algebra
    algebra: Algebra
    rows: tuple  # images of the factor basis in source coordinates

    def embed(self, vec):
        F = self.source.field
        v = zero_vec(self.source.dim)
        for c, row in zip(vec, self.rows):
            if c:
                v = vadd(F, v, vscale(F, c, row))
        return v

    def coords(self, vec):
        c = coords_in_rref(self.source.field, self.rows, vec)
        if c is None:
            raise AlgebraError("vector outside the factor subspace")
        return c

    def coords_rows(self, rows):
        return rref(self.algebra.field, [self.coords(r) for r in rows])


def subspace_algebra(ambient, rows, unit):
    """Algebra structure on a multiplicatively closed subspace with own unit."""
    F = ambient.field
    rows = rref(F, rows)
    if not in_span(F, rows, unit):
        raise AlgebraError("unit not inside the subspace")
    for a, b in itertools.combinations_with_replacement(rows, 2):
        if not in_span(F, rows, ambient.mul(a, b)):
            raise AlgebraError("subspace not closed under multiplication")
    for r in rows:
        if ambient.mul(unit, r) != r:
            raise AlgebraError("designated unit does not act as identity")
    table = tuple(tuple(coords_in_rref(F, rows, ambient.mul(a, b)) for b in rows)
                  for a in rows)
    one = coords_in_rref(F, rows, tuple(unit))
    alg = Algebra(F, table, one)
    return FactorMap(ambient, alg, rows)


@dataclass(frozen=True)
class QuotientMap:
    """Quotient algebra A/J with its projection and a linear section."""

    source: Algebra
    algebra: Algebra
    ideal_rows: tuple
    comp_coords: tuple  # source coordinates indexing the complement basis

    def project(self, vec):
        w = reduce_vec(self.source.field, self.ideal_rows, vec)
        return tuple(w[c] for c in self.comp_coords)

    def lift(self, vec):
        v = [0] * self.source.dim
        for c, x in zip(self.comp_coords, vec):
            v[c] = x
        return tuple(v)

    def project_rows(self, rows):
        return rref(self.algebra.field, [self.project(r) for r in rows])


def quotient(A, J):
    """Quotient of an Algebra by a proper ideal, with projection maps."""
    rows = J.basis if isinstance(J, Ideal) else rref(A.field, J)
    Ideal(A, rows)  # validates J is an ideal of A
    if in_span(A.field, rows, A.one):
        raise AlgebraError("improper ideal: the unit maps to zero")
    piv = set(gfq.pivots_of(rows))
    comp = tuple(c for c in range(A.dim) if c not in piv)
    qm = QuotientMap(A, None, rows, comp)
    table = tuple(tuple(qm.project(A.mul(qm.lift(_unit(len(comp), i)),
                                         qm.lift(_unit(len(comp), j))))
                        for j in range(len(comp)))
                  for i in range(len(comp)))
    one = qm.project(A.one)
    alg = Algebra(A.field, table, one)
    return QuotientMap(A, alg, rows, comp)


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


@dataclass(frozen=True)
class LocalFactor:
    """One local factor of an Artinian ring."""

    idempotent: tuple          # in ambient coordinates
    factor: FactorMap          # the subspace e*ring with unit e
    maximal_ideal: Ideal       # pulled back to the ring, ambient coordinates
    residue_degree: int        # GF(q)-dimension of the residue field


@dataclass(frozen=True)
class LocalDecomposition:
    """Complete orthogonal idempotents and the local factors they cut out."""

    ring: object
    factors: tuple
    nilradical: Ideal             # the intersection of the maximal ideals

    @property
    def idempotents(self):
        return tuple(f.idempotent for f in self.factors)

    @property
    def maximal_ideals(self):
        return tuple(f.maximal_ideal for f in self.factors)

    @property
    def is_local(self):
        return len(self.factors) == 1


def _primitive_idempotents(A, nil_rows):
    """Primitive idempotents of the semisimple quotient, lifted exactly."""
    F = A.field
    qm = quotient(A, nil_rows) if nil_rows else None
    Abar = qm.algebra if qm else A
    # GF(q)-linear Frobenius-fixed subspace of the semisimple quotient
    frob_rows = [vsub(F, Abar.pow(Abar.basis_vec(i), F.q), Abar.basis_vec(i))
                 for i in range(Abar.dim)]
    fixed = gfq.left_kernel(F, frob_rows)
    idems = [Abar.one]
    for b in fixed:
        refined = []
        for e in idems:
            refined.extend(_split_idempotent(Abar, e, Abar.mul(e, b)))
        idems = refined
    if len(idems) != len(fixed):
        raise InternalInvariantError(
            "idempotent-splitting-incomplete",
            f"expected {len(fixed)} primitive idempotents, found {len(idems)}")
    # lift to A through Frobenius iteration; exact once the corrections vanish
    lifted = []
    for e in idems:
        x = qm.lift(e) if qm else e
        while A.mul(x, x) != x:
            x = A.pow(x, F.q)
        lifted.append(x)
    lifted.sort()
    total = zero_vec(A.dim)
    for x in lifted:
        total = vadd(F, total, x)
    if total != A.one:
        raise InternalInvariantError("idempotents-incomplete",
                                     "idempotents do not sum to the unit")
    for x, y in itertools.combinations(lifted, 2):
        if any(A.mul(x, y)):
            raise InternalInvariantError("idempotents-not-orthogonal",
                                         "lifted idempotents are not orthogonal")
    return lifted


def _split_idempotent(A, e, c):
    """Split the idempotent e along c in e*A, via the minimal polynomial of c."""
    F = A.field
    powers = [e]
    cur = e
    while True:
        cur = A.mul(cur, c)
        coeffs = gfq.express(F, powers, cur)
        if coeffs is not None:
            break
        powers.append(cur)
    deg = len(powers)
    # c^deg = sum coeffs_i c^i; roots of the minimal polynomial in GF(q)
    roots = []
    for lam in F.elements():
        acc = F.neg(_eval_dependency(F, coeffs, lam))
        lam_pow = 1
        for _ in range(deg):
            lam_pow = F.mul(lam_pow, lam)
        if F.add(lam_pow, acc) == 0:
            roots.append(lam)
    if len(roots) != deg:
        raise InternalInvariantError(
            "minimal-polynomial-not-split",
            "semisimple splitting element has a non-split minimal polynomial")
    if deg == 1:
        return [e]
    out = []
    for lam in roots:
        numer = e
        denom = 1
        for mu in roots:
            if mu == lam:
                continue
            numer = A.mul(numer, vsub(F, c, vscale(F, mu, e)))
            denom = F.mul(denom, F.sub(lam, mu))
        e_lam = vscale(F, F.inv(denom), numer)
        if A.mul(e_lam, e_lam) != e_lam:
            raise InternalInvariantError("idempotent-split-failed",
                                         "interpolated element is not idempotent")
        out.append(e_lam)
    return out


def _eval_dependency(F, coeffs, lam):
    acc = 0
    lam_pow = 1
    for c in coeffs:
        if c:
            acc = F.add(acc, F.mul(c, lam_pow))
        lam_pow = F.mul(lam_pow, lam)
    return acc


def local_decomposition(ring):
    """Split an Artinian ring into local factors along its idempotents."""
    A = ring if isinstance(ring, Algebra) else ring.ambient
    F = A.field
    nil = nilradical(ring)
    if isinstance(ring, Algebra):
        idems = _primitive_idempotents(ring, nil.basis)
    else:
        fmap = subspace_algebra(A, ring.basis, A.one)
        idems = [fmap.embed(e) for e in
                 _primitive_idempotents(fmap.algebra, fmap.coords_rows(nil.basis))]
    ring_rows = span_rows_of(ring)
    factors = []
    for e in idems:
        e_rows = rref(F, [A.mul(e, r) for r in ring_rows])
        factor = subspace_algebra(A, e_rows, e)
        # the nilradical of the factor e*ring is e times that of the ring
        fnil_dim = len(rref(F, [A.mul(e, v) for v in nil.basis]))
        one_minus_e = vsub(F, A.one, e)
        m_rows = rref(F, [A.mul(one_minus_e, r) for r in ring_rows]
                      + list(nil.basis))
        factors.append(LocalFactor(
            idempotent=e,
            factor=factor,
            maximal_ideal=Ideal(ring, m_rows),
            residue_degree=factor.algebra.dim - fnil_dim,
        ))
    if sum(f.factor.algebra.dim for f in factors) != len(ring_rows):
        raise InternalInvariantError("local-factor-dims",
                                     "factor dimensions do not add up")
    return LocalDecomposition(ring=ring, factors=tuple(factors), nilradical=nil)


def brute_force_idempotents(ring, budget=4096):
    """All idempotents by exhaustive scan; independent oracle for tests."""
    A = ring if isinstance(ring, Algebra) else ring.ambient
    rows = span_rows_of(ring)
    if A.field.q ** len(rows) > budget:
        raise AlgebraError("idempotent scan budget exceeded")
    out = []
    for v in gfq.span_vectors(A.field, rows):
        if A.mul(v, v) == v:
            out.append(v)
    return sorted(out)


# ---------------------------------------------------------------------------
# localization, length, support


def localize_extension(ext, M, with_map=False, an=None):
    """Localize R <= S at a maximal ideal M of R (idempotent projection)."""
    R, S, A = ext.bottom, ext.top, ext.ambient
    F = A.field
    dec = (an or Analysis()).decomposition(R)
    match = [f for f in dec.factors if f.maximal_ideal == M]
    if not match:
        raise AlgebraError("not a maximal ideal of the bottom ring")
    if dec.is_local:
        return (ext, None) if with_map else ext
    e = match[0].idempotent
    s_rows = rref(F, [A.mul(e, s) for s in S.basis])
    fac = subspace_algebra(A, s_rows, e)
    r_rows = fac.coords_rows([A.mul(e, r) for r in R.basis])
    loc = Extension(Subalgebra(fac.algebra, r_rows, check=False))
    return (loc, fac) if with_map else loc


def support(ext, an=None):
    """Maximal ideals of R at which the localized extension is nontrivial."""
    R, S, A = ext.bottom, ext.top, ext.ambient
    F = A.field
    dec = (an or Analysis()).decomposition(R)
    out = []
    for f in dec.factors:
        e = f.idempotent
        dim_r = len(rref(F, [A.mul(e, r) for r in R.basis]))
        dim_s = len(rref(F, [A.mul(e, s) for s in S.basis]))
        if dim_r != dim_s:
            out.append(f.maximal_ideal)
    out.sort(key=lambda m: m.basis)
    return tuple(out)


def module_length(R, e_rows, f_rows=(), an=None):
    """Length of E/F as an R-module, via the radical filtration of R.

    E and F are nested R-stable subspaces of the ambient algebra, given by
    row bases.  Each radical layer is split along the idempotents of R and
    measured over the residue field of the matching local factor.
    """
    A = R.ambient if isinstance(R, Subalgebra) else R
    F = A.field
    ring_rows = span_rows_of(R)
    e_rows = rref(F, e_rows)
    f_rows = rref(F, f_rows)
    for v in f_rows:
        if not in_span(F, e_rows, v):
            raise AlgebraError("F not contained in E")
    for rows in (e_rows, f_rows):
        for r in ring_rows:
            for x in rows:
                if not in_span(F, rows, A.mul(r, x)):
                    raise AlgebraError("module subspace not stable under the ring")
    dec = (an or Analysis()).decomposition(R)
    rad = dec.nilradical
    total = 0
    cur = e_rows
    while len(cur) > len(f_rows):
        nxt = rref(F, [A.mul(j, x) for j in rad.basis for x in cur] + list(f_rows))
        if len(nxt) >= len(cur):
            raise InternalInvariantError("radical-filtration-stalled",
                                         "radical filtration failed to descend")
        for f in dec.factors:
            e_part = rref(F, [A.mul(f.idempotent, x) for x in cur] + list(nxt))
            layer_dim = len(e_part) - len(nxt)
            if layer_dim % f.residue_degree:
                raise InternalInvariantError(
                    "layer-dimension-mismatch",
                    "layer dimension not divisible by the residue degree")
            total += layer_dim // f.residue_degree
        cur = nxt
    return total


def intersect_with(sub_or_rows, rows, ambient):
    other = sub_or_rows.basis if hasattr(sub_or_rows, "basis") else sub_or_rows
    return intersect_rowspaces(ambient.field, other, rows, ambient.dim)
