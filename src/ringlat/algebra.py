"""Finite-dimensional commutative unital algebras over GF(q).

An :class:`Algebra` is given by structure constants on a fixed basis and is
validated (commutative, associative, unital) at construction.  Subalgebras
and ideals store their vectors in the coordinates of one fixed ambient
Algebra, as canonical reduced-echelon bases, so equality and hashing are
structural.  Every function that takes a ring takes a Subalgebra
(``A.full()`` for the whole algebra); only :class:`Extension` also accepts
an Algebra, as its top.  The local decomposition works in those same
coordinates: one Frobenius pass per ring gives the nilradical and the
Frobenius-fixed subring, a split copy of GF(q)**r whose splitting gives the
primitive idempotents exactly, and each local factor is recorded by its
idempotent and its dimension.  The
localization of an extension at a maximal ideal is a subinterval of it, in
the same ambient.  Only a quotient is a new Algebra, connected to its
source by its projection, and only the quotient-interval check builds one.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gfq
from .analysis import Analysis
from .gfq import (
    in_span,
    intersect_rowspaces,
    lincomb,
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
        scalars = [c for row in self.table for v in row for c in v] + list(self.one)
        bad = [c for c in scalars if not isinstance(c, int) or not 0 <= c < field.q]
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
        return gfq.algebra_product(self.field, self.table, u, v)

    def pow(self, u, k):
        """u**k by binary powering from the lowest set bit of k:
        bit_length(k) + popcount(k) - 2 products for k >= 1."""
        if not k:
            return self.one
        base = tuple(u)
        while not k & 1:
            base = self.mul(base, base)
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = self.mul(base, base)
            if k & 1:
                result = self.mul(result, base)
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


class Subspace:
    """Subspace of an ambient Algebra on its canonical reduced-echelon basis.

    Two subspaces are equal iff they have the same class, the same ambient
    algebra and the same basis tuple.
    """

    def __init__(self, ambient, rows):
        self.ambient = ambient
        self.basis = rref(ambient.field, rows)

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, v):
        return in_span(self.ambient.field, self.basis, v)

    def contains(self, other):
        return all(self.contains_vector(v) for v in other.basis)

    def __eq__(self, other):
        return (type(other) is type(self) and other.ambient is self.ambient
                and other.basis == self.basis)

    def __hash__(self):
        return hash((id(self.ambient), self.basis))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, basis={[list(r) for r in self.basis]})"


class Subalgebra(Subspace):
    """Unital multiplicatively closed subspace of an Algebra: the one ring type."""

    def __init__(self, ambient, rows, check=True):
        super().__init__(ambient, rows)
        if check:
            if not self.contains_vector(ambient.one):
                raise AlgebraError("subalgebra must contain the unit")
            for a, b in itertools.combinations_with_replacement(self.basis, 2):
                if not self.contains_vector(ambient.mul(a, b)):
                    raise AlgebraError("subspace not closed under multiplication")


class Ideal(Subspace):
    """Subspace of a ring (a Subalgebra) closed under multiplication by it.

    Vectors are stored in the coordinates of the ring's ambient Algebra.
    """

    def __init__(self, ring, rows, check=True):
        super().__init__(ring.ambient, rows)
        if check:
            for x in self.basis:
                if not ring.contains_vector(x):
                    raise AlgebraError("ideal not contained in its ring")
                for r in ring.basis:
                    if not self.contains_vector(self.ambient.mul(r, x)):
                        raise AlgebraError("subspace not an ideal of the ring")


class Extension:
    """A pair bottom <= top of subalgebras of a common ambient algebra.

    A top given as an Algebra, or left out, stands for the whole ambient
    (``A.full()``); everywhere else a ring is a Subalgebra.
    """

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
    """Smallest subalgebra containing the seed, the unit and the generators.

    The seed must be a ring T, GF(q)*1 if left out.  Generators are adjoined
    one at a time: T[c] = sum_k c**k T, as (c**i t)(c**j t') = c**(i+j) tt',
    is the span of T made stable under c.  Each round multiplies by c only
    the rows the last one added: exactly dim T[c] products per generator.
    """
    F = ambient.field
    rows = list(seed.basis if seed is not None else rref(F, [ambient.one]))
    for g in gens:
        if len(g) != ambient.dim:
            raise AlgebraError("generator has wrong coordinate length")
        frontier = list(rows)
        while frontier:
            frontier = [red for t in frontier
                        if (red := gfq.reduce_insert(F, rows, ambient.mul(g, t))) is not None]
    return Subalgebra(ambient, rows, check=False)


# ---------------------------------------------------------------------------
# ideals


def conductor(R, S):
    """Largest common ideal of R and S: all x in R with x*S inside R."""
    A = R.ambient
    F = A.field
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
    rows = [lincomb(F, coeffs, R.basis) for coeffs in gfq.left_kernel(F, unknown_rows)]
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


# ---------------------------------------------------------------------------
# nilradical and local structure


def frobenius(ring):
    """(K, Nil): row bases, in ambient coordinates, of K = ker(x -> x**q - x)
    and Nil = ker(x -> x**Q), with Q the least power of q with Q >= q and
    Q >= dim ring.

    Both maps are GF(q)-linear, and x -> x**q is a ring endomorphism, so K is
    a subring.  In a local factor with idempotent e, y**q = y forces
    y = a*e + n with a in GF(q) and n nilpotent, n**q = n, so n = 0: K is the
    GF(q)-span of the primitive idempotents, one dimension per local factor.
    A nilpotent x has x**dim = 0, so Nil is the nilradical.  The images x**q
    of the basis serve both kernels: raised to the q-th power again until
    Q >= dim ring, they are the images x**Q.
    """
    A = ring.ambient
    F = A.field
    images = [A.pow(b, F.q) for b in ring.basis]
    fixed = gfq.left_kernel(F, [vsub(F, y, b) for y, b in zip(images, ring.basis)])
    Q = F.q
    while Q < ring.dim:
        images = [A.pow(y, F.q) for y in images]
        Q *= F.q
    nil = gfq.left_kernel(F, images)
    return tuple(tuple(lincomb(F, c, ring.basis) for c in kernel) for kernel in (fixed, nil))


def nilradical(ring, an=None):
    """Ideal of nilpotents: the kernel Nil of :func:`frobenius`."""
    _, nil = (an or Analysis()).frobenius(ring)
    return Ideal(ring, nil)


@dataclass(frozen=True)
class QuotientMap:
    """Quotient S/J of a ring by an ideal, with its projection."""

    source: Algebra
    algebra: Algebra
    ideal_rows: tuple
    comp_coords: tuple  # pivot columns of the quotient basis, in source coordinates

    def project(self, vec):
        w = reduce_vec(self.source.field, self.ideal_rows, vec)
        return tuple(w[c] for c in self.comp_coords)

    def project_rows(self, rows):
        return rref(self.algebra.field, [self.project(r) for r in rows])


def quotient(S, J):
    """Quotient of a ring by a proper ideal given by rows, with its projection.

    The quotient's basis is the rref of the normal forms of S modulo J, so a
    normal form's coordinates are its entries at their pivot columns; for
    S = A.full() that basis is the unit vectors off the pivots of J.
    """
    A = S.ambient
    F = A.field
    rows = rref(F, J)
    Ideal(S, rows)  # validates J is an ideal of S
    if in_span(F, rows, A.one):
        raise AlgebraError("improper ideal: the unit maps to zero")
    basis = rref(F, [reduce_vec(F, rows, s) for s in S.basis])
    qm = QuotientMap(A, None, rows, gfq.pivots_of(basis))
    table = tuple(tuple(qm.project(A.mul(a, b)) for b in basis) for a in basis)
    alg = Algebra(F, table, qm.project(A.one))
    return QuotientMap(A, alg, rows, qm.comp_coords)


@dataclass(frozen=True)
class LocalFactor:
    """One local factor e*ring of an Artinian ring, kept in ambient coordinates."""

    idempotent: tuple          # in ambient coordinates
    dim: int                   # GF(q)-dimension of the factor e*ring
    maximal_ideal: Ideal       # pulled back to the ring, ambient coordinates
    residue_degree: int        # GF(q)-dimension of the residue field


@dataclass(frozen=True)
class LocalDecomposition:
    """Complete orthogonal idempotents and the local factors they cut out."""

    ring: Subalgebra              # the decomposed ring
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


def _primitive_idempotents(A, fixed):
    """Primitive idempotents of a ring, in the coordinates of its ambient A,
    from a basis of its Frobenius-fixed subring K (see :func:`frobenius`).

    K is a copy of GF(q)**r, so splitting the unit along each basis vector
    of K with the ambient product gives the r idempotents exactly.
    """
    F = A.field
    idems = [A.one]
    for b in fixed:
        refined = []
        for e in idems:
            refined.extend(_split_idempotent(A, e, A.mul(e, b)))
        idems = refined
    if len(idems) != len(fixed):
        raise InternalInvariantError(
            "idempotent-splitting-incomplete",
            f"expected {len(fixed)} primitive idempotents, found {len(idems)}")
    idems.sort()
    total = zero_vec(A.dim)
    for x in idems:
        total = vadd(F, total, x)
    if total != A.one:
        raise InternalInvariantError("idempotents-incomplete",
                                     "idempotents do not sum to the unit")
    for x, y in itertools.combinations(idems, 2):
        if any(A.mul(x, y)):
            raise InternalInvariantError("idempotents-not-orthogonal",
                                         "split idempotents are not orthogonal")
    return idems


def _split_idempotent(A, e, c):
    """Split the idempotent e along c in A, via the minimal polynomial of c
    in eA."""
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
    # roots in GF(q) of x^deg - sum coeffs_i x^i, one Horner pass per candidate
    roots = []
    for lam in F.elements():
        acc = 1
        for a in reversed(coeffs):
            acc = F.sub(F.mul(acc, lam), a)
        if acc == 0:
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


def local_decomposition(ring, an=None):
    """Split an Artinian ring (a Subalgebra) into local factors along its idempotents."""
    A = ring.ambient
    F = A.field
    an = an or Analysis()
    nil = nilradical(ring, an)
    fixed, _ = an.frobenius(ring)
    factors = []
    for e in _primitive_idempotents(A, fixed):
        dim = len(rref(F, [A.mul(e, r) for r in ring.basis]))
        # the nilradical of the factor e*ring is e times that of the ring
        fnil_dim = len(rref(F, [A.mul(e, v) for v in nil.basis]))
        one_minus_e = vsub(F, A.one, e)
        m_rows = rref(F, [A.mul(one_minus_e, r) for r in ring.basis]
                      + list(nil.basis))
        factors.append(LocalFactor(
            idempotent=e,
            dim=dim,
            maximal_ideal=Ideal(ring, m_rows),
            residue_degree=dim - fnil_dim,
        ))
    if sum(f.dim for f in factors) != ring.dim:
        raise InternalInvariantError("local-factor-dims",
                                     "factor dimensions do not add up")
    return LocalDecomposition(ring=ring, factors=tuple(factors), nilradical=nil)


# ---------------------------------------------------------------------------
# localization, length, support


def localize_extension(ext, M, an=None):
    """Localize R <= S at a maximal ideal M of R, as a subinterval of [R, S].

    With e the idempotent of M, the localization is [R + (1-e)S, S]:
    T -> eT maps it onto [eR, eS] = [R_M, S_M], keeping the order and the
    closures.  It lives in the ambient of ext, and is ext itself when R is
    local.
    """
    R, S, A = ext.bottom, ext.top, ext.ambient
    dec = (an or Analysis()).decomposition(R)
    match = [f for f in dec.factors if f.maximal_ideal == M]
    if not match:
        raise AlgebraError("not a maximal ideal of the bottom ring")
    if dec.is_local:
        return ext
    one_minus_e = vsub(A.field, A.one, match[0].idempotent)
    rest = [A.mul(one_minus_e, s) for s in S.basis]
    return Extension(Subalgebra(A, R.basis + tuple(rest), check=False), S)


def support(ext, an=None):
    """Maximal ideals of R at which the localized extension is nontrivial."""
    S, A = ext.top, ext.ambient
    dec = (an or Analysis()).decomposition(ext.bottom)
    out = []
    for f in dec.factors:
        if len(rref(A.field, [A.mul(f.idempotent, s) for s in S.basis])) != f.dim:
            out.append(f.maximal_ideal)
    out.sort(key=lambda m: m.basis)
    return tuple(out)


def module_length(R, e_rows, f_rows=(), an=None):
    """Length of E/F as an R-module, one dimension count per local factor.

    E and F are nested R-stable subspaces of the ambient algebra, given by
    row bases.  The idempotents e of R split E/F into the modules eE/eF over
    the local factors eR.  The one simple eR-module is its residue field,
    whose GF(q)-dimension is the residue degree, as GF(q)*1 lies in R; so
    eE/eF has length (dim eE - dim eF) / residue degree.
    """
    A = R.ambient
    F = A.field
    e_rows = rref(F, e_rows)
    f_rows = rref(F, f_rows)
    for v in f_rows:
        if not in_span(F, e_rows, v):
            raise AlgebraError("F not contained in E")
    for rows in (e_rows, f_rows):
        for r in R.basis:
            for x in rows:
                if not in_span(F, rows, A.mul(r, x)):
                    raise AlgebraError("module subspace not stable under the ring")
    total = 0
    for f in (an or Analysis()).decomposition(R).factors:
        part_dim = (len(rref(F, [A.mul(f.idempotent, x) for x in e_rows]))
                    - len(rref(F, [A.mul(f.idempotent, x) for x in f_rows])))
        if part_dim % f.residue_degree:
            raise InternalInvariantError(
                "layer-dimension-mismatch",
                "factor dimension not divisible by the residue degree")
        total += part_dim // f.residue_degree
    return total


def intersect_with(ring, rows):
    """Rref basis of the intersection of a ring with the span of rows."""
    A = ring.ambient
    return intersect_rowspaces(A.field, ring.basis, rows, A.dim)
