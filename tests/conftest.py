"""Shared fixtures, and the exhaustive references that only tests use."""

import itertools

import pytest

from ringlat import cli, gfq

from ringlat.algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    base_algebra,
    conductor,
    generated_subalgebra,
    make_poly_quotient,
    make_product,
)
from ringlat.analysis import Analysis
from ringlat.gen import field_step_algebra, monomial_algebra
from ringlat.gfq import GF, irreducible_poly
from ringlat.nagata import _powers


def trial_division_irreducible(field, f):
    """Irreducibility of a monic f by trial division by every monic
    polynomial of degree at most deg f / 2."""
    f = tuple(f)
    deg = len(f) - 1
    if deg < 1 or f[-1] != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(field.elements(), repeat=d):
            if not gfq._poly_mod(field, f, tail + (1,)):
                return False
    return True


def brute_force_idempotents(ring, budget=4096):
    """All idempotents by exhaustive scan."""
    A = ring.ambient
    if A.field.q ** ring.dim > budget:
        raise AlgebraError("idempotent scan budget exceeded")
    out = []
    for v in gfq.span_vectors(A.field, ring.basis):
        if A.mul(v, v) == v:
            out.append(v)
    return sorted(out)


def prime_field_nilradical(ring):
    """Reference nilradical: the kernel of x -> x**(p^m) over the prime field
    GF(p), on the GF(p)-basis y^j * b and the base-p digits of each image."""
    A = ring.ambient
    F = A.field
    p = F.p
    pm = 1
    while pm < ring.dim:
        pm *= p
    fp_basis = [gfq.vscale(F, p ** j, b) for b in ring.basis for j in range(F.e)]
    digit_rows = [tuple(c // p ** i % p for c in A.pow(v, pm) for i in range(F.e))
                  for v in fp_basis]
    return gfq.rref(F, [gfq.lincomb(F, k, fp_basis)
                        for k in gfq.left_kernel(GF(p), digit_rows)])


def primitive_idempotents_mod_nil(ring):
    """Reference primitive idempotents, found modulo the nilradical and lifted.

    ring/Nil is the set of normal forms modulo the rows of
    :func:`prime_field_nilradical`.  Its Frobenius-fixed subspace is a copy of
    GF(q)**r; an idempotent e splits along a fixed c into the nonzero
    e - (c - lam*e)**(q-1), lam in GF(q).  Each idempotent of ring/Nil lifts
    to the ring by iterating x -> x**q until it is idempotent there.
    """
    A = ring.ambient
    F = A.field
    nil_rows = prime_field_nilradical(ring)

    def mod_nil(v):
        return gfq.reduce_vec(F, nil_rows, v)

    def mul(u, v):
        return mod_nil(A.mul(u, v))

    basis = gfq.complement_in(F, nil_rows, ring.basis)
    frob_rows = [gfq.vsub(F, mod_nil(A.pow(b, F.q)), b) for b in basis]
    fixed = [gfq.lincomb(F, x, basis) for x in gfq.left_kernel(F, frob_rows)]
    idems = [mod_nil(A.one)]
    for b in fixed:
        refined = []
        for e in idems:
            for lam in F.elements():
                u = gfq.vsub(F, mul(e, b), gfq.vscale(F, lam, e))
                power = e
                for _ in range(F.q - 1):
                    power = mul(power, u)
                part = gfq.vsub(F, e, power)
                if any(part):
                    refined.append(part)
        idems = refined
    lifted = []
    for x in idems:
        while A.mul(x, x) != x:
            x = A.pow(x, F.q)
        lifted.append(x)
    return sorted(lifted)


def nilpotency_index(ext, an=None):
    """Smallest n >= 1 with M**n inside the conductor, for local R."""
    dec = (an or Analysis()).decomposition(ext.bottom)
    if not dec.is_local:
        raise AlgebraError("nilpotency index requires a local bottom ring")
    C = conductor(ext.bottom, ext.top)
    return len(_powers(ext.ambient, dec.factors[0].maximal_ideal.basis, C))


def all_staircases(max_size):
    """Every downward-closed monomial set of size <= max_size (exhaustive)."""
    found = {((0, 0),)}
    frontier = {((0, 0),)}
    while frontier:
        new = set()
        for stair in frontier:
            cells = set(stair)
            if len(cells) >= max_size:
                continue
            grow = {(i + 1, j) for i, j in cells} | {(i, j + 1) for i, j in cells}
            for cell in grow:
                i, j = cell
                if cell in cells:
                    continue
                if (i == 0 or (i - 1, j) in cells) and (j == 0 or (i, j - 1) in cells):
                    cand = tuple(sorted(cells | {cell}))
                    if cand not in found:
                        found.add(cand)
                        new.add(cand)
        frontier = new
    return sorted(found, key=lambda s: (len(s), s))


def exhaustive_local_algebras(field, max_dim):
    """Every staircase quotient and field step of dim <= max_dim."""
    out = [monomial_algebra(field, stair) for stair in all_staircases(max_dim)]
    out.extend(field_step_algebra(field, m) for m in range(2, max_dim + 1))
    return out


def exhaustive_top_algebras(field, max_dim):
    """Local algebras and binary products of them, up to max_dim, all shapes."""
    locals_ = exhaustive_local_algebras(field, max_dim)
    out = list(locals_)
    for a, b in itertools.combinations_with_replacement(locals_, 2):
        if a.dim + b.dim <= max_dim:
            out.append(make_product(a, b))
    return out


@pytest.fixture(scope="session")
def F2():
    return GF(2)


@pytest.fixture(scope="session")
def F3():
    return GF(3)


@pytest.fixture(scope="session")
def F4alg(F2):
    return make_poly_quotient(F2, (1, 1, 1))


@pytest.fixture(scope="session")
def T44(F2):
    """The truncated polynomial algebra F2[Y]/(Y^4)."""
    return make_poly_quotient(F2, (0, 0, 0, 0, 1))


@pytest.fixture(scope="session")
def ext44(T44):
    """The base field inside F2[Y]/(Y^4)."""
    return Extension(generated_subalgebra(T44, []), T44)


@pytest.fixture(scope="session")
def ext64(F2):
    """The base field inside the field with 64 elements."""
    F64 = make_poly_quotient(F2, irreducible_poly(F2, 6))
    return Extension(generated_subalgebra(F64, []), F64)


@pytest.fixture(scope="session")
def ext_chain3(F2):
    """The base field inside F2[Y]/(Y^3): a three-node chain."""
    T3 = make_poly_quotient(F2, (0, 0, 0, 1))
    return Extension(generated_subalgebra(T3, []), T3)


@pytest.fixture(scope="session")
def ext_f2xf4(F2, F4alg):
    """F2 x F2 inside F2 x F4."""
    S = make_product(base_algebra(F2), F4alg)
    R = Subalgebra(S, [(1, 0, 0), (0, 1, 0)])
    return Extension(R, S)


@pytest.fixture(scope="session")
def fat_layer_ext(F2):
    """F2[x] inside F2[x,a,b]/(x^2, a^2, b^2, ab): a fat filtration layer.

    Basis monomials 1, a, b, x, ax, bx; the bottom ring is spanned by 1, x.
    """
    mons = ("", "a", "b", "x", "ax", "bx")

    def prod(mi, mj):
        letters = sorted(mi + mj)
        key = "".join(letters)
        if key.count("x") >= 2 or len([c for c in key if c in "ab"]) >= 2:
            return None
        return key if key in mons else None

    table = []
    for mi in mons:
        row = []
        for mj in mons:
            k = prod(mi, mj)
            row.append(tuple(1 if k == m else 0 for m in mons))
        table.append(tuple(row))
    from ringlat.algebra import Algebra

    S = Algebra(GF(2), table, (1, 0, 0, 0, 0, 0))
    R = generated_subalgebra(S, [S.basis_vec(3)])
    return Extension(R, S)


@pytest.fixture(scope="session")
def deep_local_ext(F2):
    """F2[s^2] inside F2[s]/(s^5): conductor (s^4), filtration index 2."""
    S = make_poly_quotient(F2, (0, 0, 0, 0, 0, 1))
    R = generated_subalgebra(S, [S.basis_vec(2)])
    return Extension(R, S)


@pytest.fixture
def spent_at_default(monkeypatch, capsys):
    """Run one CLI command with the default budget; returns (stdout, units spent)."""
    def _run(argv):
        made = []
        original = cli.analysis_for

        def record(args):
            made.append(original(args))
            return made[-1]

        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli, "analysis_for", record)
            assert cli.main(argv) == 0
        assert len(made) == 1
        return capsys.readouterr().out, made[0].spent

    return _run
