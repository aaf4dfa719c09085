"""Shared fixtures, and the exhaustive references that only tests use."""

import contextlib
import itertools
import signal

import pytest

from ringlat import cli, gfq

from ringlat.algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    conductor,
    generated_subalgebra,
    make_poly_quotient,
    make_product,
)
from ringlat.analysis import Analysis
from ringlat.canonical import residual_extensions
from ringlat.gen import field_step_algebra, monomial_algebra
from ringlat.gfq import GF, irreducible_poly
from ringlat.lattice import ExtensionLattice
from ringlat.nagata import _powers


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once seconds of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def vec(field, entries):
    """The vector of field with the given entries, by the public conversion:
    a packed int over GF(2), the tuple of entries over any other field."""
    return gfq.vector(field, entries)


def base_algebra(field):
    """The field itself as a one-dimensional algebra."""
    return make_poly_quotient(field, (0, 1))


def elements(A):
    """All q**dim coordinate vectors of an algebra."""
    return (vec(A.field, t) for t in itertools.product(A.field.elements(), repeat=A.dim))


def same_table(A, B):
    """Whether two algebras have the same field, structure constants and unit."""
    return (A.field.same_field(B.field) and A.dim == B.dim
            and A.table == B.table and A.one == B.one)


def span_vectors(field, rows):
    """All elements of the row space (q**rank vectors), the coefficient
    tuples in itertools.product order."""
    if not rows:
        return
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        yield gfq.lincomb(field, vec(field, coeffs), rows)


def idempotents(dec):
    """The primitive idempotents of a local decomposition, one per factor."""
    return tuple(f.idempotent for f in dec.factors)


def maximal_ideals(dec):
    """The maximal ideals of a local decomposition, one per factor."""
    return tuple(f.maximal_ideal for f in dec.factors)


def leq(lat, i, j):
    """Whether nodes[i] lies in nodes[j], read off the masks of the lattice."""
    return bool(lat.above[i] >> j & 1)


def distributivity_scan(lat):
    """Reference distributivity: both distributive identities over all node
    triples, on meet and join tables read off the masks of the lattice."""
    n = len(lat.nodes)
    pairs = list(itertools.product(range(n), repeat=2))
    meet = {(i, j): (lat.below[i] & lat.below[j]).bit_length() - 1 for i, j in pairs}
    join = {(i, j): lat.join(i, j) for i, j in pairs}
    return all(meet[b, join[c, d]] == join[meet[b, c], meet[b, d]]
               and join[b, meet[c, d]] == meet[join[b, c], join[b, d]]
               for b, c, d in itertools.product(range(n), repeat=3))


def trial_division_irreducible(field, f):
    """Irreducibility of a monic f by trial division by every monic
    polynomial of degree at most deg f / 2."""
    f = tuple(f)
    deg = len(f) - 1
    if deg < 1 or f[-1] != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(field.elements(), repeat=d):
            if not gfq.poly_mod(field, f, tail + (1,)):
                return False
    return True


def scan_roots(field, poly):
    """Reference roots of a polynomial, constant term first: its roots in
    GF(q), one Horner pass per candidate."""
    roots = []
    for lam in field.elements():
        acc = 1
        for a in reversed(poly[:-1]):
            acc = field.add(field.mul(acc, lam), a)
        if acc == 0:
            roots.append(lam)
    return roots


def line_closure_interval(ext, an=None):
    """Reference enumeration with no line skipped: from each node T, the
    closure T[c] of one vector c of every GF(q)-line of a complement of T,
    charged one unit per line vector; X covers T iff one closure per line of
    X/T gives X."""
    an = an or Analysis()
    A = ext.ambient
    F = A.field
    seen = {ext.bottom.basis: ext.bottom}
    hits = {}
    frontier = [ext.bottom]
    while frontier:
        tasks = []
        for node in frontier:
            comp = gfq.complement_in(F, node.basis, ext.top.basis)
            an.charge("interval enumeration", (F.q ** len(comp) - 1) // (F.q - 1))
            tasks += [(node, c) for c in gfq.line_vectors(F, comp)]
        frontier = []
        for node, c in tasks:
            new = generated_subalgebra(A, [c], seed=node)
            hits[node.basis, new.basis] = hits.get((node.basis, new.basis), 0) + 1
            if new.basis not in seen:
                seen[new.basis] = new
                frontier.append(new)
    nodes = sorted(seen.values(), key=lambda n: (n.dim, n.basis))
    index = {n.basis: k for k, n in enumerate(nodes)}
    covers = sorted((index[t], index[x]) for (t, x), count in hits.items()
                    if count == (F.q ** (len(x) - len(t)) - 1) // (F.q - 1))
    return ExtensionLattice(ext=ext, nodes=tuple(nodes), bottom=index[ext.bottom.basis],
                            top=index[ext.top.basis], covers=tuple(covers))


def quadratic_field_tables(field):
    """Reference add, mul, negation and inverse tables of an extension field:
    one polynomial sum or product mod the modulus for each of the q**2 pairs,
    and the negation and inverse found by scanning a row."""
    q = field.q
    digits = [field._digits(a) for a in range(q)]
    add = [[field._encode([(x + y) % field.p for x, y in zip(digits[a], digits[b])])
            for b in range(q)] for a in range(q)]
    mul = [[field._poly_mul_mod(digits[a], digits[b]) for b in range(q)] for a in range(q)]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    return add, mul, [add[a].index(0) for a in range(q)], inv


# Entry-wise GF(2) references for the packed kernels of gfq: rows are tuples
# of 0/1 ints, and every sum is taken mod 2 entry by entry.


def ref2_rref(rows):
    """Reduced row echelon form over GF(2), zero rows dropped."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [x ^ y for x, y in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def ref2_reduce(rows, v):
    """Normal form of v modulo rref rows over GF(2)."""
    v = list(v)
    for row in rows:
        if v[row.index(1)]:
            v = [x ^ y for x, y in zip(v, row)]
    return tuple(v)


def ref2_left_kernel(rows):
    """The rref basis of the x with sum x_i rows_i = 0, from [rows | I]."""
    n, m = len(rows[0]), len(rows)
    red = ref2_rref([tuple(r) + tuple(int(i == j) for j in range(m))
                     for i, r in enumerate(rows)])
    return tuple(row[n:] for row in red if not any(row[:n]))


def ref2_intersect(rows_a, rows_b, n):
    """The rref basis of the intersection of two row spaces, by Zassenhaus."""
    red = ref2_rref([tuple(r) + tuple(r) for r in rows_a]
                    + [tuple(r) + (0,) * n for r in rows_b])
    return ref2_rref([row[n:] for row in red if not any(row[:n])])


def ref2_product(table, u, v):
    """sum(u[i] v[j] table[i][j]) over GF(2)."""
    acc = [0] * len(u)
    for i, j in itertools.product(range(len(u)), repeat=2):
        if u[i] and v[j]:
            acc = [x ^ t for x, t in zip(acc, table[i][j])]
    return tuple(acc)


def ref2_line_vectors(rows):
    """The nonzero vectors of the span of independent rows over GF(2) whose
    coefficient tuple leads with 1, in itertools.product order per lead."""
    k = len(rows)
    for lead in reversed(range(k)):
        for tail in itertools.product((0, 1), repeat=k - 1 - lead):
            acc = rows[lead]
            for c, row in zip(tail, rows[lead + 1:]):
                if c:
                    acc = tuple(x ^ y for x, y in zip(acc, row))
            yield acc


def ref2_rref_matrices(n):
    """Every rref matrix of n columns over GF(2): by rank, pivot columns,
    then the free entries row by row in itertools.product order."""
    yield ()
    for r in range(1, n + 1):
        for piv in itertools.combinations(range(n), r):
            free = [(i, j) for i in range(r) for j in range(piv[i] + 1, n)
                    if j not in piv]
            for vals in itertools.product((0, 1), repeat=len(free)):
                mat = [[int(j == piv[i]) for j in range(n)] for i in range(r)]
                for (i, j), x in zip(free, vals):
                    mat[i][j] = x
                yield tuple(tuple(row) for row in mat)


def pivot_count_subspaces(q, n):
    """Reference subspace count: one term q**free per pivot pattern of an
    rref matrix, summed over all 2**n patterns."""
    total = 1  # the zero space
    for r in range(1, n + 1):
        for piv in itertools.combinations(range(n), r):
            free = sum(1 for i in range(r) for j in range(piv[i] + 1, n)
                       if j not in piv)
            total += q ** free
    return total


def brute_force_idempotents(ring, budget=4096):
    """All idempotents by exhaustive scan."""
    A = ring.ambient
    if A.field.q ** ring.dim > budget:
        raise AlgebraError("idempotent scan budget exceeded")
    out = []
    for v in span_vectors(A.field, ring.basis):
        if A.mul(v, v) == v:
            out.append(v)
    return sorted(out)


def prime_field_nilradical(ring):
    """Reference nilradical: the kernel of x -> x**(p^m) over the prime field
    GF(p), on the GF(p)-basis y^j * b and the base-p digits of each image."""
    A = ring.ambient
    F = A.field
    p = F.p
    Fp = GF(p)
    pm = 1
    while pm < ring.dim:
        pm *= p
    fp_basis = [gfq.vscale(F, p ** j, b) for b in ring.basis for j in range(F.e)]
    digit_rows = [vec(Fp, [c // p ** i % p for c in gfq.entries(F, A.pow(v, pm), A.dim)
                           for i in range(F.e)])
                  for v in fp_basis]
    return gfq.rref(F, [gfq.lincomb(F, vec(F, gfq.entries(Fp, k, len(fp_basis))), fp_basis)
                        for k in gfq.left_kernel(Fp, digit_rows)])


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
                if not gfq.is_zero(F, part):
                    refined.append(part)
        idems = refined
    lifted = []
    for x in idems:
        while A.mul(x, x) != x:
            x = A.pow(x, F.q)
        lifted.append(x)
    return sorted(lifted)


def incomparable_pair_scan(lat):
    """Reference witness: the first incomparable pair of nodes in index
    order, by a scan of all node pairs."""
    for i, j in itertools.combinations(range(len(lat.nodes)), 2):
        if not leq(lat, i, j) and not leq(lat, j, i):
            return lat.nodes[i], lat.nodes[j]
    return None


def residual_subintegral(ext, an=None):
    """Reference subintegrality: every residue-field extension is trivial
    and contraction maps the maximal ideals of the top bijectively onto
    those of the bottom."""
    an = an or Analysis()
    residuals = residual_extensions(ext, an)
    if any(r.degree != 1 for r in residuals):
        return False
    images = [r.prime_bottom.basis for r in residuals]
    return len(set(images)) == len(images) == len(an.decomposition(ext.bottom).factors)


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
    R = Subalgebra(S, [vec(F2, (1, 0, 0)), vec(F2, (0, 1, 0))])
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
