"""Exact arithmetic over small finite fields, and linear algebra over them.

A field element of GF(p**e) is an int in ``range(q)``: the value
``sum(c[i] * p**i)`` encodes the polynomial-basis coordinates ``c`` of the
element.  Vectors are tuples of such ints, matrices are tuples of row
tuples.  Everything is immutable, hashable and exact.

A prime field (e = 1) stores nothing: its elements are ints mod p and every
operation reduces mod p.  An extension field (e > 1) builds q x q add and
mul tables once.  Only this module knows which of the two a field is.  The
vector kernels (`lincomb`, `vadd`, `vsub`, `vscale`, `algebra_product`) and
the eliminations built on them (`rref`, `reduce_vec`, and `reduce_insert`,
which grows an rref basis one vector at a time) choose once per call, not
once per entry: over a prime field they compute with plain ints and reduce
mod p, over an extension field they index local table rows.

Polynomials over a field are coefficient lists, constant term first.  A few
helpers (remainder, product and power mod a monic polynomial, monic gcd)
serve `poly_is_irreducible`, Ben-Or's test, and `irreducible_poly`, the
lexicographically first monic irreducible of a degree, which gives the
default modulus of GF(p**e) and the field steps of `gen`.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

MAX_TABLE_Q = 4096  # the largest field GF accepts, and so the parser's field-size cap
MAX_DEFAULT_MODULUS_Q = 64


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q):
    """Split q = p**e with p prime, or raise ValueError.

    A q above MAX_TABLE_Q names no field GF builds and is refused before
    any division.  Trial division stops at isqrt(q): a q with no divisor
    up to there is prime.
    """
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    if q > MAX_TABLE_Q:
        raise ValueError(f"field size {q} exceeds supported bound {MAX_TABLE_Q}")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e, m = 0, q
    while m > 1:
        if m % p:
            raise ValueError(f"not a prime power: {q}")
        m //= p
        e += 1
    return p, e


def factor_multiplicity(n):
    """Number of prime factors of n counted with multiplicity (Omega)."""
    if n < 1:
        raise ValueError(f"positive integer required: {n}")
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    if n > 1:
        count += 1
    return count


class GF:
    """The finite field GF(p**e), polynomial basis mod a monic irreducible."""

    def __init__(self, p, e=1, modulus=None):
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        # q >= p and q >= 2**e: refuse before trial-dividing p or computing p**e
        if p > MAX_TABLE_Q or (p > 1 and e >= MAX_TABLE_Q.bit_length()):
            size = p if e == 1 else f"{p}^{e}"
            raise ValueError(f"field size {size} exceeds supported bound {MAX_TABLE_Q}")
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        q = p ** e
        if q > MAX_TABLE_Q:
            raise ValueError(f"field size {q} exceeds supported bound {MAX_TABLE_Q}")
        self.p, self.e, self.q = p, e, q
        if modulus is None:
            if e == 1:
                modulus = (0, 1)
            elif q <= MAX_DEFAULT_MODULUS_Q:
                modulus = irreducible_poly(self.prime_field(), e)
            else:
                raise ValueError(f"modulus must be supplied for q = {q} > "
                                 f"{MAX_DEFAULT_MODULUS_Q}")
        self.modulus = self._check_modulus(tuple(modulus))
        if e > 1:
            self._build_tables()

    def _check_modulus(self, f):
        if len(f) != self.e + 1:
            raise ValueError(f"modulus degree must be {self.e}, got {len(f) - 1}")
        if any(not isinstance(c, int) or not 0 <= c < self.p for c in f):
            raise ValueError(f"modulus coefficients must lie in range({self.p})")
        if f[-1] != 1:
            raise ValueError("modulus must be monic")
        if self.e > 1 and not poly_is_irreducible(self.prime_field(), f):
            raise ValueError(f"modulus {f} is reducible over GF({self.p})")
        return f

    def _build_tables(self):
        p, q = self.p, self.q
        digits = [self._digits(a) for a in range(q)]
        self._add = [[self._encode([(x + y) % p for x, y in zip(digits[a], digits[b])])
                      for b in range(q)] for a in range(q)]
        self._mul = [[self._poly_mul_mod(digits[a], digits[b]) for b in range(q)]
                     for a in range(q)]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = self._mul[a].index(1)

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits):
        val = 0
        for c in reversed(digits):
            val = val * self.p + c
        return val

    def _poly_mul_mod(self, da, db):
        p, e, f = self.p, self.e, self.modulus
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(e):
                    prod[k - e + j] = (prod[k - e + j] - c * f[j]) % p
        return self._encode(prod[:e])

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self._add[a][self._neg[b]]

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return self._neg[a]

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self._inv[a]

    def elements(self):
        return range(self.q)

    def prime_field(self):
        if self.e == 1:
            return self
        if not hasattr(self, "_prime_field"):
            self._prime_field = GF(self.p)
        return self._prime_field

    def same_field(self, other):
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e}; mod={list(self.modulus)})"


def poly_is_irreducible(field, f):
    """Ben-Or's test over GF(q): a monic f of degree n is irreducible iff
    gcd(f, x**(q**i) - x) = 1 for i = 1 .. n // 2, that is iff no monic
    irreducible of degree at most n / 2 divides f.  Each x**(q**i) mod f is
    the last one raised to the q-th power."""
    f = tuple(f)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    x = h = [0, 1]
    for _ in range(n // 2):
        h = _poly_powmod(field, h, field.q, f)
        if len(_poly_gcd(field, f, _poly_sub(field, h, x))) > 1:
            return False
    return True


def irreducible_poly(field, degree):
    """Lexicographically first monic irreducible of given degree over field.

    Above degree 1, x divides every candidate with constant term 0, so
    those are never generated."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    constants = range(field.q) if degree == 1 else range(1, field.q)
    for tail in itertools.product(constants, *[field.elements()] * (degree - 1)):
        f = tail + (1,)
        if poly_is_irreducible(field, f):
            return f
    raise AssertionError("no irreducible polynomial found")


# The helpers below return polynomials with no trailing zeros: [] is 0.


def _poly_mod(field, num, den):
    """num mod den, for a monic den."""
    num = list(num)
    dn = len(den) - 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            for j in range(dn + 1):
                num[k - dn + j] = field.sub(num[k - dn + j], field.mul(c, den[j]))
    while num and num[-1] == 0:
        num.pop()
    return num


def _poly_sub(field, a, b):
    out = [field.sub(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mulmod(field, a, b, f):
    """a * b mod the monic f."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = field.add(prod[i + j], field.mul(x, y))
    return _poly_mod(field, prod, f)


def _poly_powmod(field, a, k, f):
    """a**k mod the monic f, by square-and-multiply, for k >= 1."""
    out = a
    for bit in bin(k)[3:]:
        out = _poly_mulmod(field, out, out, f)
        if bit == "1":
            out = _poly_mulmod(field, out, a, f)
    return out


def _poly_gcd(field, a, b):
    """The monic gcd of a and b, not both 0.  _poly_mod divides by monic
    polynomials only, so each divisor is made monic first."""
    while b:
        a, b = b, _poly_mod(field, a, vscale(field, field.inv(b[-1]), b))
    return vscale(field, field.inv(a[-1]), a)


# ---------------------------------------------------------------------------
# vectors and matrices


def zero_vec(n):
    return (0,) * n


def lincomb(field, coeffs, rows):
    """sum(c * row for c, row in zip(coeffs, rows)), over a nonempty list of rows."""
    if field.e == 1:
        p = field.p
        return tuple([sum(map(mul, coeffs, col)) % p for col in zip(*rows)])
    add, tab = field._add, field._mul
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            m = tab[c]
            acc = [add[a][m[x]] for a, x in zip(acc, row)]
    return tuple(acc)


def vadd(field, u, v):
    return _sub_scaled(field, u, field.neg(1), v)


def vsub(field, u, v):
    return _sub_scaled(field, u, 1, v)


def vscale(field, c, u):
    if field.e == 1:
        p = field.p
        return tuple([c * x % p for x in u])
    m = field._mul[c]
    return tuple([m[x] for x in u])


def _sub_scaled(field, u, c, v):
    """u - c * v."""
    if field.e == 1:
        p = field.p
        return tuple([(x - c * y) % p for x, y in zip(u, v)])
    add, m = field._add, field._mul[field._neg[c]]
    return tuple([add[x][m[y]] for x, y in zip(u, v)])


def algebra_product(field, table, u, v):
    """sum(u[i] * v[j] * table[i][j]): the product of u and v in the algebra
    with structure constants table.

    Structure constants are mostly zero, so this kernel skips zero entries
    one by one rather than combining whole rows.
    """
    acc = [0] * len(u)
    if field.e == 1:
        p = field.p
        for i, ui in enumerate(u):
            if ui:
                row = table[i]
                for j, vj in enumerate(v):
                    if vj:
                        c = ui * vj
                        for k, t in enumerate(row[j]):
                            if t:
                                acc[k] = (acc[k] + c * t) % p
        return tuple(acc)
    add, tab = field._add, field._mul
    for i, ui in enumerate(u):
        if ui:
            row, mi = table[i], tab[ui]
            for j, vj in enumerate(v):
                if vj:
                    m = tab[mi[vj]]
                    for k, t in enumerate(row[j]):
                        if t:
                            acc[k] = add[acc[k]][m[t]]
    return tuple(acc)


def pivots_of(rows):
    """Pivot columns of rows already in reduced echelon form."""
    return tuple(next(j for j, x in enumerate(r) if x) for r in rows)


def rref(field, rows):
    """Reduced row echelon form; zero rows dropped, rows sorted by pivot."""
    mat = list(rows)
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        if mat[r][c] != 1:
            mat[r] = vscale(field, field.inv(mat[r][c]), mat[r])
        pivot = mat[r]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = _sub_scaled(field, row, row[c], pivot)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


def reduce_vec(field, rows, vec):
    """Normal form of vec modulo the row space of rref rows."""
    v = tuple(vec)
    for row in rows:
        c = v[row.index(1)]  # the pivot: the first nonzero entry, and it is 1
        if c:
            v = _sub_scaled(field, v, c, row)
    return v


def in_span(field, rows, vec):
    return not any(reduce_vec(field, rows, vec))


def contains_rows(field, rows, other_rows):
    return all(in_span(field, rows, v) for v in other_rows)


def _rref_with_identity(field, rows):
    """The rref of [rows | I].

    Every row (a | x) of it has a = sum x_i rows_i.  The rows with a = 0
    come last, and their x parts are an rref basis of the left kernel.
    """
    m = len(rows)
    return rref(field, [tuple(r) + tuple(1 if i == j else 0 for j in range(m))
                        for i, r in enumerate(rows)])


def express(field, rows, vec):
    """Coefficients writing vec over the (arbitrary) rows, or None.

    Reducing (vec | 0) by the rref of [rows | I] leaves (vec - a | -x) with
    a = sum x_i rows_i, so vec lies in the span iff the left part vanishes.
    """
    n = len(vec)
    red = reduce_vec(field, _rref_with_identity(field, rows),
                     tuple(vec) + zero_vec(len(rows)))
    if any(red[:n]):
        return None
    return tuple(field.neg(x) for x in red[n:])


def left_kernel(field, rows):
    """Basis (rref) of all coefficient vectors x with sum x_i rows_i = 0."""
    if not rows:
        return ()
    n = len(rows[0])
    return tuple(row[n:] for row in _rref_with_identity(field, rows) if not any(row[:n]))


def intersect_rowspaces(field, rows_a, rows_b, ncols):
    """Zassenhaus intersection of two row spaces."""
    if not rows_a or not rows_b:
        return ()
    block = [tuple(r) + tuple(r) for r in rows_a]
    block += [tuple(r) + zero_vec(ncols) for r in rows_b]
    red = rref(field, block)
    out = [row[ncols:] for row in red if not any(row[:ncols])]
    return rref(field, out)


def reduce_insert(field, rows, vec):
    """Normal form of vec modulo rows, a list of rref rows, or None if it is 0.
    A nonzero normal form joins rows in place, which stay in rref."""
    red = reduce_vec(field, rows, vec)
    lead = next((j for j, x in enumerate(red) if x), None)
    if lead is None:
        return None
    new = red if red[lead] == 1 else vscale(field, field.inv(red[lead]), red)
    for i, row in enumerate(rows):
        if row[lead]:
            rows[i] = _sub_scaled(field, row, row[lead], new)
    rows.insert(sum(row.index(1) < lead for row in rows), new)
    return red


def complement_in(field, sub_rows, sup_rows):
    """Vectors extending the rref sub_rows to a basis of the space of sup_rows."""
    cur = list(sub_rows)
    return tuple(red for row in sup_rows
                 if (red := reduce_insert(field, cur, row)) is not None)


def span_vectors(field, rows):
    """All elements of the row space (q**rank vectors)."""
    if not rows:
        return
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        yield lincomb(field, coeffs, rows)


def line_vectors(field, rows):
    """One vector of each line (1-dim subspace) of the span of independent rows.

    The representative of a line is the first of its vectors that
    span_vectors meets: its coefficient tuple over rows has leading entry 1.
    For echelon rows (as rref returns them) that is the vector whose leading
    entry is 1, the lexicographically first vector of its line.  Vectors
    come in span_vectors order, (q**k - 1) / (q - 1) of them for k rows.
    """
    k = len(rows)
    for lead in reversed(range(k)):
        for tail in itertools.product(field.elements(), repeat=k - 1 - lead):
            yield lincomb(field, (1,) + tail, rows[lead:])


def count_subspaces(q, n):
    """Number of subspaces of GF(q)**n (sum of Gaussian binomials)."""
    total = 1  # the zero space
    for r in range(1, n + 1):
        for piv in itertools.combinations(range(n), r):
            free = sum(1 for i in range(r) for j in range(piv[i] + 1, n)
                       if j not in piv)
            total += q ** free
    return total


def all_rref_matrices(field, n):
    """Every subspace of GF(q)**n, as a canonical rref row tuple."""
    yield ()
    for r in range(1, n + 1):
        for piv in itertools.combinations(range(n), r):
            free = [(i, j) for i in range(r) for j in range(piv[i] + 1, n)
                    if j not in piv]
            for vals in itertools.product(field.elements(), repeat=len(free)):
                mat = [[0] * n for _ in range(r)]
                for i in range(r):
                    mat[i][piv[i]] = 1
                for (i, j), v in zip(free, vals):
                    mat[i][j] = v
                yield tuple(tuple(row) for row in mat)
