"""Exact arithmetic over small finite fields, and linear algebra over them.

A field element of GF(p**e) is an int in ``range(q)``: the value
``sum(c[i] * p**i)`` encodes the polynomial-basis coordinates ``c`` of the
element.  A vector of n entries is field-native, in one of three
representations, and only this module reads one entry by entry:

- over GF(2), one int of n bits, entry i at bit n - 1 - i, as in M4RI
  (Albrecht, Bard and Hart, Algorithm 898, ACM TOMS 2010): entry 0 is the
  highest bit, so the numeric order of vectors is the lexicographic order of
  their entry tuples, and a sum is one XOR;
- over GF(p) with p > 2, a tuple of ints mod p;
- over GF(p**e) with e > 1, a tuple of field elements, computed through
  q x q add and mul tables.

`vector` and `entries` convert between entries and vectors; every length
and range check runs on entries, since a GF(2) vector has no length.
Matrices are tuples of vectors.  Everything is immutable, hashable and
exact.

A prime field (e = 1) stores nothing: its elements are ints mod p and every
operation reduces mod p.  An extension field (e > 1), of size at most
MAX_EXTENSION_Q, builds q x q add and mul tables once, the products from
one exp/log table.  Only this module knows which representation a field
takes.  The vector kernels (`lincomb`, `vadd`, `vsub`, `vscale`,
`algebra_product`), the eliminations built on
them (`rref`, `reduce_vec`, and `reduce_insert`, which grows an rref basis
one vector at a time, `left_kernel`, `intersect_rowspaces`) and the
enumerations (`line_vectors`, `all_rref_matrices`) choose once per call,
not once per entry: over GF(2) they XOR words, over any other prime field
they compute with plain ints and reduce mod p, over an extension field they
index local table rows.

Polynomials over a field are coefficient lists, constant term first.  A few
helpers (division and remainder by, product and power mod a monic
polynomial, monic gcd) serve `poly_is_irreducible`, Ben-Or's test,
`irreducible_poly`, the lexicographically first monic irreducible of a
degree, which gives the default modulus of GF(p**e) and the field steps of
`gen`, and `poly_roots`, the roots of a product of distinct linear factors
by Cantor and Zassenhaus's gcd split, which `algebra` reads to split
idempotents.  The remainder, `poly_mod`, also gives the powers of y in
`algebra.make_poly_quotient`.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

MAX_TABLE_Q = 4096  # the largest field GF accepts, and so the parser's field-size cap
# The largest extension field (e > 1) GF accepts: its tables hold 2 q**2
# entries, built in Python from one exp/log table (q polynomial products).
# GF(2^8) built in 14 ms and GF(3^5) in 12 ms (0.73 s and 0.45 s with q**2
# polynomial products), on a shared 2-core x86_64 machine (Python 3.11).
MAX_EXTENSION_Q = 256


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


def check_field_size(q, e):
    """Raise ValueError unless GF builds a field of q = p**e elements, which
    takes no table: q is at most MAX_TABLE_Q, and MAX_EXTENSION_Q if e > 1."""
    if q > MAX_TABLE_Q:
        raise ValueError(f"field size {q} exceeds supported bound {MAX_TABLE_Q}")
    if e > 1 and q > MAX_EXTENSION_Q:
        raise ValueError(f"extension field size {q} exceeds table bound {MAX_EXTENSION_Q}")


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
        if p < 2 or factor_multiplicity(p) != 1:
            raise ValueError(f"characteristic must be prime, got {p}")
        q = p ** e
        check_field_size(q, e)
        self.p, self.e, self.q = p, e, q
        if modulus is None:
            modulus = (0, 1) if e == 1 else irreducible_poly(self.prime_field(), e)
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
        """The add and mul tables, and negation and inverse, of GF(p**e).

        Addition is digit-wise mod p, a XOR over GF(2).  Products come from
        one exp/log table of the first element g of order q - 1: q - 1
        polynomial products by g list its powers, and a*b = g**(log a + log b).
        """
        p, q = self.p, self.q
        if p == 2:
            self._add = [[a ^ b for b in range(q)] for a in range(q)]
            self._neg = list(range(q))
        else:
            # the lowest digit of a + b, then the higher digits a // p + b // p
            self._add = add = [list(range(q))]
            for a in range(1, q):
                up, low = add[a // p], a % p
                add.append([(low + b) % p + p * up[b // p] for b in range(q)])
            self._neg = neg = [0]
            for a in range(1, q):
                neg.append(-a % p + p * neg[a // p])
        exp = self._powers_of_first_generator()
        log = [0] * q
        for k, x in enumerate(exp):
            log[x] = k
        exp = exp + exp  # exponents up to 2 (q - 2)
        self._mul = [[0] * q] + [[0] + [exp[log[a] + log[b]] for b in range(1, q)]
                                 for a in range(1, q)]
        self._inv = [0] + [exp[q - 1 - log[a]] for a in range(1, q)]

    def _powers_of_first_generator(self):
        """g**0, ..., g**(q - 2) for the least g in range(q) of order q - 1,
        which exists as the modulus is irreducible."""
        for g in range(2, self.q):
            dg = self._digits(g)
            powers = [1]
            while (x := self._poly_mul_mod(self._digits(powers[-1]), dg)) != 1:
                powers.append(x)
            if len(powers) == self.q - 1:
                return powers

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


def poly_mod(field, num, den):
    """num mod den, for a monic den."""
    return _poly_divmod(field, num, den)[1]


def _poly_divmod(field, num, den):
    """(quotient, remainder) of num by a monic den."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * max(len(num) - dn, 0)
    terms = [(j, d) for j, d in enumerate(den[:dn]) if d]
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            quot[k - dn] = c
            num[k] = 0
            for j, d in terms:
                num[k - dn + j] = field.sub(num[k - dn + j], field.mul(c, d))
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_sub(field, a, b):
    out = [field.sub(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mulmod(field, a, b, f):
    """a * b mod the monic f."""
    prod = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                prod[i + j] = field.add(prod[i + j], field.mul(x, y))
    return poly_mod(field, prod, f)


def _poly_powmod(field, a, k, f):
    """a**k mod the monic f, by square-and-multiply, for k >= 1."""
    out = a
    for bit in bin(k)[3:]:
        out = _poly_mulmod(field, out, out, f)
        if bit == "1":
            out = _poly_mulmod(field, out, a, f)
    return out


def _poly_gcd(field, a, b):
    """The monic gcd of a and b, not both 0.  poly_mod divides by monic
    polynomials only, so each divisor is made monic first."""
    while b:
        a, b = b, poly_mod(field, a, _scale_entries(field, field.inv(b[-1]), b))
    return _scale_entries(field, field.inv(a[-1]), a)


def poly_roots(field, f):
    """The roots of a monic f of degree >= 1, sorted, or None unless f is a
    product of distinct linear factors.

    Degree 1 has the root -f[0].  Above that, f has deg f distinct roots iff
    it divides x**q - x, which one power x**q mod f certifies; then
    Cantor and Zassenhaus (A new algorithm for factoring polynomials over
    finite fields, 1981) split f by gcds: O(deg(f)**2 log q) field
    operations, where evaluating f at every element of GF(q) costs
    O(deg(f) q).  Over odd q, x**q = x * (x**((q - 1) / 2))**2, and
    x**((q - 1) / 2) - 1 is also the first splitter, at a = 0.
    """
    f = tuple(f)
    if len(f) == 2:
        return [field.neg(f[0])]
    x = [0, 1]
    if field.p == 2:
        if _poly_powmod(field, x, field.q, f) != x:
            return None
        return sorted(_split_roots(field, f, 0))
    half = _poly_powmod(field, x, (field.q - 1) // 2, f)
    if _poly_mulmod(field, x, _poly_mulmod(field, half, half, f), f) != x:
        return None
    return sorted(_split_roots(field, f, 0, _poly_sub(field, half, [1])))


def _split_roots(field, f, start, h=None):
    """The roots of a monic f that divides x**q - x, which no a < start splits.

    For a = start, start + 1, ... in turn, the splitter h is 0 or not at
    each root r: over odd q, h = (x + a)**((q - 1) / 2) - 1 is 0 where r + a
    is a nonzero square; over q = 2**e, the trace h = sum((a x)**(2**i),
    i < e) is 0 where Tr(a r) = 0.  Two distinct roots part at some a, and
    then gcd(f, h) is a proper factor of f.  Neither it nor its cofactor
    splits at a or before, so both recurse from a + 1.  h, if given, is the
    splitter at start.
    """
    if len(f) == 2:
        return [field.neg(f[0])]
    for a in range(start, field.q):
        if h is None:
            if field.p == 2:
                h = t = poly_mod(field, (0, a), f)
                for _ in range(field.e - 1):
                    t = _poly_mulmod(field, t, t, f)
                    h = _poly_sub(field, h, t)  # in characteristic 2, h + t
            else:
                h = _poly_sub(field, _poly_powmod(field, [a, 1], (field.q - 1) // 2, f), [1])
        g = _poly_gcd(field, f, h)
        if 1 < len(g) < len(f):
            cofactor = _poly_divmod(field, f, g)[0]
            return _split_roots(field, g, a + 1) + _split_roots(field, cofactor, a + 1)
        h = None
    raise AssertionError("no shift splits a polynomial that divides x**q - x")


# ---------------------------------------------------------------------------
# vectors and matrices


def vector(field, entries):
    """The vector of field with the given entries: over GF(2) the int whose
    bit n - 1 - i is entry i, over any other field the tuple of entries."""
    if field.q == 2:
        out = 0
        for x in entries:
            out = out << 1 | x
        return out
    return tuple(entries)


def entries(field, vec, n):
    """The n entries of a vector of field, as a tuple of ints."""
    if field.q == 2:
        return tuple(vec >> k & 1 for k in reversed(range(n)))
    return tuple(vec)


def is_vector(field, vec, n):
    """Whether vec is a vector of field with n entries: over GF(2) an int with
    no set bit at n or above, since leading zero entries leave no trace."""
    if field.q == 2:
        return isinstance(vec, int) and 0 <= vec < 1 << n
    return len(vec) == n


def zero_vec(field, n):
    return 0 if field.q == 2 else (0,) * n


def is_zero(field, vec):
    return not vec if field.q == 2 else not any(vec)


def concat(field, vecs, n):
    """The vector of the entries of each of vecs, n of them each, in turn."""
    if field.q == 2:
        out = 0
        for v in vecs:
            out = out << n | v
        return out
    return sum(vecs, ())


def subvector(field, vec, n, cols):
    """The entries of a vector of n entries at the columns cols, as a vector."""
    if field.q == 2:
        out = 0
        for c in cols:
            out = out << 1 | vec >> (n - 1 - c) & 1
        return out
    return tuple(vec[c] for c in cols)


def lincomb(field, coeffs, rows):
    """sum(c * row for c, row in zip(coeffs, rows)), over a nonempty list of
    rows; coeffs is a vector of len(rows) entries."""
    if field.q == 2:
        acc, bit = 0, 1 << len(rows)
        for row in rows:
            bit >>= 1
            if coeffs & bit:
                acc ^= row
        return acc
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
    if field.q == 2:
        return u ^ v
    return _sub_scaled(field, u, field.neg(1), v)


def vsub(field, u, v):
    if field.q == 2:
        return u ^ v
    return _sub_scaled(field, u, 1, v)


def vscale(field, c, u):
    if field.q == 2:
        return u if c else 0
    return _scale_entries(field, c, u)


def _scale_entries(field, c, u):
    """c * u for a tuple or list u of entries: a vector over q > 2, or a
    polynomial over any field."""
    if field.e == 1:
        p = field.p
        return tuple([c * x % p for x in u])
    m = field._mul[c]
    return tuple([m[x] for x in u])


def _sub_scaled(field, u, c, v):
    """u - c * v, for entry tuples over q > 2."""
    if field.e == 1:
        p = field.p
        return tuple([(x - c * y) % p for x, y in zip(u, v)])
    add, m = field._add, field._mul[field._neg[c]]
    return tuple([add[x][m[y]] for x, y in zip(u, v)])


def algebra_product(field, table, u, v):
    """sum(u[i] * v[j] * table[i][j]): the product of u and v in the algebra
    with structure constants table.

    Structure constants are mostly zero, so this kernel skips zero entries
    one by one rather than combining whole rows.  Over GF(2) it XORs the
    table words e_i e_j over the set bits i of u and j of v.
    """
    if field.q == 2:
        n = len(table)
        cols = []
        while v:
            k = v.bit_length()
            v ^= 1 << (k - 1)
            cols.append(n - k)
        acc = 0
        while u:
            k = u.bit_length()
            u ^= 1 << (k - 1)
            row = table[n - k]
            for j in cols:
                acc ^= row[j]
        return acc
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


def pivots_of(field, rows, n):
    """Pivot columns of rows of n entries already in reduced echelon form."""
    if field.q == 2:
        return tuple(n - r.bit_length() for r in rows)
    return tuple(next(j for j, x in enumerate(r) if x) for r in rows)


def _reduce2(rows, v):
    """The normal form of a GF(2) word modulo the words of a reduced echelon
    basis: XOR with a row clears its pivot, the highest set bit of the row,
    exactly when that makes the word smaller."""
    for row in rows:
        x = v ^ row
        if x < v:
            v = x
    return v


def _clear2(rows, v):
    """Clear the pivot of a GF(2) word v, its highest set bit, from a list of
    words in place: XOR with v clears it exactly when that makes a word
    smaller.  The order of the words by pivot does not change."""
    for i, row in enumerate(rows):
        x = row ^ v
        if x < row:
            rows[i] = x


def rref(field, rows):
    """Reduced row echelon form; zero rows dropped, rows sorted by pivot."""
    if field.q == 2:
        basis = []
        for v in rows:
            v = _reduce2(basis, v)
            if v:
                _clear2(basis, v)
                basis.append(v)
        basis.sort(reverse=True)  # pivot column ascending: highest bit first
        return tuple(basis)
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
    if field.q == 2:
        return _reduce2(rows, vec)
    v = tuple(vec)
    for row in rows:
        c = v[row.index(1)]  # the pivot: the first nonzero entry, and it is 1
        if c:
            v = _sub_scaled(field, v, c, row)
    return v


def in_span(field, rows, vec):
    return is_zero(field, reduce_vec(field, rows, vec))


def contains_rows(field, rows, other_rows):
    return all(in_span(field, rows, v) for v in other_rows)


def left_kernel(field, rows):
    """Basis (rref) of all coefficient vectors x with sum x_i rows_i = 0.

    Every row (a | x) of the rref of [rows | I] has a = sum x_i rows_i.  The
    rows with a = 0 come last, and their x parts are an rref basis of the
    kernel.
    """
    if not rows:
        return ()
    m = len(rows)
    if field.q == 2:
        red = rref(field, [r << m | 1 << (m - 1 - i) for i, r in enumerate(rows)])
        return tuple(row for row in red if not row >> m)
    n = len(rows[0])
    red = rref(field, [tuple(r) + tuple(1 if i == j else 0 for j in range(m))
                       for i, r in enumerate(rows)])
    return tuple(row[n:] for row in red if not any(row[:n]))


def intersect_rowspaces(field, rows_a, rows_b, ncols):
    """Zassenhaus intersection of two row spaces."""
    if not rows_a or not rows_b:
        return ()
    if field.q == 2:
        red = rref(field, [r << ncols | r for r in rows_a] + [r << ncols for r in rows_b])
        return rref(field, [row for row in red if not row >> ncols])
    block = [tuple(r) + tuple(r) for r in rows_a]
    block += [tuple(r) + zero_vec(field, ncols) for r in rows_b]
    red = rref(field, block)
    out = [row[ncols:] for row in red if not any(row[:ncols])]
    return rref(field, out)


def reduce_insert(field, rows, vec):
    """Normal form of vec modulo rows, a list of rref rows, or None if it is 0.
    A nonzero normal form joins rows in place, which stay in rref."""
    red = reduce_vec(field, rows, vec)
    if field.q == 2:
        if not red:
            return None
        _clear2(rows, red)
        rows.insert(sum(row > red for row in rows), red)
        return red
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


def line_vectors(field, rows):
    """One vector of each line (1-dim subspace) of the span of independent rows.

    The representative of a line is the vector whose coefficient tuple over
    rows has leading entry 1; for echelon rows (as rref returns them) that
    is the vector whose leading entry is 1, the lexicographically first
    vector of its line.  Vectors come in the order in which
    itertools.product(field.elements(), repeat=k) meets their coefficient
    tuples, 0 being the first element: (q**k - 1) / (q - 1) of them for k
    rows.
    """
    k = len(rows)
    if field.q == 2:
        span = [0]
        for lead in reversed(range(k)):
            new = [rows[lead] ^ s for s in span]
            yield from new
            span += new
        return
    for lead in reversed(range(k)):
        for tail in itertools.product(field.elements(), repeat=k - 1 - lead):
            yield lincomb(field, (1,) + tail, rows[lead:])


def count_subspaces(q, n):
    """Number of subspaces of GF(q)**n, the Galois number G(n): G(0) = 1 and
    G(k + 1) = 2 G(k) + (q**k - 1) G(k - 1) (Goldman and Rota, The number of
    subspaces of a vector space, 1969).  At k = 0 the weight q**0 - 1 is 0,
    so G(-1) never counts."""
    prev, cur = 0, 1
    for k in range(n):
        prev, cur = cur, 2 * cur + (q ** k - 1) * prev
    return cur


def all_rref_matrices(field, n):
    """Every subspace of GF(q)**n, as a canonical rref row tuple."""
    yield ()
    for r in range(1, n + 1):
        for piv in itertools.combinations(range(n), r):
            free = [(i, j) for i in range(r) for j in range(piv[i] + 1, n)
                    if j not in piv]
            for vals in itertools.product(field.elements(), repeat=len(free)):
                if field.q == 2:
                    words = [1 << (n - 1 - j) for j in piv]
                    for (i, j), v in zip(free, vals):
                        if v:
                            words[i] |= 1 << (n - 1 - j)
                    yield tuple(words)
                    continue
                mat = [[0] * n for _ in range(r)]
                for i in range(r):
                    mat[i][piv[i]] = 1
                for (i, j), v in zip(free, vals):
                    mat[i][j] = v
                yield tuple(tuple(row) for row in mat)
