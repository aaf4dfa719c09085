"""Exact arithmetic over small finite fields, and linear algebra over them.

A field element of GF(p**e) is an int in ``range(q)``: the value
``sum(c[i] * p**i)`` encodes the polynomial-basis coordinates ``c`` of the
element.  Vectors are tuples of such ints, matrices are tuples of row
tuples.  Everything is immutable, hashable and exact; add/mul tables are
precomputed once per field, which is cheap at desk scale (q <= 4096).
"""

from __future__ import annotations

import itertools

MAX_TABLE_Q = 4096
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
    """Split q = p**e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
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
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        q = p ** e
        if q > MAX_TABLE_Q:
            raise ValueError(f"field size {q} exceeds supported bound {MAX_TABLE_Q}")
        self.p, self.e, self.q = p, e, q
        if modulus is None:
            if e == 1:
                modulus = (0, 1)
            elif q <= MAX_DEFAULT_MODULUS_Q:
                modulus = default_modulus(p, e)
            else:
                raise ValueError(f"modulus must be supplied for q = {q} > "
                                 f"{MAX_DEFAULT_MODULUS_Q}")
        self.modulus = self._check_modulus(tuple(modulus))
        self._build_tables()

    def _check_modulus(self, f):
        if len(f) != self.e + 1:
            raise ValueError(f"modulus degree must be {self.e}, got {len(f) - 1}")
        if any(not isinstance(c, int) or not 0 <= c < self.p for c in f):
            raise ValueError(f"modulus coefficients must lie in range({self.p})")
        if f[-1] != 1:
            raise ValueError("modulus must be monic")
        if self.e > 1 and not _is_irreducible_mod_p(f, self.p):
            raise ValueError(f"modulus {f} is reducible over GF({self.p})")
        return f

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        if e == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
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
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def elements(self):
        return range(self.q)

    def prime_field(self):
        if self.e == 1:
            return self
        if not hasattr(self, "_prime_field"):
            self._prime_field = GF(self.p)
        return self._prime_field

    def element_digits(self, a):
        """Prime-field coordinates of a field element (length e)."""
        return tuple(self._digits(a))

    def same_field(self, other):
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e}; mod={list(self.modulus)})"


def _poly_divmod_p(num, den, p):
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(0, len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = (num[k] * inv_lead) % p
        if c:
            quot[k - dn] = c
            for j in range(dn + 1):
                num[k - dn + j] = (num[k - dn + j] - c * den[j]) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible_mod_p(f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            _, rem = _poly_divmod_p(f, g, p)
            if not rem:
                return False
    return True


_DEFAULT_MODULI = {}


def default_modulus(p, e):
    """Lexicographically first monic irreducible of degree e over GF(p)."""
    key = (p, e)
    if key not in _DEFAULT_MODULI:
        for tail in itertools.product(range(p), repeat=e):
            f = tuple(tail) + (1,)
            if _is_irreducible_mod_p(f, p):
                _DEFAULT_MODULI[key] = f
                break
        else:
            raise AssertionError("no irreducible polynomial found")
    return _DEFAULT_MODULI[key]


def poly_is_irreducible(field, f):
    """Trial-division irreducibility over an arbitrary GF(q)."""
    f = tuple(f)
    deg = len(f) - 1
    if deg < 1 or f[-1] != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(field.elements(), repeat=d):
            g = tuple(tail) + (1,)
            if not _poly_mod(field, f, g):
                return False
    return True


def _poly_mod(field, num, den):
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


def irreducible_poly(field, degree):
    """Lexicographically first monic irreducible of given degree over field."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for tail in itertools.product(field.elements(), repeat=degree):
        f = tuple(tail) + (1,)
        if poly_is_irreducible(field, f):
            return f
    raise AssertionError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# vectors and matrices


def zero_vec(n):
    return (0,) * n


def vadd(field, u, v):
    return tuple(field.add(x, y) for x, y in zip(u, v))


def vsub(field, u, v):
    return tuple(field.sub(x, y) for x, y in zip(u, v))


def vscale(field, c, u):
    return tuple(field.mul(c, x) for x in u)


def pivots_of(rows):
    """Pivot columns of rows already in reduced echelon form."""
    return tuple(next(j for j, x in enumerate(r) if x) for r in rows)


def rref(field, rows):
    """Reduced row echelon form; zero rows dropped, rows sorted by pivot."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


def reduce_vec(field, rows, vec):
    """Normal form of vec modulo the row space of rref rows."""
    v = list(vec)
    for row in rows:
        piv = next(j for j, x in enumerate(row) if x)
        c = v[piv]
        if c:
            for j, y in enumerate(row):
                if y:
                    v[j] = field.sub(v[j], field.mul(c, y))
    return tuple(v)


def in_span(field, rows, vec):
    return not any(reduce_vec(field, rows, vec))


def coords_in_rref(field, rows, vec):
    """Coefficients of vec over rref rows, or None if outside the span."""
    coeffs = tuple(vec[p] for p in pivots_of(rows))
    if any(reduce_vec(field, rows, vec)):
        return None
    return coeffs


def contains_rows(field, rows, other_rows):
    return all(in_span(field, rows, v) for v in other_rows)


def rref_with_transform(field, rows):
    """(R, T) with R the rref of rows and R = T @ rows (T over the field)."""
    m = len(rows)
    if m == 0:
        return (), ()
    n = len(rows[0])
    aug = [list(r) + [1 if i == j else 0 for j in range(m)] for i, r in enumerate(rows)]
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [field.mul(inv, x) for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[i], aug[r])]
        r += 1
        if r == m:
            break
    R = tuple(tuple(row[:n]) for row in aug[:r] if any(row[:n]))
    T = tuple(tuple(row[n:]) for row in aug[:len(R)])
    return R, T


def express(field, rows, vec):
    """Coefficients writing vec over the (arbitrary) rows, or None."""
    R, T = rref_with_transform(field, rows)
    coeffs = coords_in_rref(field, R, vec)
    if coeffs is None:
        return None
    out = [0] * len(rows)
    for c, trow in zip(coeffs, T):
        if c:
            for j, t in enumerate(trow):
                if t:
                    out[j] = field.add(out[j], field.mul(c, t))
    return tuple(out)


def left_kernel(field, rows):
    """Basis (rref) of all coefficient vectors x with sum x_i rows_i = 0."""
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    aug = [tuple(r) + tuple(1 if i == j else 0 for j in range(m))
           for i, r in enumerate(rows)]
    red = rref(field, aug)
    out = [row[n:] for row in red if not any(row[:n])]
    return rref(field, out)


def intersect_rowspaces(field, rows_a, rows_b, ncols):
    """Zassenhaus intersection of two row spaces."""
    if not rows_a or not rows_b:
        return ()
    block = [tuple(r) + tuple(r) for r in rows_a]
    block += [tuple(r) + zero_vec(ncols) for r in rows_b]
    red = rref(field, block)
    out = [row[ncols:] for row in red if not any(row[:ncols])]
    return rref(field, out)


def complement_in(field, sub_rows, sup_rows):
    """Vectors extending sub_rows to a basis of the space of sup_rows."""
    cur = list(sub_rows)
    out = []
    for row in sup_rows:
        red = reduce_vec(field, cur, row)
        if any(red):
            out.append(red)
            cur = list(rref(field, cur + [red]))
    return tuple(out)


def span_vectors(field, rows):
    """All elements of the row space (q**rank vectors)."""
    if not rows:
        return
    n = len(rows[0])
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        v = zero_vec(n)
        for c, row in zip(coeffs, rows):
            if c:
                v = vadd(field, v, vscale(field, c, row))
        yield v


def transversal(field, comp_rows, ncols):
    """All coset representatives spanned by a complement basis, 0 included."""
    if not comp_rows:
        yield zero_vec(ncols)
        return
    yield from span_vectors(field, comp_rows)


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
