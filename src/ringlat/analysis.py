"""One analysis context per command: one work budget, each fact computed once.

Every exponential search of a command charges one counter before it works,
so one budget bounds them all.  A unit is one candidate examined: a
GF(q)-line vector of the complement of a node that enumeration expands (at
most one closure, none for a line inside a ring certified minimal over the
node; nodes <= units + 1), or a subspace the brute-force oracle scans.
The closed forms of the canonical chain are linear algebra and charge
nothing, and so is ``check``'s census of the maximal chains: one pass over
covers that enumeration has already paid for.  A charge the budget cannot
cover raises :class:`BudgetExceeded` and charges nothing.

An :class:`Analysis` also memoizes by value (a ring is its ambient algebra
and its canonical basis, so equal rings share one entry) the lattice of each
interval; the two Frobenius kernels of each ring, its fixed subring and its
nilradical from one pass of x -> x**q over its basis, which its local
decomposition, its counts (local factors, dim - dim Nil) and the minimality
certificate of enumeration all read, keyed by the content of the ambient
(its field, table and unit) so that a content-equal copy, the quotient by
J = 0, shares them; the local decomposition of each ring; the support of
each pair and its seminormalization +R, which ``analyze``, the Nagata
report and the FIP cross-check all read; the residue-field extensions of
each pair, which its t-closure, its infra-integrality and its lambda all
read; the canonical decomposition of each interval; the Nagata filtration
of each subintegral pair local mod its conductor; and the minimal-step kind
of each cover edge T < U by its conductor (T:U), ``edge_kind``, which
``check`` and ``lattice`` read.  The other route to that kind,
``canonical.cover_kind``, which ``analyze`` reads and ``check`` compares
with the first, needs no memo: it compares the memoized counts of T and U.
Nor does the crucial ideal of a cover: ``check`` computes each one once,
for all covers together.  A localization is a subinterval of its pair,
cheap to rebuild, whose lattice the interval memo shares; the lattice memo
is never shared across ambients, so the quotient check by J = 0 compares
two lattices built apart.  The cache lives as long as the object:
the CLI makes one per command, and a library function called without one
makes a fresh one, so a direct call computes everything for real.  The
public functions behind the cache always compute; only the methods here
look a result up first.  They import those functions when called, because
their modules import this one.
"""

from __future__ import annotations

DEFAULT_BUDGET = 2 ** 20


class BudgetExceeded(RuntimeError):
    """A search asked for more work units than its command has left."""

    def __init__(self, phase, spent, limit, units):
        super().__init__(f"work budget exceeded in {phase}: {spent} of {limit} "
                         f"units spent, {units} more requested")


class Analysis:
    """The work budget and memoized facts for the extensions of one command."""

    def __init__(self, budget=DEFAULT_BUDGET, threads=1):
        self.budget = budget
        self.spent = 0
        self.threads = threads
        self._facts = {}
        self._ambients = {}  # Algebra -> the first ambient of its content met here
        self._by_content = {}  # (field, table, unit) -> that ambient

    def charge(self, phase, units):
        """Spend units of work on phase, or raise if fewer are left."""
        if units > self.budget - self.spent:
            raise BudgetExceeded(phase, self.spent, self.budget, units)
        self.spent += units

    def _fact(self, key, compute):
        if key not in self._facts:
            # enumeration's worker threads read facts too: of two threads that
            # compute one fact, the first to store it wins, and both return it
            self._facts.setdefault(key, compute())
        return self._facts[key]

    def lattice(self, ext):
        """The interval [bottom, top] of ext, with its cover relation."""
        from .lattice import enumerate_interval
        return self._fact(("lattice", ext), lambda: enumerate_interval(ext, self))

    def decomposition(self, ring):
        """The local decomposition of a ring: its local factors."""
        from .algebra import local_decomposition
        return self._fact(("decomposition", ring), lambda: local_decomposition(ring, self))

    def support(self, ext):
        """The maximal ideals of the bottom of ext where it is locally nontrivial."""
        from .algebra import support
        return self._fact(("support", ext), lambda: support(ext, self))

    def seminormalization(self, ext):
        """+R = R + Nil(S), the seminormalization of the bottom of ext in its top."""
        from .canonical import seminormalization
        return self._fact(("seminormalization", ext), lambda: seminormalization(ext, self))

    def residuals(self, ext):
        """The residue-field extensions of ext, one per maximal ideal of its top."""
        from .canonical import residual_extensions
        return self._fact(("residuals", ext), lambda: residual_extensions(ext, self))

    def canonical(self, ext):
        """The canonical decomposition R <= +R <= tR <= S of ext."""
        from .canonical import canonical_decomposition
        return self._fact(("canonical", ext), lambda: canonical_decomposition(ext, an=self))

    def filtration(self, ext):
        """The Nagata filtration of a subintegral pair local mod its conductor."""
        from .nagata import filtration_data
        return self._fact(("filtration", ext), lambda: filtration_data(ext, self))

    def _on_first_ambient(self, ring):
        """The ring on the first ambient of the same content (field, table and
        unit) that this analysis met, so that content-equal copies of an
        ambient share its entries; each ambient's content is hashed once."""
        A = ring.ambient
        if A not in self._ambients:
            F = A.field
            content = (F.p, F.e, F.modulus, A.table, A.one)
            self._ambients[A] = self._by_content.setdefault(content, A)
        first = self._ambients[A]
        return ring if first is A else type(ring)._on_rref(first, ring.basis)

    def frobenius(self, ring):
        """The Frobenius-fixed subring K and the nilradical Nil of a ring, as
        row bases in the coordinates of its ambient."""
        from .algebra import frobenius
        return self._fact(("frobenius", self._on_first_ambient(ring)),
                          lambda: frobenius(ring))

    def frobenius_counts(self, ring):
        """(local factors, dim - dim Nil) of a ring, read off its Frobenius kernels."""
        fixed, nil = self.frobenius(ring)
        return len(fixed), ring.dim - len(nil)

    def edge_kind(self, T, U):
        """The MinimalKind of a cover T < U by its conductor: the independent
        route that ``check`` and ``lattice`` read."""
        from .canonical import classify_minimal
        return self._fact(("edge kind", T, U), lambda: classify_minimal(T, U, an=self))
