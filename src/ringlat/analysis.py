"""One analysis context per command: one work budget, each fact computed once.

Every exponential search of a command charges one counter before it works,
so one budget bounds them all.  A unit is one candidate examined: a
GF(q)-line vector of the complement of a node that enumeration expands (one
closure; nodes <= closures + 1), a subspace the brute-force oracle scans, or
a chain that ``check`` lists.  The closed forms of the canonical chain are
linear algebra and charge nothing.  A charge the budget cannot cover raises
:class:`BudgetExceeded` and charges nothing.

An :class:`Analysis` also memoizes by value (a ring is its ambient algebra
and its canonical basis, so equal rings share one entry) the lattice of each
interval; the two Frobenius kernels of each ring, its fixed subring and its
nilradical from one pass of x -> x**q over its basis, which its local
decomposition and its counts (local factors, dim - dim Nil) both read; the
local decomposition of each ring; the canonical decomposition of each
interval; the Nagata filtration of each subintegral pair local mod its
conductor; and the minimal-step kind of each cover edge T < U by each of two
routes: ``cover_kind`` from the counts of T and U, which ``analyze`` reads,
and ``edge_kind`` from the conductor (T:U), which ``check`` and ``lattice``
read and ``check`` compares with the first.  The crucial ideal of a cover
needs no memo: ``check`` computes each one once, for all covers together.
A localization is a subinterval of its pair, cheap to rebuild, whose
lattice the interval memo shares.  The cache lives as long as the object:
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

    @property
    def left(self):
        return self.budget - self.spent

    def charge(self, phase, units):
        """Spend units of work on phase, or raise if fewer are left."""
        if units > self.left:
            raise BudgetExceeded(phase, self.spent, self.budget, units)
        self.spent += units

    def _fact(self, key, compute):
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    def lattice(self, ext):
        """The interval [bottom, top] of ext, with its cover relation."""
        from .lattice import enumerate_interval
        return self._fact(("lattice", ext), lambda: enumerate_interval(ext, self))

    def decomposition(self, ring):
        """The local decomposition of a ring, with its nilradical."""
        from .algebra import local_decomposition
        return self._fact(("decomposition", ring), lambda: local_decomposition(ring, self))

    def canonical(self, ext):
        """The canonical decomposition R <= +R <= tR <= S of ext."""
        from .canonical import canonical_decomposition
        return self._fact(("canonical", ext), lambda: canonical_decomposition(ext, an=self))

    def filtration(self, ext):
        """The Nagata filtration of a subintegral pair local mod its conductor."""
        from .nagata import filtration_data
        return self._fact(("filtration", ext), lambda: filtration_data(ext, self))

    def frobenius(self, ring):
        """The Frobenius-fixed subring K and the nilradical Nil of a ring, as
        row bases."""
        from .algebra import frobenius
        return self._fact(("frobenius", ring), lambda: frobenius(ring))

    def frobenius_counts(self, ring):
        """(local factors, dim - dim Nil) of a ring, read off its Frobenius kernels."""
        fixed, nil = self.frobenius(ring)
        return len(fixed), ring.dim - len(nil)

    def cover_kind(self, T, U):
        """The kind of a cover T < U, read off the Frobenius counts of T and U."""
        from .canonical import cover_kind
        return self._fact(("cover kind", T, U), lambda: cover_kind(T, U, an=self))

    def edge_kind(self, T, U):
        """The MinimalKind of a cover T < U by its conductor: the independent
        route that ``check`` and ``lattice`` read."""
        from .canonical import classify_minimal
        return self._fact(("edge kind", T, U), lambda: classify_minimal(T, U, an=self))
