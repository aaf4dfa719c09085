"""One analysis context per command: each fact about an instance computed once.

A report asks for the same facts many times: the interval [R, S] is needed by
the census, the canonical decomposition, the Nagata report and the
cross-checks; every cover edge and every sub-interval asks for the local
decomposition of the same few rings.  An :class:`Analysis` carries the
command's budgets and memoizes four things by value (a ring is its ambient
algebra and its canonical basis, so equal rings share one entry):

- the lattice of each interval, enumerated under the node budget;
- the local decomposition of each ring;
- the localization of each pair at each maximal ideal of its bottom, so the
  localized ambient algebra, and every fact cached about it, is reused;
- the canonical decomposition (+R, tR) of each interval.

The cache lives exactly as long as the object.  The CLI makes one per
command; a library function called without one makes a fresh one, so a
direct call computes everything for real.  The public functions behind the
cache (``enumerate_interval``, ``local_decomposition``,
``localize_extension``, ``canonical_decomposition``) always compute; only the
methods here look a result up first.  The methods import those functions
when they call them, because their modules import this one.
"""

from __future__ import annotations

DEFAULT_NODE_BUDGET = 20_000
DEFAULT_SCAN_BUDGET = 2 ** 20


class Analysis:
    """Budgets and memoized facts for the extensions of one command."""

    def __init__(self, node_budget=DEFAULT_NODE_BUDGET, scan_budget=DEFAULT_SCAN_BUDGET,
                 threads=1):
        self.node_budget = node_budget    # bounds every interval enumeration
        self.scan_budget = scan_budget    # bounds every t-closedness pair scan
        self.threads = threads
        self._lattices = {}
        self._decompositions = {}
        self._localizations = {}
        self._canonical = {}

    def lattice(self, ext):
        """The interval [bottom, top] of ext, with its cover relation."""
        lat = self._lattices.get(ext)
        if lat is None:
            from .lattice import enumerate_interval
            lat = self._lattices[ext] = enumerate_interval(
                ext, node_budget=self.node_budget, threads=self.threads)
        return lat

    def decomposition(self, ring):
        """The local decomposition of a ring, with its nilradical."""
        dec = self._decompositions.get(ring)
        if dec is None:
            from .algebra import local_decomposition
            dec = self._decompositions[ring] = local_decomposition(ring)
        return dec

    def localization(self, ext, M):
        """(localized extension, factor map) of ext at a maximal ideal M of its
        bottom; the map is None when the bottom is local."""
        key = (ext, M)
        loc = self._localizations.get(key)
        if loc is None:
            from .algebra import localize_extension
            loc = self._localizations[key] = localize_extension(
                ext, M, with_map=True, an=self)
        return loc

    def canonical(self, ext):
        """The canonical decomposition R <= +R <= tR <= S of ext."""
        dec = self._canonical.get(ext)
        if dec is None:
            from .canonical import canonical_decomposition
            dec = self._canonical[ext] = canonical_decomposition(ext, an=self)
        return dec
