"""Predicted invariants of the extended pair R(X) <= S(X).

The extended pair is never materialized: each of its invariants equals a
base-side quantity, and this module computes those quantities and the
finiteness criterion.  For a subintegral pair whose bottom ring is local
mod the conductor C, the filtration rings R_i = R + S*M^i and ideals
M_i = M + S*M^i drive three equivalent chainedness conditions that are
computed here by independent routes so the test suite can assert their
agreement.  Every ring and ideal of the filtration contains C, so the pair
mod C is read in place, in the pair's own ambient: no quotient is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    conductor,
    ideal_mul_rows,
    localize_extension,
    module_length,
)
from .analysis import Analysis
from .canonical import is_subintegral, lambda_invariant
from .gfq import contains_rows, rref
from .lattice import interval_length, is_arithmetic, is_chained

TRANSFER_NOTES = {
    "length": "interval length of the base pair carries over unchanged",
    "lambda": "residual-extension lengths of the base pair carry over unchanged",
    "cardinality": "interval cardinality carries over when finiteness holds",
    "fip": "finiteness holds iff the seminormal part of the base is arithmetic",
    "multi_variable": "one adjoined variable decides every number of variables",
}


def _powers(A, M_rows, C):
    """M, M^2, ..., M^n, each the product of the last with M, down to the
    first power inside the ideal C: n is the nilpotency index of M mod C."""
    powers = [M_rows]
    while not all(C.contains_vector(v) for v in powers[-1]):
        if len(powers) > A.dim:
            raise AlgebraError("nilpotency index failed to stabilize")
        powers.append(ideal_mul_rows(A, powers[-1], M_rows))
    return powers


@dataclass(frozen=True)
class SubintegralLocalData:
    """Filtration data of a subintegral pair whose bottom is local mod its
    conductor C, in the pair's own ambient: every row space contains C."""

    ext: Extension              # the pair itself
    maximal_ideal_rows: tuple   # M: the one maximal ideal of R containing C
    conductor_dim: int          # dimension of C
    n: int                      # least n >= 1 with M^n inside C
    r_chain: tuple              # rows of R_i = R + S*M^i, i = 0..n
    m_chain: tuple              # rows of M_i = M + S*M^i, i = 0..n
    layer_lengths: tuple        # L_R(M_i / M_{i+1}) for i = 1..n-1
    sm_over_m_length: int       # L_R(S*M / M)

    @property
    def residue_is_field(self):
        """True when R/C is a field, that is M = C."""
        return len(self.maximal_ideal_rows) == self.conductor_dim


def filtration_data(ext, an=None):
    """The filtration of a subintegral pair whose bottom R is local mod the
    conductor C: exactly one maximal ideal M of R contains C.

    This is the filtration of R/C <= S/C, read in place: R_i and M_i contain
    C, and lengths of R-modules killed by C are their lengths over R/C.  A
    localization [R + (1-e)S, S] qualifies: its conductor contains (1-e)S.
    """
    an = an or Analysis()
    R, S, A = ext.bottom, ext.top, ext.ambient
    if not is_subintegral(ext, an):
        raise AlgebraError("filtration data requires a subintegral pair")
    C = conductor(R, S)
    over_c = [f.maximal_ideal for f in an.decomposition(R).factors
              if f.maximal_ideal.contains(C)]
    if len(over_c) != 1:
        raise AlgebraError("filtration data requires a bottom ring local mod its conductor")
    M_rows = over_c[0].basis
    powers = _powers(A, M_rows, C)
    F = A.field
    r_list, m_list = [], []
    for mi in [R.basis] + powers:
        smi = ideal_mul_rows(A, S.basis, mi)
        r_list.append(rref(F, R.basis + smi))
        m_list.append(rref(F, M_rows + smi))
    n = len(powers)
    layers = tuple(module_length(R, m_list[i], m_list[i + 1], an)
                   for i in range(1, n))
    sm_over_m = module_length(R, m_list[1], M_rows, an)
    data = SubintegralLocalData(
        ext=ext,
        maximal_ideal_rows=M_rows,
        conductor_dim=C.dim,
        n=n,
        r_chain=tuple(r_list),
        m_chain=tuple(m_list),
        layer_lengths=layers,
        sm_over_m_length=sm_over_m,
    )
    _check_filtration(data)
    return data


def _check_filtration(data):
    F = data.ext.ambient.field
    for hi, lo in zip(data.m_chain, data.m_chain[1:]):
        if not contains_rows(F, hi, lo):
            raise AlgebraError("filtration ideals are not descending")
    for hi, lo in zip(data.r_chain, data.r_chain[1:]):
        if not contains_rows(F, hi, lo):
            raise AlgebraError("filtration rings are not descending")
    if data.m_chain[-1] != rref(F, data.maximal_ideal_rows):
        raise AlgebraError("filtration does not end at the maximal ideal")
    if sum(data.layer_lengths) != data.sm_over_m_length:
        raise AlgebraError("layer lengths do not add up to the total length")


def filtration_conditions(data, an=None):
    """The three equivalent chainedness conditions, computed independently.

    (1) one module length, (2) the per-layer lengths, (3) a chained test on
    the enumerated interval [R, R_1].  Their agreement is a test-suite
    assertion, not enforced here.
    """
    c1 = data.sm_over_m_length == data.n - 1
    c2 = all(l == 1 for l in data.layer_lengths)
    r1 = Subalgebra(data.ext.ambient, data.r_chain[1], check=False)
    c3 = is_chained((an or Analysis()).lattice(Extension(data.ext.bottom, r1)))
    return c1, c2, c3


def nagata_has_fip(ext, an=None):
    """Finiteness of the extended interval: the seminormal part must be
    arithmetic.  Returns (fip, the arithmetic failures of the seminormal part)."""
    an = an or Analysis()
    return is_arithmetic(Extension(ext.bottom, an.seminormalization(ext)), an)


def fip_subintegral_crosscheck(ext, an=None):
    """Two independent finiteness criteria for a subintegral pair.

    Verdict A is chainedness of every localization.  Verdict B builds the
    filtration of each localization [R_M, S] and tests [R_2, S] chained
    together with L(SM/M) = n - 1; when R_M is a field mod the conductor
    it tests [R_M, S] itself, the lattice verdict A reads.
    """
    an = an or Analysis()
    if not is_subintegral(ext, an):
        raise AlgebraError("crosscheck requires a subintegral pair")
    verdict_a, _ = is_arithmetic(ext, an)
    verdict_b = True
    for M in an.support(ext):
        data = an.filtration(localize_extension(ext, M, an))
        if data.residue_is_field:
            ok = is_chained(an.lattice(data.ext))
        else:
            r2 = Subalgebra(data.ext.ambient, data.r_chain[2], check=False)
            chained = is_chained(an.lattice(Extension(r2, data.ext.top)))
            ok = chained and data.sm_over_m_length == data.n - 1
        if not ok:
            verdict_b = False
    return verdict_a, verdict_b


@dataclass(frozen=True)
class NagataReport:
    """Invariants of the extended pair; to_dict adds the licensing transfer notes."""

    fip: bool
    cardinality: int            # None when fip is False
    length: int
    lambda_value: int
    witnesses: tuple
    criteria_agreement: dict

    def to_dict(self):
        return {
            "fip": self.fip,
            "cardinality": self.cardinality,
            "length": self.length,
            "lambda": self.lambda_value,
            "multi_variable": "values hold for any number of adjoined variables",
            "witnesses": [
                {
                    "maximal_ideal": w.maximal_ideal.entry_rows(),
                    "incomparable_pair": [t.entry_rows() for t in w.pair],
                }
                for w in self.witnesses
            ],
            "criteria_agreement": self.criteria_agreement,
            "transfer_notes": dict(TRANSFER_NOTES),
        }


def nagata_report(ext, an=None):
    an = an or Analysis()
    lat = an.lattice(ext)
    fip, witnesses = nagata_has_fip(ext, an)
    criteria = {"seminormal_part_arithmetic": fip}
    if is_subintegral(ext, an):
        a, b = fip_subintegral_crosscheck(ext, an)
        criteria["subintegral_crosscheck"] = {"arithmetic": a, "filtration": b}
    return NagataReport(
        fip=fip,
        cardinality=len(lat.nodes) if fip else None,
        length=interval_length(lat),
        lambda_value=lambda_invariant(ext, an),
        witnesses=witnesses,
        criteria_agreement=criteria,
    )
