"""Predicted invariants of the extended pair R(X) <= S(X).

The extended pair is never materialized: each of its invariants equals a
base-side quantity, and this module computes those quantities and the
finiteness criterion.  For a local subintegral pair reduced mod its
conductor, the filtration rings R_i = R + S*M^i and ideals M_i = M + S*M^i
drive three equivalent chainedness conditions that are computed here by
independent routes so the test suite can assert their agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    conductor,
    ideal_power_rows,
    module_length,
    quotient,
    subspace_algebra,
    support,
)
from .analysis import Analysis
from .canonical import is_subintegral, lambda_invariant, seminormalization
from .gfq import rref
from .lattice import interval_length, is_arithmetic, is_chained

TRANSFER_NOTES = {
    "length": "interval length of the base pair carries over unchanged",
    "lambda": "residual-extension lengths of the base pair carry over unchanged",
    "cardinality": "interval cardinality carries over when finiteness holds",
    "fip": "finiteness holds iff the seminormal part of the base is arithmetic",
    "multi_variable": "one adjoined variable decides every number of variables",
}


def _full_ambient(ext):
    """Re-root an extension so that its top is a whole ambient algebra."""
    if ext.top == ext.ambient.full():
        return ext
    fac = subspace_algebra(ext.ambient, ext.top.basis, ext.ambient.one)
    rows = fac.coords_rows(ext.bottom.basis)
    return Extension(Subalgebra(fac.algebra, rows, check=False))


def nilpotency_index(ext, an=None):
    """Smallest n >= 1 with M**n inside the conductor, for local R."""
    ext = _full_ambient(ext)
    R, A = ext.bottom, ext.ambient
    dec = (an or Analysis()).decomposition(R)
    if not dec.is_local:
        raise AlgebraError("nilpotency index requires a local bottom ring")
    M = dec.factors[0].maximal_ideal
    C = conductor(R, ext.top)
    n = 1
    power = M.basis
    while not all(C.contains_vector(v) for v in power):
        n += 1
        if n > A.dim + 1:
            raise AlgebraError("nilpotency index failed to stabilize")
        power = ideal_power_rows(A, R.basis, M.basis, n)
    return n


@dataclass(frozen=True)
class SubintegralLocalData:
    """Conductor-reduced filtration data of a local subintegral pair."""

    reduced: Extension          # the pair mod its conductor, in a fresh ambient
    maximal_ideal_rows: tuple   # M of the reduced bottom ring
    conductor_dim: int          # dimension of the conductor that was removed
    n: int                      # index of nilpotency of M in the reduced ring
    r_chain: tuple              # rows of R_i = R + S*M^i, i = 0..n
    m_chain: tuple              # rows of M_i = M + S*M^i, i = 0..n
    layer_lengths: tuple        # L_R(M_i / M_{i+1}) for i = 1..n-1
    sm_over_m_length: int       # L_R(S*M / M)

    @property
    def residue_is_field(self):
        """True when the reduced bottom ring is a field (M = 0)."""
        return not self.maximal_ideal_rows


def filtration_data(ext, an=None):
    """Reduce mod the conductor and build the filtration of a local pair."""
    an = an or Analysis()
    ext = _full_ambient(ext)
    R, S, A = ext.bottom, ext.top, ext.ambient
    if not an.decomposition(R).is_local:
        raise AlgebraError("filtration data requires a local bottom ring")
    if not is_subintegral(ext, an):
        raise AlgebraError("filtration data requires a subintegral pair")
    C = conductor(R, S)
    if C.dim:
        qm = quotient(A, C.basis)
        A2 = qm.algebra
        R2 = Subalgebra(A2, qm.project_rows(R.basis), check=False)
        red = Extension(R2)
    else:
        red = ext
        A2, R2 = A, R
    if conductor(R2, red.top).dim:
        raise AlgebraError("conductor did not reduce to zero")
    M_rows = an.decomposition(R2).factors[0].maximal_ideal.basis
    n = nilpotency_index(red, an)
    F = A2.field
    s_basis = red.top.basis
    r_list, m_list = [], []
    for i in range(n + 1):
        mi_pow = ideal_power_rows(A2, R2.basis, M_rows, i)
        smi = rref(F, [A2.mul(s, m) for s in s_basis for m in mi_pow])
        r_list.append(rref(F, R2.basis + smi))
        m_list.append(rref(F, M_rows + smi))
    layers = tuple(module_length(R2, m_list[i], m_list[i + 1], an)
                   for i in range(1, n))
    sm_over_m = module_length(R2, m_list[1], M_rows, an)
    data = SubintegralLocalData(
        reduced=red,
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
    F = data.reduced.ambient.field
    from .gfq import contains_rows

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
    A2 = data.reduced.ambient
    r1 = Subalgebra(A2, data.r_chain[1], check=False)
    sub = Extension(data.reduced.bottom, r1)
    c3 = is_chained((an or Analysis()).lattice(sub))
    return c1, c2, c3


@dataclass(frozen=True)
class FipResult:
    fip: bool
    witnesses: tuple            # arithmetic failures of the seminormal part
    seminormalization: Subalgebra


def nagata_has_fip(ext, an=None):
    """Finiteness of the extended interval: the seminormal part must be
    arithmetic."""
    an = an or Analysis()
    plus = seminormalization(ext, an)
    ok, failures = is_arithmetic(Extension(ext.bottom, plus), an)
    return FipResult(fip=ok, witnesses=failures, seminormalization=plus)


def fip_subintegral_crosscheck(ext, an=None):
    """Two independent finiteness criteria for a subintegral pair.

    Verdict A is chainedness of every localization.  Verdict B localizes,
    reduces mod the conductor, and tests [R_2, S] chained together with
    L(SM/M) = n - 1, with the field case handled directly on [R, S].
    """
    an = an or Analysis()
    if not is_subintegral(ext, an):
        raise AlgebraError("crosscheck requires a subintegral pair")
    verdict_a, _ = is_arithmetic(ext, an)
    verdict_b = True
    for M in support(ext, an):
        loc, _ = an.localization(ext, M)
        data = filtration_data(loc, an)
        if data.residue_is_field:
            ok = is_chained(an.lattice(data.reduced))
        else:
            A2 = data.reduced.ambient
            r2 = Subalgebra(A2, data.r_chain[2], check=False)
            chained = is_chained(an.lattice(Extension(r2, data.reduced.top)))
            ok = chained and data.sm_over_m_length == data.n - 1
        if not ok:
            verdict_b = False
    return verdict_a, verdict_b


@dataclass(frozen=True)
class NagataReport:
    """Invariants of the extended pair, with the licensing transfer notes."""

    fip: bool
    cardinality: int            # None when fip is False
    length: int
    lambda_value: int
    witnesses: tuple
    criteria_agreement: dict
    notes = TRANSFER_NOTES

    def to_dict(self):
        return {
            "fip": self.fip,
            "cardinality": self.cardinality,
            "length": self.length,
            "lambda": self.lambda_value,
            "multi_variable": "values hold for any number of adjoined variables",
            "witnesses": [
                {
                    "maximal_ideal": [list(r) for r in w.maximal_ideal.basis],
                    "incomparable_pair": [[list(r) for r in t.basis] for t in w.pair],
                }
                for w in self.witnesses
            ],
            "criteria_agreement": self.criteria_agreement,
            "transfer_notes": dict(TRANSFER_NOTES),
        }


def nagata_report(ext, an=None):
    an = an or Analysis()
    lat = an.lattice(ext)
    fip_res = nagata_has_fip(ext, an)
    criteria = {"seminormal_part_arithmetic": fip_res.fip}
    if is_subintegral(ext, an):
        a, b = fip_subintegral_crosscheck(ext, an)
        criteria["subintegral_crosscheck"] = {"arithmetic": a, "filtration": b}
    return NagataReport(
        fip=fip_res.fip,
        cardinality=len(lat.nodes) if fip_res.fip else None,
        length=interval_length(lat),
        lambda_value=lambda_invariant(ext, an),
        witnesses=fip_res.witnesses,
        criteria_agreement=criteria,
    )
