import pytest

from ringlat import cli

from ringlat.algebra import (
    Extension,
    Subalgebra,
    base_algebra,
    generated_subalgebra,
    make_poly_quotient,
    make_product,
)
from ringlat.gfq import GF, irreducible_poly


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
