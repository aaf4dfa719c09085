import hashlib

import pytest

from ringlat import algebra, cli, gfq
from ringlat.algebra import local_decomposition
from ringlat.canonical import is_subintegral
from ringlat.gen import (
    GenSpec,
    monomial_algebra,
    random_extension,
    staircase_monomials,
)

from conftest import all_staircases, exhaustive_top_algebras, same_table


def fingerprint(ext):
    return (ext.ambient.table, ext.ambient.one, ext.bottom.basis)


def test_identical_seeds_identical_streams():
    spec = GenSpec(seed=42, q=2, max_dim=5, shape="mixed", count=8)
    a = [fingerprint(e) for e in random_extension(spec)]
    b = [fingerprint(e) for e in random_extension(spec)]
    assert a == b


def test_different_seeds_differ():
    a = [fingerprint(e) for e in random_extension(GenSpec(seed=1, count=6))]
    b = [fingerprint(e) for e in random_extension(GenSpec(seed=2, count=6))]
    assert a != b


@pytest.mark.parametrize("q", [2, 3])
def test_local_subintegral_shape_guarantee(q):
    spec = GenSpec(seed=5, q=q, max_dim=5, shape="local-subintegral", count=10)
    for ext in random_extension(spec):
        assert not ext.is_trivial
        assert local_decomposition(ext.bottom).is_local
        assert is_subintegral(ext)


def test_field_tower_shape(F2):
    for ext in random_extension(GenSpec(seed=1, q=2, max_dim=6,
                                        shape="field-tower", count=5)):
        from ringlat.algebra import nilradical

        assert nilradical(ext.ambient.full()).dim == 0
        assert local_decomposition(ext.ambient.full()).is_local
        assert ext.bottom.dim == 1


def test_product_shape(F2):
    for ext in random_extension(GenSpec(seed=9, q=2, max_dim=6,
                                        shape="product-of-locals", count=5)):
        assert ext.ambient.dim <= 8


def test_every_emitted_instance_validates():
    for ext in random_extension(GenSpec(seed=11, q=3, max_dim=4, count=10)):
        ext.ambient.validate()  # must not raise


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(seed=0, q=6)
    with pytest.raises(ValueError):
        GenSpec(seed=0, shape="nope")
    with pytest.raises(ValueError):
        GenSpec(seed=0, max_dim=40)
    with pytest.raises(ValueError):
        GenSpec(seed=0, q=512)  # GF(2^9) is over the extension-table bound
    with pytest.raises(ValueError):
        GenSpec(seed=0, count=-1)


@pytest.mark.parametrize("argv", [
    ["gen", "--shape", "field-tower", "--q", "16", "--max-dim", "2", "--count", "1"],
    ["check", "--gen", "field-tower", "--q", "16", "--max-dim", "2", "--count", "1"],
], ids=["gen", "check"])
def test_one_field_table_per_command(monkeypatch, argv):
    """The --q option and the spec check q against the bounds of gfq; only
    the stream builds GF(q), so its tables are built once."""
    calls = []
    original = gfq.GF._build_tables
    monkeypatch.setattr(gfq.GF, "_build_tables",
                        lambda self: calls.append(self.q) or original(self))
    assert cli.main(argv) == 0
    assert calls == [16]


def test_staircases_are_downward_closed():
    import random

    rng = random.Random(0)
    for size in (1, 3, 5, 7):
        cells = set(staircase_monomials(rng, size))
        assert len(cells) == size and (0, 0) in cells
        for i, j in cells:
            assert i == 0 or (i - 1, j) in cells
            assert j == 0 or (i, j - 1) in cells


def test_all_staircases_counts():
    # Young diagrams with at most n cells: 1, 3, 6, 11, 18 for n = 1..5
    assert [len(all_staircases(n)) for n in range(1, 6)] == [1, 3, 6, 11, 18]


def test_monomial_algebra_is_local(F2):
    A = monomial_algebra(F2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    dec = local_decomposition(A.full())
    assert dec.is_local and dec.factors[0].residue_degree == 1


def test_exhaustive_tops_cover_the_running_example(F2):
    tops = exhaustive_top_algebras(F2, 4)
    from ringlat.algebra import make_poly_quotient

    T44 = make_poly_quotient(F2, (0, 0, 0, 0, 1))
    assert any(same_table(t, T44) for t in tops)


@pytest.mark.parametrize("argv,digest", [
    ("field-tower --q 1021 --max-dim 3 --count 5 --seed 1",
     "6c8b9cdcaa2fb15f4da3079e7aa2b8da53ebf7d17c6b67276aad410aeea2991f"),
    ("product-of-locals --q 9 --max-dim 6 --count 20 --seed 3",
     "a94d4f99cd1bcecee939255e7a11d7b955eaadf59d54d2d74184d163d380d5d0"),
    ("mixed --q 49 --max-dim 4 --count 20 --seed 3",
     "687a960be26d5b369373b563100aaed960d133ed7597e267bf09c887729649f8"),
    ("mixed --q 4 --max-dim 6 --count 20 --seed 3",
     "af3bc2e3f164295b8679dab85554465e5522e9b58b834a61936c09fe3bc72a78")])
def test_gen_streams_with_field_steps_are_pinned(argv, digest, capsys):
    """SHA-256 of `gen --shape` output whose field steps search for the
    lex-first irreducible; a different search result changes the stream."""
    assert cli.main(["gen", "--shape", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("q,digest", [
    (2, "bf995da2c1f1a28672b4e4b7e713a24b71f3cd15afd23cad322b6061fe44e02b"),
    (3, "9bcaf067a8627e2770fbd65f23b1873518ff8cdc663c069b098bda5991623cff"),
    (4, "6d41bf86bc7f84d3db0c6f76726058f064b919e40bf5abbc0257deb1b01f23d0"),
    (9, "2f28deee9e7e4dfcdecf6459b848613b96c6d4ea73660d9261f1e2de9149d527")])
def test_local_subintegral_stream_splits_no_idempotents(monkeypatch, capsys, q, digest):
    """The shape test of a local-subintegral attempt reads local-ness off the
    Frobenius counts of the bottom, so the pinned stream comes with no
    local decomposition: no ring's idempotents are split."""
    calls = []
    real = algebra._primitive_idempotents
    monkeypatch.setattr(algebra, "_primitive_idempotents",
                        lambda *args: calls.append(args) or real(*args))
    argv = f"local-subintegral --q {q} --max-dim 6 --count 20 --seed 1"
    assert cli.main(["gen", "--shape", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert calls == []
