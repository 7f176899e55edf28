"""Core algebra tests: construction, products, involutions, duality, exp."""

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import gen
import oracles
from gacalc import (
    Algebra,
    AlgebraMismatch,
    Frame,
    GAError,
    GradeError,
    LinearMap,
    Multivector,
    NonFiniteError,
    NotInvertible,
    exp_bivector,
    gram_schmidt,
)
from gacalc import algebra, frames


E2 = Algebra(2, 0)
E3 = Algebra(3, 0)
STA = Algebra(1, 3)


# -- construction ------------------------------------------------------------

def test_signature_stored():
    a = Algebra(1, 3)
    assert (a.p, a.q, a.n) == (1, 3, 4)
    assert a.metric == (1.0, -1.0, -1.0, -1.0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_nonfinite_tolerance_rejected(tolerance):
    # a NaN or infinite threshold would prune every coefficient
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        Algebra(3, 0, tolerance=tolerance)


def test_bad_signatures_rejected():
    with pytest.raises(ValueError):
        Algebra(-1, 0)
    with pytest.raises(ValueError):
        Algebra(7, 7)  # beyond the default dimension cap
    with pytest.raises(ValueError):
        Algebra(2, 0, tolerance=-1.0)


def test_non_integral_signature_rejected():
    # Algebra(3.5, 0) used to build Cl(3,0)
    for p, q in ((3.5, 0), (3, 0.5), (2.0, 1)):
        with pytest.raises(ValueError, match="signature counts must be integers"):
            Algebra(p, q)
    import numpy as np
    a = Algebra(np.int64(2), np.int32(1))
    assert (a, type(a.p), type(a.q)) == (Algebra(2, 1), int, int)


def test_dimension_cap_is_configurable():
    a = Algebra(7, 7, max_dimension=14)
    assert a.n == 14


def test_scalar_only_algebra():
    a = Algebra(0, 0)
    assert str(a.scalar(2.0)) == "2"
    with pytest.raises(GAError):
        a.I


def test_basis_vector_bounds():
    with pytest.raises(ValueError):
        E3.basis_vector(0)
    with pytest.raises(ValueError):
        E3.basis_vector(4)


def test_vector_needs_n_components():
    with pytest.raises(ValueError):
        E3.vector([1.0, 2.0])


def test_blade_rejects_repeated_indices():
    for indices, message in (((1, 1), "repeated basis index 1 in blade"),
                             ((2, 3, 2), "repeated basis index 2 in blade"),
                             ((0,), "basis index 0 outside 1..3"),
                             ((-1,), "basis index -1 outside 1..3"),
                             ((2, 4), "basis index 4 outside 1..3")):
        with pytest.raises(ValueError) as err:
            E3.blade(indices, 1.0)
        assert str(err.value) == message
        # coefficient and blade_product read index tuples the same way
        with pytest.raises(ValueError, match=re.escape(message)):
            E3.basis_vector(1).coefficient(indices)
        with pytest.raises(ValueError, match=re.escape(message)):
            E3.blade_product((1,), indices)


def test_blade_index_order_carries_sign():
    assert E3.blade((2, 1), 1.0) == E3.blade((1, 2), -1.0)


def test_algebra_equality_and_hash():
    assert Algebra(3, 0) == Algebra(3, 0)
    assert Algebra(3, 0) != Algebra(2, 1)
    assert Algebra(3, 0) != Algebra(3, 0, tolerance=1e-6)
    assert hash(Algebra(3, 0)) == hash(Algebra(3, 0))


def test_basis_blades_ordered_by_grade_then_lex():
    assert E2.basis_blades() == [(), (1,), (2,), (1, 2)]
    blades = STA.basis_blades()
    assert len(blades) == 16
    assert blades.index((1, 4)) < blades.index((2, 3))


def test_tolerance_prunes_small_terms():
    loose = Algebra(3, 0, tolerance=1e-3)
    assert not loose.scalar(1e-4)
    assert loose.vector([1.0, 1e-4, 0.0]) == loose.blade((1,), 1.0)


# -- blade product sign algorithm ---------------------------------------------

def test_blade_product_on_index_tuples():
    assert E3.blade_product((2,), (1,)) == ((1, 2), -1.0)
    assert E3.blade_product((1, 2), (2, 3)) == ((1, 3), 1.0)
    assert E3.blade_product((1, 2), (1, 2)) == ((), -1.0)
    assert STA.blade_product((2,), (2,)) == ((), -1.0)


def test_geometric_product_examples():
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    assert str(e2 * e1) == "-1*e12"
    assert str(E3.blade((1, 2), 1.0) * E3.blade((2, 3), 1.0)) == "1*e13"
    assert (E3.blade((1, 2), 1.0) * E3.blade((1, 2), 1.0)).scalar_part == -1.0
    assert not (1 + e1) * (1 - e1)  # null product collapses to zero


def _random_terms(alg, rng):
    """Half the basis blades for n <= 8; about 30 blades of random grade above."""
    if alg.n <= 8:
        return {t: rng.uniform(-2, 2) for t in alg.basis_blades() if rng.random() < 0.5}
    return {tuple(sorted(rng.sample(range(1, alg.n + 1), rng.randint(0, alg.n)))):
            rng.uniform(-2, 2) for _ in range(30)}


def test_geometric_product_against_word_oracle():
    rng = random.Random(2024)
    # a second stream for the shuffles, so the operands stay the same
    shuffle = random.Random(2025)
    # n = 18 puts factors above bit 16, where a sign mask of fixed width would stop.
    algebras = (E2, E3, STA, Algebra(2, 2), Algebra(5, 5), Algebra(0, 12),
                Algebra(15, 3, max_dimension=18))
    products = ((Multivector.__mul__, oracles.gp),
                (Multivector.__xor__, oracles.outer),
                (Multivector.left_contract, oracles.lcontract),
                (Multivector.right_contract, oracles.rcontract))
    for alg in algebras:
        for _ in range(40 if alg.n <= 4 else 8):
            a = _random_terms(alg, rng)
            b = _random_terms(alg, rng)
            A, B = alg.multivector(a), alg.multivector(b)
            for product, oracle in products:
                got = product(A, B).terms
                want = oracle(a, b, alg.metric)
                assert oracles.max_coeff_diff(got, want) < 1e-12
            for x in a:
                xs = tuple(shuffle.sample(x, len(x)))
                # a word of distinct indices reduces to its sorted blade and parity
                blade, parity = oracles.word_reduce(xs, alg.metric)
                assert blade == x
                assert alg.multivector({xs: a[x]}).coefficient(x) == parity * a[x]
                assert A.coefficient(xs) == parity * A.coefficient(x)
                for y in b:
                    ys = tuple(shuffle.sample(y, len(y)))
                    # reversed x also checks the parity of sorting the input
                    assert alg.blade_product(x[::-1], y) == oracles.word_reduce(
                        x[::-1] + y, alg.metric)
                    assert alg.blade_product(xs, ys) == oracles.word_reduce(
                        xs + ys, alg.metric)


def _density_terms(alg, density, rng):
    """Random coefficients on every blade of a density: vector, bivector, rotor or full."""
    grade_ok = {"vector": lambda r: r == 1, "bivector": lambda r: r == 2,
                "rotor": lambda r: r % 2 == 0, "full": lambda r: True}[density]
    return {blade: rng.uniform(-2, 2) for blade in alg.basis_blades()
            if grade_ok(len(blade))}


# Operands of 3584 to 49,152 blade pairs, past the crossover to the numpy
# branch, in n >= 7: below that every product runs in the table loop.
DENSE_SHAPES = [(7, 0, "full", "full"), (4, 3, "rotor", "full"),
                (4, 4, "bivector", "rotor"), (5, 5, "vector", "rotor"),
                (8, 0, "rotor", "bivector"), (12, 0, "vector", "full")]


@pytest.mark.parametrize("p, q, da, db", DENSE_SHAPES)
def test_dense_branch_matches_the_python_loop(p, q, da, db, monkeypatch):
    rng = random.Random(f"dense {p},{q}")
    alg = Algebra(p, q)
    a, b = _density_terms(alg, da, rng), _density_terms(alg, db, rng)
    A, B = alg.multivector(a), alg.multivector(b)
    dense_calls = []

    def dense_product(*args):
        dense_calls.append(args)
        return original(*args)

    original = algebra._dense_product
    monkeypatch.setattr(algebra, "_dense_product", dense_product)
    products = ((Multivector.__mul__, oracles.gp),
                (Multivector.__xor__, oracles.outer),
                (Multivector.left_contract, oracles.lcontract),
                (Multivector.right_contract, oracles.rcontract))
    for product, oracle in products:
        monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", 0)
        dense = product(A, B)
        monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", math.inf)
        sparse = product(A, B)
        # the same floats in the same key order, so nothing downstream can drift
        assert list(dense._terms.items()) == list(sparse._terms.items())
        assert oracles.max_coeff_diff(dense.terms, oracle(a, b, alg.metric)) < 1e-12
    assert len(dense_calls) == len(products)


def _both_branches(product, A, B, monkeypatch):
    """product(A, B) from the numpy branch and from the Python loop."""
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", 0)
    dense = product(A, B)
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", math.inf)
    return dense, product(A, B)


def test_dense_branch_with_no_kept_pair(monkeypatch):
    alg = Algebra(8, 0)
    rng = random.Random("no kept pair")
    full = alg.multivector(_density_terms(alg, "full", rng))
    high = full - full.grade(0) - full.grade(1)
    vector = alg.vector([rng.uniform(-2, 2) for _ in range(8)])
    # 247 x 8 blade pairs, none of which the contraction keeps
    dense, sparse = _both_branches(Multivector.left_contract, high, vector, monkeypatch)
    assert dense == sparse == alg.zero()


@pytest.mark.parametrize("product", [Multivector.__mul__, Multivector.__xor__,
                                     Multivector.left_contract, Multivector.right_contract],
                         ids=["gp", "wedge", "lcontract", "rcontract"])
def test_dense_branch_matches_the_python_loop_at_n14(product, monkeypatch):
    # n = 14 takes the sign masks past three doubling steps
    alg = Algebra(9, 5, max_dimension=14)
    rng = random.Random("n = 14")
    vector = alg.vector([rng.uniform(-2, 2) for _ in range(14)])
    full = Multivector._make(alg, {bits: rng.uniform(-2, 2) for bits in range(1 << 14)})
    for A, B in ((vector, full), (full, vector)):
        dense, sparse = _both_branches(product, A, B, monkeypatch)
        assert list(dense._terms.items()) == list(sparse._terms.items())


def test_dense_filtered_pairs_report_the_first_nonfinite_sum(monkeypatch):
    alg = Algebra(7, 0)
    big = alg.multivector({blade: 1e200 for blade in alg.basis_blades()})
    messages = []
    for limit in (0, math.inf):
        monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", limit)
        with pytest.raises(NonFiniteError) as err:
            big ^ big  # 16,384 blade pairs, 2187 of them kept
        messages.append(str(err.value))
    assert messages == ["coefficient is not finite: inf"] * 2


@pytest.mark.parametrize("p, q", [(7, 0), (6, 6)])
def test_dense_branch_where_a_filtering_select_keeps_every_pair(p, q, monkeypatch):
    # only the geometric product's select keeps every pair by its rule; these
    # blocks keep every pair too, by their operands, and take the gather
    alg = Algebra(p, q)
    rng = random.Random(f"every pair kept {p},{q}")
    one, e1 = alg.scalar(1.0), alg.basis_vector(1)
    F = alg.multivector(_density_terms(alg, "full", rng))
    G = alg.multivector({b: c for b, c in _density_terms(alg, "full", rng).items()
                         if 1 not in b})
    dense_calls = []

    def dense_product(*args):
        dense_calls.append(args)
        return original(*args)

    original = algebra._dense_product
    monkeypatch.setattr(algebra, "_dense_product", dense_product)
    # the scalar term brings e1 ^ G to 2^n pairs, where the numpy branch runs
    for product, A, B in ((Multivector.left_contract, one, F),
                          (Multivector.right_contract, F, one),
                          (Multivector.__xor__, 0.5 + e1, G)):
        dense, sparse = _both_branches(product, A, B, monkeypatch)
        assert list(dense._terms.items()) == list(sparse._terms.items())
        assert dense
    assert len(dense_calls) == 3


def test_dense_branch_never_evaluates_the_geometric_products_select(monkeypatch):
    # the kernel keeps every pair of a geometric product's block because the
    # select is _gp_select, not because evaluating it says so
    calls = []

    def gp_select(ka):
        calls.append(ka)
        return original(ka)

    original = algebra._gp_select
    monkeypatch.setattr(algebra, "_gp_select", gp_select)
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", 0)
    alg = Algebra(8, 0)
    rng = random.Random("no gp select")
    full = alg.multivector(_density_terms(alg, "full", rng))
    rotor = alg.multivector(_density_terms(alg, "rotor", rng))
    # 256 x 256 pairs in 8 blocks of 32 rows, and 128 x 256 in 4
    shapes = ((full, full), (rotor, full))
    dense = [list((A * B)._terms.items()) for A, B in shapes]
    assert calls == []
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", math.inf)
    assert dense == [list((A * B)._terms.items()) for A, B in shapes]
    assert len(calls) == len(full._terms) + len(rotor._terms)  # the loop's, one per left term


PRODUCTS = ((Multivector.__mul__, oracles.gp, algebra._gp_select),
            (Multivector.__xor__, oracles.outer, algebra._outer_select),
            (Multivector.left_contract, oracles.lcontract, algebra._lcontract_select),
            (Multivector.right_contract, oracles.rcontract, algebra._rcontract_select))


def _operand_pairs(alg, rng):
    """Full, sparse and cancelling operand pairs as index-tuple term dicts."""
    blades = alg.basis_blades()
    full = {t: rng.uniform(-2, 2) for t in blades}
    sparse = {t: rng.uniform(-2, 2) for t in rng.sample(blades, min(3, len(blades)))}
    # small integers and a sign-flipped copy: many sums cancel to exactly 0.0
    ints = {t: rng.choice((-2.0, -1.0, 1.0, 2.0)) for t in blades if rng.random() < 0.5}
    flipped = {t: -c if len(t) & 1 else c for t, c in ints.items()}
    return [(full, full), (sparse, full), (full, sparse), (sparse, sparse),
            (ints, ints), (ints, flipped)]


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(7) for p in range(n + 1)])
def test_table_loop_matches_the_bit_loop(p, q, monkeypatch):
    rng = random.Random(f"tables {p},{q}")
    table_max_n = algebra._TABLE_MAX_N
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", math.inf)
    for tolerance in (algebra.DEFAULT_TOLERANCE, 0.0):
        alg = Algebra(p, q, tolerance=tolerance)
        for a, b in _operand_pairs(alg, rng):
            A, B = alg.multivector(a), alg.multivector(b)
            for product, oracle, _ in PRODUCTS:
                monkeypatch.setattr(algebra, "_TABLE_MAX_N", -1)
                bit_loop = product(A, B)
                monkeypatch.setattr(algebra, "_TABLE_MAX_N", table_max_n)
                table_loop = product(A, B)
                # the same floats in the same key order
                assert list(table_loop._terms.items()) == list(bit_loop._terms.items())
                if len(a) * len(b) <= 1024:
                    want = oracle(a, b, alg.metric)
                    assert oracles.max_coeff_diff(table_loop.terms, want) < 1e-12


def test_pair_tables_are_kept_per_signature(monkeypatch):
    monkeypatch.setattr(algebra, "_PAIR_TABLES", {})
    rng = random.Random("one table per kind")
    for _ in range(50):
        alg = Algebra(3, 3)
        A = alg.vector([rng.uniform(-2, 2) for _ in range(6)])
        B = alg.multivector({(1, 2): 1.0, (3, 4, 5): 2.0, (): 0.5})
        for product, _, _ in PRODUCTS:
            product(A, B)
            product(B, A)
    minus_mask = 0b111000
    assert set(algebra._PAIR_TABLES) == {(6, minus_mask, select) for _, _, select in PRODUCTS}
    for table in algebra._PAIR_TABLES.values():
        assert len(table) == 64 and {len(row) for row in table} == {64}


@pytest.mark.parametrize("alg", [Algebra(4, 3), Algebra(10, 10, max_dimension=20)],
                         ids=["Cl(4,3)", "Cl(10,10)"])
def test_no_pair_table_above_six_dimensions(alg, monkeypatch):
    monkeypatch.setattr(algebra, "_PAIR_TABLES", {})
    rng = random.Random(f"no table {alg}")
    for _ in range(5):
        # 12 terms a side: 144 pairs, so the Python loop runs, not the numpy branch
        a, b = (dict(rng.sample(sorted(_random_terms(alg, rng).items()), 12))
                for _ in range(2))
        A, B = alg.multivector(a), alg.multivector(b)
        for product, oracle, _ in PRODUCTS:
            got = product(A, B).terms
            assert oracles.max_coeff_diff(got, oracle(a, b, alg.metric)) < 1e-12
    assert algebra._PAIR_TABLES == {}


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(7) for p in range(n + 1)])
def test_small_algebras_never_take_the_numpy_branch(p, q, monkeypatch):
    # from n = 7 the same products, with the threshold at 0, take it
    def dense_product(*args):
        raise AssertionError(f"numpy branch in Cl({p},{q})")

    monkeypatch.setattr(algebra, "_dense_product", dense_product)
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", 0)
    rng = random.Random(f"no numpy {p},{q}")
    alg = Algebra(p, q)
    full = {blade: rng.uniform(-2, 2) for blade in alg.basis_blades()}
    A = alg.multivector(full)
    for product, oracle, _ in PRODUCTS:
        got = product(A, A).terms
        assert oracles.max_coeff_diff(got, oracle(full, full, alg.metric)) < 1e-12


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)]
                         + [(4, 3)])
def test_graded_product_is_the_filtered_geometric_product(p, q):
    # up to n = 6 it sums only the blades of the grades when they are fewer
    # than the right operand's terms; otherwise, and at n = 7, it filters
    # the full product. Both give the full product's floats in its key order.
    rng = random.Random(f"graded {p},{q}")
    sides = set()
    for tolerance in (algebra.DEFAULT_TOLERANCE, 0.0):
        alg = Algebra(p, q, tolerance=tolerance)
        for _ in range(30):
            A, B = (gen.rand_mv(alg, rng, density=rng.choice((0.2, 0.5, 1.0)))
                    for _ in range(2))
            grades = {r for r in range(alg.n + 1) if rng.random() < 0.3}
            sides.add(sum(math.comb(alg.n, r) for r in grades) < len(B._terms))
            want = [(k, v) for k, v in (A * B)._terms.items() if k.bit_count() in grades]
            assert list(algebra._graded_product(A, B, grades)._terms.items()) == want
    assert sides == {True, False}


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
def test_graded_product_keeps_the_full_products_bits_on_every_shape(p, q):
    # each kept blade sums its left terms in order and records where the
    # full product first meets it: the same floats in the same key order,
    # on sparse and dense operands, versors and their reverses, and the
    # grades 0 (mod 4) that the versor check reads
    rng = random.Random(f"graded bits {p},{q}")
    n = p + q
    for tolerance in (algebra.DEFAULT_TOLERANCE, 0.0):
        alg = Algebra(p, q, tolerance=tolerance)
        for _ in range(74):
            shape = rng.randrange(3)
            if shape == 0:
                A, B = (gen.rand_mv(alg, rng, density=rng.choice((0.1, 0.3, 0.6, 1.0)))
                        for _ in range(2))
            else:
                A = gen.rand_versor(alg, rng, rng.randint(1, n))
                B = A.reverse() if shape == 1 else gen.rand_mv(alg, rng)
            grades = ({r for r in range(n + 1) if rng.random() < 0.4} if rng.random() < 0.7
                      else set(range(0, n + 1, 4)))
            want = [(k, v) for k, v in (A * B)._terms.items() if k.bit_count() in grades]
            assert list(algebra._graded_product(A, B, grades)._terms.items()) == want


def _wedge_chain(exact, vectors, bits):
    """a_S as the explicit chain (a_i1 ^ a_i2) ^ ... over the set bits of S, in exact."""
    out = exact.scalar(1.0)
    for i, v in enumerate(vectors):
        if bits >> i & 1:
            out = out ^ exact.multivector(v.terms)
    return out


def _frame_vectors(alg, rng, kind):
    """k <= n vectors: dense, basis vectors, or vectors with zero components."""
    n = alg.n
    k = rng.randint(1, n)
    if kind == "dense":
        return [gen.rand_vector(alg, rng) for _ in range(k)]
    if kind == "basis":
        return [alg.basis_vector(i) * gen.rand_coeff(rng) for i in rng.sample(range(1, n + 1), k)]
    return [alg.vector([0.0 if rng.random() < 0.4 else gen.rand_coeff(rng) for _ in range(n)])
            for _ in range(k)]


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
def test_wedges_match_explicit_outer_product_chains(p, q, monkeypatch):
    # up to n = 6 a wedge is summed as minors, one output blade at a time,
    # and below the plan's size in pairs by the pair loop: both give the
    # chain of ^ to 1e-12 of the Hadamard bound prod |a_i|
    rng = random.Random(f"wedges {p},{q}")
    exact = Algebra(p, q, tolerance=0.0)
    pair_loops = []
    xor = Multivector.__xor__
    monkeypatch.setattr(Multivector, "__xor__",
                        lambda self, other: pair_loops.append(1) or xor(self, other))
    kernels = set()
    for tolerance in (algebra.DEFAULT_TOLERANCE, 0.0):
        alg = Algebra(p, q, tolerance=tolerance)
        for kind in ("dense", "basis", "zeros") * 4:
            vectors = _frame_vectors(alg, rng, kind)
            memo = frames._Wedges(alg, vectors)
            for bits in range(1 << len(vectors)):
                before = len(pair_loops)
                got = memo[bits]
                if bits.bit_count() > 1:
                    kernels.add(len(pair_loops) > before)
                want = _wedge_chain(exact, vectors, bits)
                bound = math.prod(math.hypot(*v._terms.values())
                                  for i, v in enumerate(vectors) if bits >> i & 1)
                keys = got._terms.keys() | want._terms.keys()
                assert all(abs(got._terms.get(k, 0.0) - want._terms.get(k, 0.0)) <= 1e-12 * bound
                           for k in keys)
                assert got.algebra == exact and all(got._terms.values())
    if p + q > 1:
        assert kernels == {True, False}


def test_wedges_build_each_vector_coordinates_once(monkeypatch):
    # the minors read each vector's signed coordinates, built when the memo
    # is: a frame round trip at n = 6 rebuilt the top vector's list for each
    # of its 57 wedges
    built = []
    signed = frames._signed_coordinates
    monkeypatch.setattr(frames, "_signed_coordinates",
                        lambda n, v: built.append(v) or signed(n, v), raising=False)
    alg = Algebra(6, 0)
    rng = random.Random("coordinates once")
    f = Frame([gen.rand_vector(alg, rng) for _ in range(6)])
    A = gen.rand_mv(alg, rng)
    assert f.expand(f.components(A)).isclose(A, tol=1e-9)
    assert len(f._blades) == 64 and len(built) == 6


@pytest.mark.parametrize("vectors, value", [
    ([(1e200, 1.0, 0.0), (1.0, 1e200, 0.0)], "inf"),  # 1e400 - 1
    ([(1e200, 1e200, 0.0), (1e200, 1e200, 0.0)], "nan"),  # inf - inf
], ids=["inf", "nan"])
def test_an_overflowing_wedge_is_nonfinite(vectors, value):
    alg = Algebra(3, 0)
    vectors = [alg.vector(v) for v in vectors]
    with pytest.raises(NonFiniteError, match=rf"^coefficient is not finite: {value}$"):
        frames._Wedges(alg, vectors)[3]
    with pytest.raises(NonFiniteError):
        Frame(vectors)


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
def test_versor_check_reads_the_grades_of_v_reverse_v_that_can_be_nonzero(p, q):
    # V reverse(V) is its own reverse and even, so the check forms only its
    # grades 0 (mod 4): the others are roundoff; and inverse() takes
    # reverse(V) / <V reverse(V)>_0 from that one product
    rng = random.Random(f"versor square {p},{q}")
    alg = Algebra(p, q)
    exact = Algebra(p, q, tolerance=0.0)
    for count in range(1, 2 * alg.n + 1):
        for _ in range(3):
            V = gen.rand_versor(alg, rng, count)
            assert V.is_versor()
            square = exact.multivector(V.terms) * exact.multivector(V.reverse().terms)
            size2 = math.hypot(*V._terms.values()) ** 2
            assert all(abs(x) <= 1e-13 * size2 for k, x in square._terms.items()
                       if k.bit_count() & 3 == 2)
            assert all(k.bit_count() & 1 == 0 for k in square._terms)
            n2 = (V * V.reverse()).scalar_part
            want = {k: r / n2 for k, r in V.reverse()._terms.items()}
            assert list(V.inverse()._terms.items()) == list(want.items())


def _linear_sign_mask(a, minus_mask, n):
    mask = a & minus_mask
    for shift in range(1, n):
        mask ^= a >> shift
    return mask


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20),
    st.integers(0, (1 << n) - 1))))
def test_sign_mask_doubling_matches_the_linear_definition(case):
    import numpy as np

    n, blades, minus_mask = case
    want = [_linear_sign_mask(a, minus_mask, n) for a in blades]
    assert [algebra._sign_mask(a, minus_mask, n) for a in blades] == want
    got = algebra._sign_mask(np.array(blades, np.int64), minus_mask, n)
    assert got.dtype == np.int64 and got.tolist() == want


def _huge_dense_square():
    alg = Algebra(7, 0)
    big = alg.multivector({blade: 1e200 for blade in alg.basis_blades()})
    return big * big  # 16,384 blade pairs: the numpy branch


@pytest.mark.parametrize("make", [
    lambda: E3.scalar(math.nan),
    lambda: E3.scalar(math.inf),
    lambda: E3.vector([0.0, -math.inf, 1.0]),
    lambda: E3.multivector({(1,): math.nan}),
    lambda: E3.scalar(1.5e308) + E3.scalar(1.5e308),
    lambda: E3.basis_vector(1) * math.inf,
    lambda: E3.basis_vector(1) / math.nan,
    lambda: E3.blade((1,), 1e200) * E3.blade((1,), 1e200),
    lambda: E3.blade((1,), 1e200) ^ E3.blade((2,), 1e200),
    _huge_dense_square,
], ids=["nan", "inf", "vector", "constructor", "sum", "scaled", "divided",
        "product", "wedge", "dense product"])
def test_nonfinite_coefficients_raise(make):
    # NaN used to be pruned as if it were zero, and inf kept as a coefficient
    with pytest.raises(NonFiniteError, match="coefficient is not finite"):
        make()


def test_scalar_multiplication_and_division():
    e1 = E3.basis_vector(1)
    assert 2 * e1 == e1 * 2 == e1 + e1
    assert (e1 / 2).coefficient((1,)) == 0.5
    with pytest.raises(TypeError):
        e1 / e1  # division is by scalars only


def test_division_by_zero_raises_not_invertible():
    # this used to be a bare ZeroDivisionError, outside the GAError family
    e1 = E3.basis_vector(1)
    for zero in (0, 0.0, -0.0):
        with pytest.raises(NotInvertible, match="cannot divide a multivector by zero"):
            e1 / zero


def test_numpy_scalar_operands_become_floats():
    # a numpy scalar used to be stored as is and printed as np.float64(2.5)*e1
    import numpy as np
    e1 = E3.basis_vector(1)
    for mv in (e1 * np.float64(2.5), e1 ^ np.float64(2.5), e1 / np.float64(0.4),
               e1 * np.int64(5) / 2):
        assert str(mv) == "2.5*e1"
        assert type(mv.coefficient((1,))) is float


def test_mixing_algebras_raises():
    with pytest.raises(AlgebraMismatch):
        E3.basis_vector(1) * E2.basis_vector(1)
    with pytest.raises(AlgebraMismatch):
        E3.basis_vector(1) + STA.basis_vector(1)


# -- graded products -----------------------------------------------------------

def test_outer_product_antisymmetry_on_vectors():
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    assert (e1 ^ e2) == -(e2 ^ e1)
    assert not (e1 ^ e1)


def test_contraction_examples():
    e1 = E3.basis_vector(1)
    e2 = E3.basis_vector(2)
    e12 = E3.blade((1, 2), 1.0)
    assert str(e1.left_contract(e12)) == "1*e2"
    assert str(e12.right_contract(e2)) == "1*e1"
    assert not e12.left_contract(e1)  # grade would have to drop below zero
    assert e1.left_contract(e1).scalar_part == 1.0


def test_left_contraction_matches_oracle():
    rng = random.Random(7)
    for alg in (E3, STA):
        for _ in range(30):
            a = {b: rng.uniform(-2, 2) for b in alg.basis_blades() if rng.random() < 0.4}
            b = {t: rng.uniform(-2, 2) for t in alg.basis_blades() if rng.random() < 0.4}
            got = alg.multivector(a).left_contract(alg.multivector(b)).terms
            want = oracles.lcontract(a, b, alg.metric)
            assert oracles.max_coeff_diff(got, want) < 1e-12


def test_vector_product_decomposition():
    rng = random.Random(11)
    for _ in range(50):
        u = STA.vector([rng.uniform(-2, 2) for _ in range(4)])
        v = STA.vector([rng.uniform(-2, 2) for _ in range(4)])
        assert (u * v).isclose(u.left_contract(v) + (u ^ v), tol=1e-12)


def test_scalar_product_uses_reversed_left_factor():
    e12 = E3.blade((1, 2), 1.0)
    assert e12.scalar_product(e12) == 1.0
    a = 2 + E3.blade((1, 3), 1.0)
    b = 3 + E3.blade((1, 3), 0.5)
    assert a.scalar_product(b) == pytest.approx(6.0 + 0.5)


def test_commutator_examples():
    e1 = E3.basis_vector(1)
    e12 = E3.blade((1, 2), 1.0)
    e23 = E3.blade((2, 3), 1.0)
    assert str(e12.commutator(e1)) == "-1*e2"
    assert str(e12.commutator(e23)) == "1*e13"


def test_grade_selection():
    m = 1 + E3.basis_vector(1) + E3.blade((1, 2), 2.0)
    assert m.grade(0).scalar_part == 1.0
    assert str(m.grade(2)) == "2*e12"
    assert not m.grade(3)
    assert not m.grade(-1)
    assert m.grades == frozenset({0, 1, 2})
    assert m.even_part() + m.odd_part() == m


@pytest.mark.parametrize("p, q", [(n, 0) for n in range(7)] + [(2, 4), (12, 0), (6, 6)])
def test_grade_parts_keep_the_terms_of_their_grades_in_order(p, q):
    # each part is the operand's terms at its grades, the same floats in the
    # same key order; grade(r) compares r by ==, so 2.0 picks grade 2
    rng = random.Random(f"grade parts {p},{q}")
    n = p + q
    for tolerance in (algebra.DEFAULT_TOLERANCE, 0.0):
        alg = Algebra(p, q, tolerance=tolerance)
        operands = [alg.zero()] + [gen.rand_mv(alg, rng, density=d) for d in (0.2, 0.6, 1.0)]
        for m in operands:
            items = list(m._terms.items())
            for r in [-1, *range(n + 2), 2.0]:
                assert list(m.grade(r)._terms.items()) == [
                    (k, v) for k, v in items if k.bit_count() == r]
            for part, keep in ((m.even_part(), lambda k: not k.bit_count() & 1),
                               (m.odd_part(), lambda k: k.bit_count() & 1),
                               (m.grade_nonscalar(), lambda k: k)):
                assert part.algebra is alg
                assert list(part._terms.items()) == [(k, v) for k, v in items if keep(k)]


# -- involutions ----------------------------------------------------------------

def test_reverse_grade_signs():
    e1 = E3.basis_vector(1)
    e12 = E3.blade((1, 2), 1.0)
    e123 = E3.blade((1, 2, 3), 1.0)
    assert ~e1 == e1
    assert ~e12 == -e12
    assert ~e123 == -e123
    assert (~(e1 + e12)) == e1 - e12


def test_grade_involution_signs():
    m = 1 + E3.basis_vector(1) + E3.blade((1, 2), 1.0) + E3.blade((1, 2, 3), 1.0)
    g = m.grade_involution()
    assert g.grade(0) == m.grade(0)
    assert g.grade(1) == -m.grade(1)
    assert g.grade(2) == m.grade(2)
    assert g.grade(3) == -m.grade(3)


def test_clifford_conjugate_is_both():
    rng = random.Random(3)
    for _ in range(20):
        m = STA.multivector({b: rng.uniform(-1, 1) for b in STA.basis_blades()})
        assert m.clifford_conjugate() == (~m).grade_involution()


def test_involutions_match_their_grade_formulas_at_every_grade():
    # one blade of every grade r <= 20, against (-1)^r, (-1)^(r(r-1)/2) and
    # (-1)^(r(r+1)/2), terms in order and bit for bit
    big = Algebra(20, 0, max_dimension=20)
    m = big.multivector({tuple(range(1, r + 1)): 1.0 + r / 7 for r in range(21)})
    for result, sign in ((m.grade_involution(), lambda r: r & 1),
                         (m.reverse(), lambda r: r * (r - 1) // 2 & 1),
                         (m.clifford_conjugate(), lambda r: r * (r + 1) // 2 & 1)):
        want = [(k, -v if sign(k.bit_count()) else v) for k, v in m._terms.items()]
        assert list(result._terms.items()) == want


# -- norm, inverse, duality -------------------------------------------------------

def test_norm_squared_examples():
    assert E3.basis_vector(1).norm_squared() == 1.0
    assert E3.blade((1, 2), 1.0).norm_squared() == 1.0
    assert STA.basis_vector(2).norm_squared() == -1.0
    null = STA.vector([1.0, 1.0, 0.0, 0.0])
    assert null.norm_squared() == 0.0
    assert STA.I.norm_squared() == -1.0


def test_versor_inverse():
    e12 = E3.blade((1, 2), 1.0)
    assert str(e12.inverse()) == "-1*e12"
    assert (e12 * e12.inverse()).scalar_part == 1.0
    v = E3.vector([3.0, 4.0, 0.0])
    assert (v * v.inverse()).isclose(E3.scalar(1.0), tol=1e-12)


def test_a_small_vector_inverts():
    # |A|^2 = 1e-12 met the bare tolerance: "null versor has no inverse"
    assert str((E3.basis_vector(1) * 1e-6).inverse()) == "1000000*e1"


def test_null_vector_not_invertible():
    with pytest.raises(NotInvertible):
        STA.vector([1.0, 1.0, 0.0, 0.0]).inverse()
    with pytest.raises(NotInvertible):
        E3.zero().inverse()


@pytest.mark.parametrize("A", [
    E3.vector([1.5e308, 1.5e308, 0.0]),
    E3.multivector({(1, 2): 1.5e308, (1, 3): 1.5e308}),
    STA.vector([1.5e308, 1.5e308, 1.5e308, 0.0]),
], ids=["vector", "bivector", "mixed"])
def test_inverse_of_an_overflowing_norm_is_nonfinite(A):
    # an infinite |A|^2 passed the residue rule as roundoff: "null versor has
    # no inverse". |A|^2 is formed at unit scale, so only |A| itself overflows.
    with pytest.raises(NonFiniteError, match=r"^\|A\| is not finite: inf$"):
        A.inverse()


@pytest.mark.parametrize("A", [2 + E3.basis_vector(1) + E3.blade((1, 2)),
                               E3.basis_vector(1) + E3.blade((1, 2))], ids=["2+e1+e12", "e1+e12"])
def test_inverse_of_a_non_versor_is_an_error(A):
    # reverse(A)/|A|^2 was returned: 0.333 + 0.167 e1 - 0.167 e12 for
    # 2 + e1 + e12, whose inverse is 0.5 - 0.25 e1 - 0.25 e12, and
    # 0.5 e1 - 0.5 e12 for e1 + e12, which has none
    with pytest.raises(GradeError, match="^not a versor"):
        A.inverse()


@pytest.mark.parametrize("A, want", [
    (1 + E3.blade((1, 2, 3)), {(): 0.5, (1, 2, 3): -0.5}),
    (E3.basis_vector(1) + E3.blade((2, 3)), {(1,): 0.5, (2, 3): -0.5}),
], ids=["1+e123", "e1+e23"])
def test_inverse_asks_only_whether_a_reverse_a_is_scalar(A, want):
    # inverse() asked the versor check, which refused a mixed-parity A as
    # "not a versor" though A reverse(A) = 2, so A^-1 = reverse(A) / 2
    inverse = A.inverse()
    assert inverse.terms == want
    assert A * inverse == inverse * A == E3.scalar(1.0)


def test_a_null_non_versor_is_not_called_a_versor():
    # in Cl(2,1), I^2 = 1 makes (1 + e123) reverse(1 + e123) = 0; A mixes
    # parities, so "null versor has no inverse" named the wrong object
    alg = Algebra(2, 1)
    A = alg.scalar(1.0) + alg.blade((1, 2, 3))
    with pytest.raises(NotInvertible, match=r"^A reverse\(A\) is null, so A has no inverse: 1 \+ 1\*e123$"):
        A.inverse()
    with pytest.raises(NotInvertible, match="^A reverse"):
        alg.zero().inverse()
    # the versor route keeps its text: e1 + e3 is a null vector
    with pytest.raises(NotInvertible, match="^null versor has no inverse"):
        algebra._checked_inverse(alg.vector((1.0, 0.0, 1.0)), True)


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
def test_an_inverse_is_two_sided(p, q):
    # whenever inverse() returns, A A^-1 = A^-1 A = 1. Both products are
    # formed in the twin; the prune drops coefficients of A^-1 at or below
    # the tolerance, which moves each coefficient of them by at most
    # tol * |A|_1, with |.|_1 the sum of the absolute coefficients
    alg = Algebra(p, q)
    exact = algebra._twin(alg)
    one = exact.scalar(1.0)
    rng = random.Random(f"two-sided inverse {p},{q}")
    versors = [gen.rand_versor(alg, rng, rng.randrange(1, alg.n + 1)) for _ in range(6)]
    # a + b e_S with |S| = 3 mod 4: mixed parity, and A reverse(A) = a^2 - b^2 e_S^2
    mixed = [alg.multivector({(): gen.rand_coeff(rng), b: gen.rand_coeff(rng)})
             for b in alg.basis_blades() if len(b) & 3 == 3]
    sums = [gen.rand_mv(alg, rng) for _ in range(12)]
    for i, A in enumerate(versors + mixed + sums):
        A = A * 10.0 ** rng.uniform(-3, 3)
        try:
            inverse = A.inverse()
        except (GradeError, NotInvertible):
            assert i >= len(versors + mixed), A  # only a random sum may be refused
            continue
        a, b = exact.multivector(A.terms), exact.multivector(inverse.terms)
        size = sum(map(abs, A.terms.values()))
        bound = 1e-13 * size * sum(map(abs, inverse.terms.values())) + alg.tolerance * size
        assert (a * b).max_coeff_diff(one) <= bound, (A, inverse)
        assert (b * a).max_coeff_diff(one) <= bound, (A, inverse)


def test_an_inverse_below_the_tolerance_is_not_invertible():
    # 1e-11 e1 fell to the prune and inverse() returned 0
    with pytest.raises(NotInvertible, match="falls below the tolerance"):
        (E3.basis_vector(1) * 1e11).inverse()


def test_inverses_near_the_float_range_are_exact():
    # at tolerance 1e-300, |A|^2 = 9e-320 was subnormal and A^-1 off by
    # 1.1e-5, and 9e-340 underflowed to 0: "null versor has no inverse"
    alg = Algebra(3, 0, tolerance=1e-300)
    e1, e2 = alg.basis_vector(1), alg.basis_vector(2)
    assert (e1 * 3e-160).inverse() == Frame([e1 * 3e-160, e2]).reciprocal[0]
    assert (e1 * 3e-170).inverse() == e1 * (1 / 3e-170)
    # |A|^2 = 2e310 overflowed: "|A|^2 is not finite: inf"
    exact = Algebra(3, 0, tolerance=0.0)
    assert exact.vector([1e155, 1e155, 0.0]).inverse() == exact.vector([5e-156, 5e-156, 0.0])
    # a subnormal |A| raised a bare OverflowError in is_versor (2^1024), and
    # |A|^2 underflowed to 0 in inverse()
    tiny = exact.vector([6e-309, 0.0, 0.0])
    assert tiny.is_versor()
    assert tiny.inverse()[(1,)] == pytest.approx(1 / tiny[(1,)], rel=1e-15)
    with pytest.raises(NonFiniteError, match="^coefficient is not finite: inf$"):
        (exact.basis_vector(1) * 1e-310).inverse()  # 1e310 overflows


@pytest.mark.parametrize("call", [
    lambda v, e1, e2: gram_schmidt([v]),
    lambda v, e1, e2: Frame([v, e2]).reciprocal,
    lambda v, e1, e2: LinearMap(E2, [v, e2]).inverse(),
    lambda v, e1, e2: LinearMap(E2, [v, e2]).eigenblade_check(e1),
], ids=["gram_schmidt", "reciprocal", "map_inverse", "eigenblade_check"])
def test_a_vector_whose_norm_overflows_is_nonfinite(call):
    # |v| = 2.08e308 overflows though both coefficients are finite, and the
    # Hadamard bound of every wedge of v stayed inf at each rescaling: a
    # bare RecursionError
    v = E2.vector([1.7e308, 1.2e308])
    e1, e2 = E2.basis_vector(1), E2.basis_vector(2)
    with pytest.raises(NonFiniteError, match=r"^\|v\| is not finite: inf$"):
        call(v, e1, e2)


@pytest.mark.parametrize("A, value", [
    (E3.blade((2, 3), 1e160), "inf"),
    (Algebra(3, 1).vector([1e200, 0.0, 0.0, 1e200]), "nan"),  # inf - inf
], ids=["overflow", "nan"])
def test_an_overflowing_norm_or_scalar_product_is_nonfinite(A, value):
    # norm_squared() returned inf and nan, which the null tests read as zero
    message = rf"^coefficient is not finite: {value}$"
    with pytest.raises(NonFiniteError, match=message):
        A.norm_squared()
    with pytest.raises(NonFiniteError, match=message):
        A.scalar_product(A)


def test_volume_element():
    assert str(E3.I) == "1*e123"
    assert (E3.I * E3.I).scalar_part == -1.0
    assert str(E3.I_inverse) == "-1*e123"
    assert (STA.I * STA.I).scalar_part == -1.0
    assert (Algebra(2, 0).I * Algebra(2, 0).I).scalar_part == -1.0
    assert (Algebra(2, 2).I * Algebra(2, 2).I).scalar_part == 1.0
    assert (Algebra(4, 0).I * Algebra(4, 0).I).scalar_part == 1.0


def test_dual_examples():
    e12 = E3.blade((1, 2), 1.0)
    assert str(e12.dual()) == "1*e3"
    assert str(E3.scalar(1.0).dual()) == "-1*e123"
    assert e12.dual().inverse_dual() == e12
    assert e12.inverse_dual().dual() == e12


def test_dual_in_mixed_signature():
    rng = random.Random(5)
    for _ in range(20):
        m = STA.multivector({b: rng.uniform(-1, 1) for b in STA.basis_blades()})
        assert m.dual().inverse_dual().isclose(m, tol=1e-12)


# -- structure predicates ----------------------------------------------------------

def test_is_blade():
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    assert (e1 ^ e2).is_blade()
    assert (e1 + e2).is_blade()
    # the wedge-square test A^A = 0 excludes nonzero scalars
    assert not E3.scalar(2.0).is_blade()
    assert not (1 + e1).is_blade()
    assert E3.zero().is_blade()  # zero is the degenerate blade of any grade


@pytest.mark.parametrize("p, q", [(6, 0), (3, 3), (4, 2), (7, 0), (4, 3), (4, 4)])
def test_is_blade_needs_a_factorization_in_the_middle_grades(p, q):
    # e123 + e456 has A ^ A = 0 and A reverse(A) = 2, and used to pass
    alg = Algebra(p, q)
    rng = random.Random(f"middle grades {p},{q}")
    assert not (alg.blade((1, 2, 3)) + alg.blade((4, 5, 6))).is_blade()
    assert not (alg.blade((1, 2, 3)) + alg.blade((1, 5, 6))).is_blade()
    assert (alg.blade((1, 2, 3)) + alg.blade((1, 2, 6))).is_blade()
    for r in range(3, alg.n - 2):
        for _ in range(5):
            blade = gen.rand_blade(alg, rng, r)
            other = gen.rand_blade(alg, rng, r)
            assert blade.is_blade() and (blade * 1e3).is_blade()
            assert not (blade + other).is_blade()


def test_is_versor():
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    assert (e1 * (e1 + e2)).is_versor()
    assert e1.is_versor()
    assert not (1 + e1).is_versor()  # mixed parity
    assert not (1 + E3.blade((1, 2, 3), 1.0) * 0.5 + E3.blade((1, 2), 1.0)).is_versor()


def test_is_homogeneous():
    assert E3.blade((1, 2), 1.0).is_homogeneous()
    assert not (1 + E3.basis_vector(1)).is_homogeneous()
    assert E3.zero().is_homogeneous()


# -- exponential ----------------------------------------------------------------

def test_exp_of_plane_bivector():
    got = exp_bivector(E3.blade((1, 2), 1.0), math.pi / 2)
    assert got.scalar_part == pytest.approx(math.cos(math.pi / 4))
    assert got.coefficient((1, 2)) == pytest.approx(-math.sin(math.pi / 4))


def test_exp_of_boost_bivector():
    b = STA.blade((1, 2), 1.0)  # squares to +1
    assert (b * b).scalar_part == 1.0
    got = (b * 0.5).exp()
    assert got.scalar_part == pytest.approx(math.cosh(0.5))
    assert got.coefficient((1, 2)) == pytest.approx(math.sinh(0.5))


def test_exp_of_null_bivector():
    # (e1 + e3) is a null vector orthogonal to e2, so the wedge squares to zero
    alg = Algebra(2, 2)
    nil = (alg.basis_vector(1) + alg.basis_vector(3)) ^ alg.basis_vector(2)
    assert (nil * nil).max_coeff_diff(alg.zero()) < 1e-15
    assert nil.exp() == 1 + nil


def test_exp_series_matches_closed_form():
    # a non-blade bivector in (2,2) exercises the series path; tight pruning
    # tolerance so series accuracy is not masked by intermediate pruning
    alg = Algebra(2, 2, tolerance=1e-15)
    b = alg.blade((1, 2), 0.3) + alg.blade((3, 4), 0.7)
    got = b.exp()
    # the two commuting plane pieces exponentiate separately
    want = (alg.blade((1, 2), 0.3)).exp() * (alg.blade((3, 4), 0.7)).exp()
    assert got.isclose(want, tol=1e-12)


def test_exp_overflow_raises():
    boost = Algebra(3, 1).blade((1, 4), 1000.0)  # squares to +1e6, cosh(1000) overflows
    with pytest.raises(NonFiniteError, match="exp overflows"):
        boost.exp()
    # a non-blade bivector this large takes more halvings than a float can count
    alg = Algebra(1, 3)
    with pytest.raises(NonFiniteError):
        (alg.blade((1, 2), 1.5e308) + alg.blade((3, 4), 1e-5)).exp()


def test_exp_rejects_non_bivectors():
    with pytest.raises(GradeError):
        E3.basis_vector(1).exp()
    with pytest.raises(GradeError):
        (1 + E3.blade((1, 2), 1.0)).exp()
    assert E3.zero().exp() == E3.scalar(1.0)


@pytest.mark.parametrize("p, q, plane_sets", [
    (4, 0, [[(1, 2), (3, 4)]]),
    (2, 2, [[(1, 2), (3, 4)], [(1, 3), (2, 4)]]),
    (3, 3, [[(1, 2), (3, 4), (5, 6)], [(1, 4), (2, 5), (3, 6)]]),
])
def test_exp_of_commuting_planes_factors(p, q, plane_sets):
    # orthogonal planes commute, so exp of their sum is the product of the
    # closed-form exps; at the default tolerance the series once fell 1e-10
    # short of it
    alg = Algebra(p, q)
    rng = random.Random(p + 10 * q)
    for planes in plane_sets:
        for _ in range(10):
            parts = [alg.blade(plane, rng.uniform(-3, 3)) for plane in planes]
            want = alg.scalar(1.0)
            for part in parts:
                want = want * part.exp()
            got = sum(parts[1:], parts[0]).exp()
            scale = max(abs(c) for c in want.terms.values())
            assert got.max_coeff_diff(want) <= 1e-12 * scale


def _series_pruned_per_term(bivector):
    """exp as summed before: every term and partial sum pruned at the tolerance."""
    biggest = max(abs(c) for c in bivector.terms.values())
    halvings = 0
    while biggest > 0.5:
        biggest /= 2.0
        halvings += 1
    base = bivector * math.ldexp(1.0, -halvings)
    acc = term = bivector.algebra.scalar(1.0)
    for i in range(1, 25):
        term = term * base / float(i)
        acc = acc + term
    for _ in range(halvings):
        acc = acc * acc
    return acc


def _absolute_is_versor(a):
    """is_versor as stated before: the residue compared with the bare tolerance."""
    return (bool(a) and len({g & 1 for g in a.grades}) == 1
            and not (a * a.reverse()).grade_nonscalar())


def _absolute_is_blade(a):
    """is_blade as stated before: A ^ A and the residue against the bare tolerance."""
    return not a or (len(a.grades) == 1 and not (a ^ a)
                     and not (a * a.reverse()).grade_nonscalar())


@pytest.mark.parametrize("spread", [1.0, 10.0])
def test_exp_agrees_with_the_series_pruned_per_term(spread):
    compared = 0
    for p, q in ((4, 0), (3, 1), (2, 2), (5, 0), (4, 1), (3, 3)):
        alg = Algebra(p, q)
        rng = random.Random(p + 10 * q)
        planes = [b for b in alg.basis_blades() if len(b) == 2]
        for _ in range(20):
            bivector = alg.multivector({b: rng.uniform(-spread, spread) for b in planes})
            before = _series_pruned_per_term(bivector)
            if _absolute_is_versor(before):
                scale = max(1.0, max(abs(c) for c in before.terms.values()))
                assert bivector.exp().max_coeff_diff(before) <= 1e-8 * scale
                compared += 1
    assert compared  # the old series gave a rotor on some draws of each spread


def _unit_scale(mv):
    """mv scaled so that its squared coefficients sum to at most 1."""
    size = math.sqrt(sum(c * c for c in mv.terms.values()))
    return mv / (1.01 * size) if size > 1.0 else mv


SIGNATURES_UP_TO_6 = [(p, n - p) for n in range(1, 7) for p in range(n + 1)]


@pytest.mark.parametrize("p, q", SIGNATURES_UP_TO_6)
def test_blade_exps_duals_and_predicates_keep_their_terms(p, q):
    # the closed forms, I^-1, the duals and the blade and versor answers as
    # stated before B.B was formed once and I^-1 became +-I: the same terms in
    # the same order, bit for bit, for inputs whose squares sum to at most 1
    alg = Algebra(p, q)
    rng = random.Random(p + 10 * q)

    def same(got, want):
        return list(got.terms.items()) == list(want.terms.items())

    volume_inverse = alg.I.reverse() / alg.I.norm_squared()
    assert same(alg.I, alg.blade(range(1, alg.n + 1)))
    assert same(alg.I_inverse, volume_inverse)
    one = alg.scalar(1.0)
    for _ in range(20):
        a = gen.rand_mv(alg, rng)
        assert same(a.dual(), a * volume_inverse)
        assert same(a.inverse_dual(), a * alg.I)
        for candidate in (a, _unit_scale(a), _unit_scale(gen.rand_blade(alg, rng, 2)),
                          _unit_scale(gen.rand_versor(alg, rng, rng.randrange(1, 4))),
                          _unit_scale(gen.rand_blade(alg, rng, rng.randrange(1, alg.n + 1)))):
            if sum(c * c for c in candidate.terms.values()) <= 1.0:
                assert candidate.is_blade() == _absolute_is_blade(candidate)
                assert candidate.is_versor() == _absolute_is_versor(candidate)
        if alg.n < 2:
            continue
        x, y = gen.rand_vector(alg, rng), gen.rand_vector(alg, rng)
        for blade in (_unit_scale(x ^ y), alg.blade((1, 2), rng.uniform(-5, 5))):
            beta = (blade * blade).scalar_part
            w = math.sqrt(abs(beta))
            if beta > alg.tolerance:
                want = one * math.cosh(w) + blade * (math.sinh(w) / w)
            elif beta < -alg.tolerance:
                want = one * math.cos(w) + blade * (math.sin(w) / w)
            else:
                want = one + blade
            assert same(blade.exp(), want)
    if p and q:  # e1 + e_n is null, so its wedge with any e_k squares to 0
        null = alg.basis_vector(1) + alg.basis_vector(alg.n)
        for other in range(2, alg.n):
            plane = null ^ alg.basis_vector(other)
            assert same(plane.exp(), one + plane)


def _scale_free_answers(a):
    """is_blade(), is_versor() and whether inverse() succeeds."""
    try:
        a.inverse()
    except (NotInvertible, GradeError):
        return a.is_blade(), a.is_versor(), False
    return a.is_blade(), a.is_versor(), True


def _smallest_inverse_coefficient(a):
    """The smallest |coefficient| of A^-1; inf when A has no inverse."""
    try:
        return min(map(abs, a.inverse().terms.values()))
    except (NotInvertible, GradeError):
        return math.inf


@pytest.mark.parametrize("p, q", SIGNATURES_UP_TO_6)
def test_blade_versor_and_inverse_answers_do_not_depend_on_scale(p, q):
    # the prune hid the residues of a small A, and |A|^2 met the bare
    # tolerance below 1: 2^-30 e1 had no inverse, and a small enough sum of
    # blades passed is_blade
    alg = Algebra(p, q)
    rng = random.Random(f"scale {p},{q}")
    for _ in range(6):
        r = rng.randrange(1, alg.n + 1)
        for a in (gen.rand_blade(alg, rng, r),
                  gen.rand_versor(alg, rng, rng.randrange(1, 4)),
                  gen.rand_blade(alg, rng, r) + gen.rand_blade(alg, rng, r),
                  gen.rand_mv(alg, rng)):
            want, smallest = _scale_free_answers(a), _smallest_inverse_coefficient(a)
            for j in (-30, -20, -10, 10, 30, *rng.sample(range(-29, 30), 4)):
                scaled = a * math.ldexp(1.0, j)
                # no coefficient of A or of A^-1 falls to the prune
                if (len(scaled.terms) == len(a.terms)
                        and math.ldexp(smallest, -j) > alg.tolerance):
                    assert _scale_free_answers(scaled) == want, (a, j)


def test_rotor_rotates_by_twice_the_half_angle():
    rng = random.Random(13)
    for _ in range(10):
        theta = rng.uniform(-math.pi, math.pi)
        r = exp_bivector(E3.blade((1, 2), 1.0), theta)
        e1 = E3.basis_vector(1)
        rotated = r * e1 * ~r
        assert rotated.coefficient((1,)) == pytest.approx(math.cos(theta))
        assert rotated.coefficient((2,)) == pytest.approx(math.sin(theta))


# -- text format ----------------------------------------------------------------

def test_str_canonical_form():
    m = 1 - 2 * E3.basis_vector(1) + E3.blade((1, 2), 0.5)
    assert str(m) == "1 - 2*e1 + 0.5*e12"


def test_str_sorts_by_grade_then_index():
    alg = Algebra(4, 0)
    m = alg.blade((2, 3), 1.0) + alg.blade((1, 4), 1.0)
    assert str(m) == "1*e14 + 1*e23"
    m2 = alg.scalar(1.0) - alg.blade((1, 2), 0.5) + alg.blade((1, 3, 4), 2.0)
    assert str(m2) == "1 - 0.5*e12 + 2*e134"


def test_str_leading_negative_and_zero():
    assert str(-E3.basis_vector(1)) == "-1*e1"
    assert str(E3.zero()) == "0"
    assert str(E3.scalar(-1.5)) == "-1.5"


def test_str_integral_coefficients_have_no_point():
    assert str(E3.scalar(3.0)) == "3"
    assert str(E3.blade((1,), -4.0)) == "-4*e1"
    assert str(E3.blade((1,), 0.25)) == "0.25*e1"


def test_str_two_digit_indices():
    alg = Algebra(11, 0, max_dimension=12)
    assert str(alg.blade((10, 11), 1.0)) == "1*e1011"


def test_repr_mentions_signature():
    assert repr(E3.basis_vector(1)) == "Multivector(Cl(3,0): 1*e1)"


# -- equality, hashing, immutability ----------------------------------------------

def test_multivector_equality_and_hash():
    a = 1 + E3.basis_vector(1)
    b = E3.multivector({(): 1.0, (1,): 1.0})
    assert a == b
    assert hash(a) == hash(b)
    assert a != 1 + E3.basis_vector(2)
    assert len({a, b}) == 1


def test_terms_returns_a_copy():
    m = 1 + E3.basis_vector(1)
    t = m.terms
    t[()] = 99.0
    assert m.scalar_part == 1.0


def test_coefficient_respects_index_order():
    m = E3.blade((1, 2), 2.0)
    assert m.coefficient((1, 2)) == 2.0
    assert m.coefficient((2, 1)) == -2.0
    assert m[(1, 2)] == 2.0


def test_number_coercion_in_arithmetic():
    e1 = E3.basis_vector(1)
    assert (1 + e1) - 1 == e1
    assert (e1 + 0.0) == e1
    with pytest.raises(TypeError):
        e1 + "x"
