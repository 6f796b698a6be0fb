import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltader import linalg, solver
from deltader.algebras import make_grassmann_envelope, make_special_linear, make_zassenhaus
from deltader.fields import NonInvertible, PrimeField, QuotientRing, Rationals, poly_mul
from deltader.linalg import (
    SpanSolver,
    base_field_roots,
    charpoly,
    dense_nullspace,
    dense_to_sparse,
    fraction_free_pivots,
    kernel_of_map,
    rref_dense,
    same_span,
    sparse_nullspace,
    sparse_rank,
    sparse_rref,
)
from deltader.superstd import load_fixture

from conftest import dense_gauss_nullspace, dense_vectors, gauss_coordinates, rebased


def random_matrix(F, rng, nrows, ncols):
    return [[F.sample(rng) for _ in range(ncols)] for _ in range(nrows)]


def test_nullspace_matches_textbook_gauss():
    rng = random.Random(3)
    for F in (Rationals(), PrimeField(7)):
        for _ in range(25):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            mat = random_matrix(F, rng, nr, nc)
            ours = dense_nullspace(mat, F)
            ref = dense_gauss_nullspace(F, mat, nc)
            assert len(ours) == len(ref)
            assert same_span(ours, ref, F)
            # every basis vector actually solves the system
            for v in ours:
                for row in mat:
                    s = F.zero()
                    for a, b in zip(row, v):
                        s = F.add(s, F.mul(a, b))
                    assert F.is_zero(s)


def test_rank_nullity():
    rng = random.Random(4)
    F = PrimeField(11)
    for _ in range(20):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        mat = random_matrix(F, rng, nr, nc)
        sparse = [
            {j: c for j, c in enumerate(row) if not F.is_zero(c)} for row in mat
        ]
        assert sparse_rank(sparse, F) + len(dense_nullspace(mat, F)) == nc


def test_span_solver_coordinates():
    """Over an RREF basis and a nullspace basis, a combination has the drawn
    coefficients as its coordinates, and a vector outside the span has none."""
    F = Rationals()
    rng = random.Random(5)
    vecs = [[F.sample(rng) for _ in range(5)] for _ in range(3)]
    coeffs = [Fraction(2), Fraction(-1, 3), Fraction(7)]
    for basis in (rref_dense(vecs, F), dense_nullspace(vecs, F)):
        span = SpanSolver(F, basis)
        assert span.dim == len(basis)
        target = combination(F, coeffs[: len(basis)], basis)
        assert span.coordinates(target) == coeffs[: len(basis)]
        assert span.contains(target)
        outside = [F.sample(rng) for _ in range(5)]
        assert gauss_coordinates(F, basis, outside) is None
        assert span.coordinates(outside) is None and not span.contains(outside)


def test_span_solver_rejects_unreduced_basis():
    """Each vector needs a column where it is 1 and every other vector 0."""
    F = Rationals()
    with pytest.raises(ValueError):
        SpanSolver(F, [[F.one(), F.one()], [F.zero(), F.one()]])
    with pytest.raises(ValueError):
        SpanSolver(F, [[Fraction(2), F.zero()]])


def test_rref_canonical():
    F = Rationals()
    a = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    b = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    assert rref_dense(a, F) == rref_dense(b, F) or same_span(
        rref_dense(a, F), rref_dense(b, F), F
    )
    # same span in different presentation -> identical canonical bases
    c = [[Fraction(3), Fraction(7)], [Fraction(5), Fraction(11)]]
    d = [[Fraction(8), Fraction(18)], [Fraction(-2), Fraction(-4)]]
    assert rref_dense(c, F) == rref_dense(d, F)


def test_charpoly_and_roots():
    F = Rationals()
    # companion-style matrix with eigenvalues 1, 2, 3
    mat = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(2), Fraction(0)],
        [Fraction(5), Fraction(0), Fraction(3)],
    ]
    cp = charpoly(F, mat)
    assert cp == [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    roots = base_field_roots(F, cp)
    assert sorted(roots) == [Fraction(1), Fraction(2), Fraction(3)]


def product(F, factors):
    f = [F.one()]
    for g in factors:
        f = poly_mul(F, f, [Fraction(c) for c in g])
    return f


def test_rational_roots_large_coefficients():
    # (5x - 6)(2x - 1)^2 (x^2 + 2^80 + 1): an 80-bit constant term, a double
    # root and an irreducible quadratic
    F = Rationals()
    f = product(F, [[-6, 5], [-1, 2], [-1, 2], [2**80 + 1, 0, 1]])
    assert base_field_roots(F, f) == [Fraction(1, 2), Fraction(6, 5)]


def test_rational_roots_seeded_products():
    F = Rationals()
    rng = random.Random(20261018)
    for _ in range(40):
        roots = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(rng.randint(0, 5))]
        factors = [[-r.numerator, r.denominator] for r in roots for _ in range(rng.randint(1, 2))]
        # x^2 - 2 and x^2 + 1 + a have no rational root
        factors.append(rng.choice([[-2, 0, 1], [1 + rng.randint(0, 2**40), 0, 1]]))
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 99))
        f = [c * scale for c in product(F, factors)]
        assert base_field_roots(F, f) == sorted(set(roots))


def test_charpoly_gfp():
    F = PrimeField(5)
    mat = [[F.coerce(2), F.zero()], [F.zero(), F.coerce(3)]]
    roots = base_field_roots(F, charpoly(F, mat))
    assert sorted(roots) == [2, 3]
    # a 0 x 0 matrix has the empty determinant 1
    assert charpoly(F, []) == [1]


def test_kernel_of_map():
    F = Rationals()
    rows = [
        [Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0)],
    ]  # e0 -> e1, e1 -> 0 (row convention)
    ker = kernel_of_map(rows, F)
    assert len(ker) == 1 and ker[0] == [Fraction(0), Fraction(1)]


def test_fraction_free_pivots_parametric():
    # rows with entries c0 + c1 * s: the matrix [[s, 1], [1, s]] has generic
    # rank 2 and drops rank exactly at s = 1 and s = -1
    F = Rationals()
    rows = [
        [[Fraction(0), Fraction(1)], [Fraction(1)]],
        [[Fraction(1)], [Fraction(0), Fraction(1)]],
    ]
    rank, pivots = fraction_free_pivots(F, rows, 2)
    assert rank == 2
    roots = set()
    for piv in pivots:
        roots.update(base_field_roots(F, piv))
    assert {Fraction(1), Fraction(-1)} <= roots


# ---------------------------------------------------------------------------
# block-by-block nullspaces

BLOCK_FIELDS = {
    "GF5": (PrimeField(5), list(range(5))),
    "GF7": (PrimeField(7), list(range(7))),
    "Q": (Rationals(), [Fraction(v) for v in (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7))]),
}


@st.composite
def block_diagonal_systems(draw):
    """A block-diagonal sparse system with shuffled rows and columns: blocks
    of 1 x 1 to 4 x 4 (a drawn entry may be absent or an explicit zero),
    empty rows, and columns in no row."""
    F, values = BLOCK_FIELDS[draw(st.sampled_from(sorted(BLOCK_FIELDS)))]
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=4))
    spare = draw(st.integers(0, 3))
    ncols = sum(k for _, k in shapes) + spare
    order = draw(st.permutations(range(ncols)))
    rows, start = [], 0
    for nrows, k in shapes:
        cols = order[start : start + k]
        start += k
        for _ in range(nrows):
            entries = [draw(st.sampled_from(values + [None])) for _ in cols]
            rows.append({c: v for c, v in zip(cols, entries) if v is not None})
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    return F, draw(st.permutations(rows)), ncols


@settings(derandomize=True, deadline=None, max_examples=300)
@given(block_diagonal_systems())
def test_block_nullspace_matches_textbook_gauss(system):
    F, rows, ncols = system
    dense = [[row.get(c, F.zero()) for c in range(ncols)] for row in rows]
    assert dense_vectors(F, sparse_nullspace(rows, ncols, F), ncols) == dense_gauss_nullspace(F, dense, ncols)


def unsplit_nullspace(rows, ncols, field, pinned=()):
    """The canonical nullspace basis from one RREF of all rows, with no
    pinning and no split (``linalg._rref``).  Each column of ``pinned``, a
    set that the solver fills as its rows stream, adds a row {c: 1}.  The
    vectors are sparse, as ``sparse_nullspace`` gives them."""
    rows = list(rows)
    rows += [{c: field.one()} for c in pinned]
    pivots = linalg._rref(rows, field)[0]
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = {c: field.one()}
        for r, row in pivots.items():
            if c in row:
                v[r] = field.neg(row[c])
        basis.append(v)
    return basis


BLOCK_SOLVES = {
    "env4(osp12/GF7)": (lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 4), 4),
    "sl4/Q": (lambda: make_special_linear(4, Rationals()), Fraction(1, 2)),
    "W12/GF5": (lambda: make_zassenhaus(5, 2), 3),
    # a dense basis: each system is one block, whose rows sparse_rref reorders
    "rebased sl3/GF7": (lambda: rebased(make_special_linear(3, PrimeField(7))), 4),
    "rebased W11/GF7": (lambda: rebased(make_zassenhaus(7, 1)), 4),
}


@pytest.mark.parametrize("name", list(BLOCK_SOLVES))
def test_block_solves_match_one_elimination(name, monkeypatch):
    make, half = BLOCK_SOLVES[name]
    alg = make()
    solves = [
        lambda: solver.solve_delta_derivations(alg, half),
        lambda: solver.solve_centroid(alg),
        lambda: solver.solve_quasiderivations(alg),
    ]
    got = [solve().to_json() for solve in solves]
    monkeypatch.setattr(solver, "sparse_nullspace", unsplit_nullspace)
    assert got == [solve().to_json() for solve in solves]


@st.composite
def dense_redundant_systems(draw):
    """A dense system over GF(7) or Q with more rows than columns and rank
    below the column count: every row is a combination of a few drawn rows."""
    F, values = BLOCK_FIELDS[draw(st.sampled_from(["GF7", "Q"]))]
    ncols = draw(st.integers(2, 9))
    base = [[draw(st.sampled_from(values)) for _ in range(ncols)] for _ in range(draw(st.integers(1, ncols - 1)))]
    rows = []
    for _ in range(draw(st.integers(ncols + 1, 2 * ncols + 2))):
        coefs = [draw(st.sampled_from(values)) for _ in base]
        dense = [F.zero()] * ncols
        for a, b in zip(coefs, base):
            dense = [F.add(x, F.mul(a, y)) for x, y in zip(dense, b)]
        rows.append({c: v for c, v in enumerate(dense) if not F.is_zero(v)})
    return F, rows, draw(st.permutations(range(len(rows))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(dense_redundant_systems())
def test_row_order_leaves_the_rref_unchanged(system):
    """``sparse_rref`` reorders each block's rows over a field; its RREF is
    the one elimination in the given order, or in any other, gives."""
    F, rows, perm = system
    rref = sparse_rref(rows, F)
    assert rref == linalg._rref(rows, F)[0]
    assert rref == linalg._rref([rows[i] for i in perm], F)[0]


@st.composite
def singleton_cascades(draw):
    """A system that one-entry rows mostly solve, with shuffled rows: unit
    rows pin columns of depth 0, and a row for each column of depth 1 to 3
    has its other entries in columns of lower depth, so it is left with one
    entry once those are pinned.  Any entry but the one at the column it
    pins may be an explicit zero.  Some rows are empty, and an unrelated
    block of rows on the other columns may also meet pinned columns."""
    F, values = BLOCK_FIELDS[draw(st.sampled_from(sorted(BLOCK_FIELDS)))]
    nonzero = [v for v in values if not F.is_zero(v)]
    ncols = draw(st.integers(1, 10))
    order = draw(st.permutations(range(ncols)))
    layers, start = [], 0
    for k in draw(st.lists(st.integers(1, 3), max_size=4)):
        layer = order[start : start + k]
        if layer:
            layers.append(layer)
            start += len(layer)
    rows = []
    for d, layer in enumerate(layers):
        lower = [c for lay in layers[:d] for c in lay]
        for col in layer:
            row = {col: draw(st.sampled_from(nonzero))}
            if d:
                for c in draw(st.lists(st.sampled_from(lower), min_size=1, max_size=3, unique=True)):
                    row[c] = draw(st.sampled_from(values))
            elif draw(st.booleans()):
                row.setdefault(draw(st.sampled_from(order)), F.zero())
            rows.append(row)
    pinned, free = order[:start], order[start:]
    for _ in range(draw(st.integers(0, 4)) if free else 0):
        cols = draw(st.lists(st.sampled_from(free + pinned), min_size=1, max_size=4, unique=True))
        rows.append({c: draw(st.sampled_from(values)) for c in cols})
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    return F, draw(st.permutations(rows)), ncols


@settings(derandomize=True, deadline=None, max_examples=300)
@given(singleton_cascades())
def test_pinned_nullspace_matches_one_elimination(system):
    F, rows, ncols = system
    dense = [[row.get(c, F.zero()) for c in range(ncols)] for row in rows]
    basis = sparse_nullspace(rows, ncols, F)
    assert basis == unsplit_nullspace(rows, ncols, F)
    assert dense_vectors(F, basis, ncols) == dense_gauss_nullspace(F, dense, ncols)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(singleton_cascades())
def test_pin_set_gives_the_basis_of_its_rows(system):
    """The one-entry unit rows handed to ``sparse_nullspace`` as a pin set
    of their columns, as a pointwise solver's assembler does with the rows
    it never builds, give the basis of the whole system, and the set is
    emptied once used."""
    F, rows, ncols = system
    unit = [len(row) == 1 and F.is_unit(*row.values()) for row in rows]
    pinned = {c for row, u in zip(rows, unit) if u for c in row}
    rest = [row for row, u in zip(rows, unit) if not u]
    assert sparse_nullspace(rest, ncols, F, pinned) == unsplit_nullspace(rows, ncols, F)
    assert not pinned


def test_pin_lets_go_of_a_row_whose_columns_are_all_pinned():
    """A row whose columns are all pinned when it reaches ``_pin`` says
    nothing more: it is not held while the rest of the stream is read."""

    class Row(dict):
        pass

    F = PrimeField(7)
    held = []

    def stream():
        yield {0: 1}
        yield {1: 3}
        row = Row({0: 2, 1: 5})
        ref = weakref.ref(row)
        yield row
        del row
        yield {2: 1, 3: 1}
        held.append(ref() is not None)
        yield {3: 4, 4: 1}

    pinned, rest = linalg._pin(stream(), F.is_unit)
    assert held == [False]
    assert pinned == {0, 1} and rest == [{2: 1, 3: 1}, {3: 4, 4: 1}]


P1, P2 = 2**31 - 1, 2147483629  # the first two primes of the lift over Q


@pytest.mark.parametrize("coef", [P1, P1 * P2, Fraction(-P2, P1)])
def test_coefficient_divisible_by_lift_prime_pins_its_column(coef):
    Q = Rationals()
    rows = [{0: Fraction(coef)}, {0: Fraction(5), 1: Fraction(-1, 3)}, {1: Fraction(2), 2: Fraction(7)}]
    assert linalg._pin(rows, Q.is_unit)[0] == {0, 1, 2}
    assert sparse_nullspace(rows, 4, Q) == [{3: 1}]
    assert sparse_nullspace(rows[:1], 2, Q) == unsplit_nullspace(rows[:1], 2, Q) == [{1: 1}]


T2 = QuotientRing(Rationals(), [0, 0, 1])  # Q[t]/(t^2), where t is a zero divisor
ONE_PLUS_T = T2.add(T2.one(), T2.t)


@pytest.mark.parametrize("rows", [[{0: T2.t}], [{1: T2.one()}, {0: T2.t, 1: ONE_PLUS_T}]])
def test_zero_divisor_left_with_one_entry_is_reported(rows):
    assert linalg._pin(rows, T2.is_unit)[0] == {c for row in rows[:-1] for c in row}
    with pytest.raises(NonInvertible):
        sparse_nullspace(rows, 2, T2)


def test_unit_of_quotient_ring_pins_its_column():
    rows = [{0: ONE_PLUS_T}, {0: T2.t, 1: T2.one()}]
    assert linalg._pin(rows, T2.is_unit)[0] == {0, 1}
    assert sparse_nullspace(rows, 3, T2) == unsplit_nullspace(rows, 3, T2) == [{2: T2.one()}]


# ---------------------------------------------------------------------------
# the elimination step: sparse_rref (through sparse_nullspace), and SpanSolver
# on its RREF, against the dense textbook elimination of conftest

SQRT2 = QuotientRing(Rationals(), [-2, 0, 1])  # Q[t]/(t^2 - 2), a field
# GF(7)[t]/(t^2 - 3), a field as 3 is not a square mod 7: characteristic 7,
# but its payloads are tuples, so the step must not take it for GF(7)
SQRT3_GF7 = QuotientRing(PrimeField(7), [-3, 0, 1])
STEP_FIELDS = {
    "GF5": PrimeField(5),
    "GF7": PrimeField(7),
    "GF(2^31-1)": PrimeField(2**31 - 1),
    "Q": Rationals(),
    "Q(sqrt 2)": SQRT2,
    "GF7(sqrt 3)": SQRT3_GF7,
}
Q_VALUES = [Fraction(v) for v in (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7), Fraction(10**12 + 1, 3))]


def scalars(F):
    """Drawn scalars of F: residues, with 0, 1 and -1 favoured, over GF(p);
    ``Q_VALUES`` over Q; over a quadratic quotient ring 0 or a pair of
    drawn scalars of its base."""
    if isinstance(F, PrimeField):
        return st.sampled_from([0, 1, F.p - 1]) | st.integers(0, F.p - 1)
    if isinstance(F, Rationals):
        return st.sampled_from(Q_VALUES)
    return st.just(F.zero()) | st.tuples(scalars(F.base), scalars(F.base))


def combination(F, coeffs, vecs):
    out = [F.zero()] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        out = [F.add(x, F.mul(c, y)) for x, y in zip(out, v)]
    return out


@st.composite
def step_vectors(draw, F, scalar):
    """Drawn dense vectors, copies of some of them and combinations of them
    (which reduce to zero)."""
    ncols = draw(st.integers(1, 7))
    vecs = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols), min_size=1, max_size=6))
    vecs += [vecs[i] for i in draw(st.lists(st.integers(0, len(vecs) - 1), max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        vecs.append(combination(F, draw(st.lists(scalar, min_size=len(vecs), max_size=len(vecs))), vecs))
    return vecs


@st.composite
def step_systems(draw):
    """Dense vectors over a field of ``STEP_FIELDS``: those of
    ``step_vectors``, or a direct sum of two such sets on disjoint
    columns, with a cascade of vectors that pin their columns (a one-entry
    vector, then vectors left with one entry once the columns before them
    are pinned), shuffled, and their sparse rows, in which a drawn entry
    may be absent or an explicit zero."""
    F = STEP_FIELDS[draw(st.sampled_from(sorted(STEP_FIELDS)))]
    scalar = scalars(F)
    vecs = draw(step_vectors(F, scalar))
    if draw(st.booleans()):
        more = draw(step_vectors(F, scalar))
        n, m = len(vecs[0]), len(more[0])
        vecs = [v + [F.zero()] * m for v in vecs] + [[F.zero()] * n + w for w in more]
    ncols = len(vecs[0])
    pinned = []
    for c in draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=3)):
        v = [F.zero()] * ncols
        for j in pinned:
            v[j] = draw(scalar)
        v[c] = draw(scalar.filter(lambda x: not F.is_zero(x)))
        vecs.append(v)
        pinned.append(c)
    vecs = draw(st.permutations(vecs))
    rows = [
        {c: x for c, x in enumerate(v) if not F.is_zero(x) or draw(st.booleans())}
        for v in vecs
    ]
    targets = [combination(F, draw(st.lists(scalar, min_size=len(vecs), max_size=len(vecs))), vecs)]
    targets.append(draw(st.lists(scalar, min_size=ncols, max_size=ncols)))
    return F, vecs, rows, targets


def columns(vecs, ncols):
    """The matrix whose columns are the vectors, as a list of rows."""
    return [[v[r] for v in vecs] for r in range(ncols)]


@settings(derandomize=True, deadline=None, max_examples=450)
@given(step_systems())
def test_elimination_step_matches_textbook_gauss(system):
    F, vecs, rows, targets = system
    ncols = len(vecs[0])
    null = dense_gauss_nullspace(F, vecs, ncols)
    assert dense_vectors(F, sparse_nullspace(rows, ncols, F), ncols) == null
    # the RREF, read off the textbook basis: the vector of free column c has
    # 1 at c, and at each pivot p < c minus the entry of row p at c
    free = [max(c for c, x in enumerate(v) if not F.is_zero(x)) for v in null]
    rref = {p: {p: F.one()} for p in range(ncols) if p not in free}
    for c, v in zip(free, null):
        for p, row in rref.items():
            if not F.is_zero(v[p]):
                row[c] = F.neg(v[p])
    assert sparse_rref(rows, F) == rref
    # coordinates over the canonical basis of the vectors' span: None
    # exactly when the textbook elimination puts w outside it
    basis = rref_dense(vecs, F)
    span = SpanSolver(F, basis)
    rank = len(vecs) - len(dense_gauss_nullspace(F, columns(vecs, ncols), len(vecs)))
    assert span.dim == len(basis) == rank
    for w in vecs + targets:
        coords = span.coordinates(w)
        assert coords == gauss_coordinates(F, basis, w)
        if coords is not None:
            assert combination(F, coords, basis) == w if basis else all(F.is_zero(x) for x in w)


SPAN_FIELDS = {"GF5": PrimeField(5), "GF7": PrimeField(7), "Q": Rationals(), "Q(sqrt 2)": SQRT2}


@st.composite
def reduced_spans(draw):
    """A field, a reduced basis (the ``sparse_nullspace`` basis of drawn
    rows, or the ``rref_dense`` basis of drawn vectors), drawn coefficients
    and a drawn vector."""
    F = SPAN_FIELDS[draw(st.sampled_from(sorted(SPAN_FIELDS)))]
    scalar = scalars(F)
    ncols = draw(st.integers(1, 6))
    vecs = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols), max_size=5))
    if draw(st.booleans()):
        basis = dense_vectors(F, sparse_nullspace(dense_to_sparse(vecs, F), ncols, F), ncols)
    else:
        basis = rref_dense(vecs, F)
    coeffs = draw(st.lists(scalar, min_size=len(basis), max_size=len(basis)))
    return F, basis, coeffs, draw(st.lists(scalar, min_size=ncols, max_size=ncols))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(reduced_spans())
def test_span_solver_reads_coordinates_off_reduced_bases(case):
    """A drawn combination has the drawn coefficients as its coordinates; a
    drawn vector has the textbook elimination's, or None exactly when that
    puts it outside the span."""
    F, basis, coeffs, other = case
    span = SpanSolver(F, basis)
    target = combination(F, coeffs, basis) if basis else [F.zero()] * len(other)
    assert span.coordinates(target) == coeffs
    assert span.coordinates(other) == gauss_coordinates(F, basis, other)
    # the same basis and queries as sparse vectors give the same answers
    sparse = SpanSolver(F, dense_to_sparse(basis, F))
    for w in (target, other):
        assert sparse.coordinates(dense_to_sparse([w], F)[0]) == span.coordinates(w)


@pytest.mark.parametrize(
    "vectors",
    [[[T2.t, T2.one()]], [[T2.one(), T2.one()], [T2.one(), ONE_PLUS_T]]],
    ids=["pivot-t", "reduces-to-t"],
)
def test_zero_divisor_pivot_raises(vectors):
    """Over Q[t]/(t^2) a row whose least entry is t (at once, or once the row
    before is subtracted) has no unit to scale its pivot by."""
    with pytest.raises(NonInvertible):
        sparse_rref(dense_to_sparse(vectors, T2), T2)


def test_quotient_ring_rows_keep_their_order():
    """In ``_fill_order`` order these rows solve: {0: 1, 1: 1} comes first and
    leaves the other row 1 - t, a unit, at column 1.  Over a quotient ring
    ``sparse_rref`` keeps the given order, which meets t at column 0."""
    rows = [{0: T2.t, 1: T2.one(), 2: T2.one()}, {0: T2.one(), 1: T2.one()}]
    ordered = list(rows)
    linalg._fill_order(ordered)
    assert len(linalg._rref(ordered, T2)[0]) == 2
    with pytest.raises(NonInvertible):
        sparse_rref(rows, T2)
    with pytest.raises(NonInvertible):
        sparse_nullspace(rows, 3, T2)


# ---------------------------------------------------------------------------
# the split and the fill order: ``_blocks`` against a plain union-find, and
# ``_fill_order`` against the sort key it replaces


def plain_blocks(rows):
    """The blocks of the rows as indices into them: a plain union-find over
    every entry, with no early stop, each block in the order of its first
    row and keeping its rows' order."""
    parent = {}

    def find(c):
        while parent.setdefault(c, c) != c:
            c = parent[c]
        return c

    for row in rows:
        first, *rest = row
        for c in rest:
            a, b = find(first), find(c)
            if a != b:
                parent[b] = a
    blocks = {}
    for k, row in enumerate(rows):
        blocks.setdefault(find(next(iter(row))), []).append(k)
    return list(blocks.values())


def block_indices(rows, blocks):
    """The blocks of ``_blocks`` as indices into the rows, by identity."""
    at = {id(row): k for k, row in enumerate(rows)}
    return [[at[id(row)] for row in block] for block in blocks]


def check_blocks(rows):
    """``_blocks`` gives the plain union-find's partition and order, and a
    system of one block on several columns, which a join makes one, as the
    input list itself."""
    blocks = linalg._blocks(rows)
    want = plain_blocks(rows)
    assert block_indices(rows, blocks) == want
    if len(want) == 1 and len(set().union(*rows)) > 1:
        assert blocks[0] is rows
    return want


@st.composite
def split_systems(draw):
    """Rows as ``_pin`` leaves them, none empty, on 1 to 5 disjoint sets of
    shuffled columns: each row has 1 to 4 entries in one set, and a few rows
    bridge two sets.  The rows are shuffled, so a set may split into several
    blocks, join another, or be joined whole only by its last row."""
    order = draw(st.permutations(range(draw(st.integers(1, 30)))))
    cuts = sorted(draw(st.lists(st.integers(1, len(order)), max_size=4, unique=True)))
    groups = [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)]) if a < b]
    rows = []
    for group in groups:
        for _ in range(draw(st.integers(1, 2 * len(group)))):
            cols = draw(st.lists(st.sampled_from(group), min_size=1, max_size=4, unique=True))
            rows.append({c: 1 for c in cols})
    for _ in range(draw(st.integers(0, 2)) if len(groups) > 1 else 0):
        a, b = draw(st.lists(st.sampled_from(range(len(groups))), min_size=2, max_size=2, unique=True))
        rows.append({draw(st.sampled_from(groups[a])): 1, draw(st.sampled_from(groups[b])): 1})
    return draw(st.permutations(rows))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(split_systems())
def test_blocks_match_a_plain_union_find(rows):
    check_blocks(rows)


def test_blocks_of_a_dense_system_are_the_input_list():
    """Every row of this system meets every column but one, so its first two
    rows join all of them: the rows come back as the input list, one
    block in input order, however many rows follow."""
    m = 9
    rows = [{c: 1 for c in range(m) if c != k % m} for k in range(3 * m)]
    assert check_blocks(rows) == [list(range(3 * m))]
    # one column: one block, with no join
    check_blocks([{5: 1}, {5: 2}])
    assert linalg._blocks([]) == []


SPLIT_SOLVES = {
    # standard bases, as in the pointwise workload: many blocks
    "W11/GF7": lambda: make_zassenhaus(7, 1),
    "W12/GF5": lambda: make_zassenhaus(5, 2),
    "sl3/Q": lambda: make_special_linear(3, Rationals()),
    "osp12/GF7": lambda: load_fixture("osp12_gf7.json"),
    "env4(osp12/GF7)": lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 4),
    # a dense basis: one block
    "rebased W11/GF7": lambda: rebased(make_zassenhaus(7, 1)),
}


@pytest.mark.parametrize("name", list(SPLIT_SOLVES))
def test_blocks_of_solver_systems_match_a_plain_union_find(name, monkeypatch):
    """The rows that pointwise solves hand to ``_blocks`` split as the plain
    union-find splits them: into many blocks on a standard basis, and into
    one, the input list, on a dense basis."""
    alg = SPLIT_SOLVES[name]()
    F = alg.field
    seen = []
    blocks = linalg._blocks

    def spy(rows):
        seen.append(list(rows))
        return blocks(rows)

    monkeypatch.setattr(linalg, "_blocks", spy)
    solver.solve_delta_derivations(alg, F.coerce("1/2"))
    solver.solve_centroid(alg)
    solver.solve_quasiderivations(alg)
    monkeypatch.undo()
    counts = [len(check_blocks(rows)) for rows in seen]
    if name.startswith("rebased"):
        assert counts == [1] * len(seen)
    else:
        assert max(counts) > 1


@st.composite
def fill_rows(draw):
    """Nonempty rows on a few columns, many sharing a least column and a
    length, so that ties are common."""
    cols = st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True)
    return [{c: 1 for c in draw(cols)} for _ in range(draw(st.integers(0, 30)))]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fill_rows())
def test_fill_order_is_the_stable_sort_by_least_column_then_length(rows):
    """Two stable sorts give the one sort by the key (-min(row), len(row)),
    ties in their input order."""
    ordered = list(rows)
    linalg._fill_order(ordered)
    want = sorted(range(len(rows)), key=lambda k: (-min(rows[k]), len(rows[k])))
    assert block_indices(rows, [ordered]) == [want]


@pytest.mark.parametrize("dense", [True, False], ids=["one-block", "two-blocks"])
def test_quotient_ring_blocks_keep_the_input_order(dense, monkeypatch):
    """Over a quotient ring, here Q(sqrt 2), each block reaches ``_rref`` in
    its rows' input order, whether the system is one dense block or
    splits; over GF(7) the same pattern arrives in ``_fill_order``."""
    one, r2 = SQRT2.one(), SQRT2.t
    rows = [{0: one, 1: r2, 2: one}, {1: one, 2: r2}, {0: r2, 2: one}, {2: one, 1: one}]
    if not dense:
        rows += [{3: one, 4: r2}, {4: one, 3: one}]
    seen = []
    rref = linalg._rref

    def spy(block, F):
        seen.append(block)
        return rref(block, F)

    monkeypatch.setattr(linalg, "_rref", spy)
    sparse_rref(rows, SQRT2)
    assert block_indices(rows, seen) == plain_blocks(rows)
    seen.clear()
    gf7 = [{c: 1 for c in row} for row in rows]
    sparse_rref(gf7, PrimeField(7))
    want = []
    for block in plain_blocks(gf7):
        ordered = [gf7[k] for k in block]
        linalg._fill_order(ordered)
        want.append(ordered)
    assert block_indices(gf7, seen) == block_indices(gf7, want) != plain_blocks(gf7)
