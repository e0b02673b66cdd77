import tracemalloc

import numpy as np
import pytest

from augdual import linop
from augdual.linop import (
    SPARSE_APPLY_FRACTION,
    BlockSum,
    Dense,
    Point,
    SamplingMask,
)

import reference
from reference import adjoint_consistency_check, random_point


def test_dense_cannot_be_subclassed():
    # Its maps, Gram rows and Gram norm all read its matrix; a subclass that
    # overrode one map would leave the others on the matrix.
    with pytest.raises(TypeError, match="subclasses LinearOperator"):
        class Scaled(Dense):
            pass


def test_point_vector_roundtrip():
    p = Point.vector([1.0, -2.0, 3.0])
    assert p.data.shape == (3,)
    assert np.array_equal(p.data, [1.0, -2.0, 3.0])
    assert not p.data.flags.writeable


def test_point_matrix_roundtrip():
    m = np.arange(6.0).reshape(2, 3)
    p = Point.matrix(m)
    assert p.data.shape == (2, 3)
    assert np.array_equal(p.data, m)


def test_point_pair_roundtrip():
    a = np.ones((2, 2))
    b = -np.ones((2, 2))
    p = Point.pair(a, b)
    assert p.data.shape == (2, 2, 2)
    assert np.array_equal(p.data[0], a)
    assert np.array_equal(p.data[1], b)


def test_point_owns_its_array():
    # A later write to the caller's array cannot reach the immutable point.
    a = np.full(4, 2.0)
    p = Point(a)
    a[0] = np.nan
    assert np.array_equal(p.data, np.full(4, 2.0)) and p.norm() == 4.0
    assert a.flags.writeable and not p.data.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_and_dense_reject_non_finite_entries(bad):
    a = np.ones((2, 3))
    a[1, 2] = bad
    with pytest.raises(ValueError, match="point entries must be finite"):
        Point(a)
    with pytest.raises(ValueError, match="dense operator entries must be finite"):
        Dense(a)


def test_each_rule_rejects_an_integer_too_large_for_a_float():
    # 10**5000 has more digits than Python converts to text.
    for big, digits in ((10**400, 401), (10**5000, 5001)):
        assert linop._is_integer(big) and linop._is_number(big)
        with pytest.raises(ValueError, match="point entries must be finite"):
            Point([1.0, big])
        with pytest.raises(ValueError, match="dense operator entries must be finite"):
            Dense([[1.0, big]])
        with pytest.raises(ValueError, match=f"lam must be finite and positive, got an "
                                             f"integer of {digits} digits$"):
            linop._positive("lam", big)
        with pytest.raises(KeyError, match=f"tau must be finite and positive, got a "
                                           f"negative integer of {digits} digits"):
            linop._positive("tau", -big, KeyError)


def test_error_messages_show_a_value_in_at_most_forty_characters():
    for digits in range(1, 200):
        assert len(linop._shown(10 ** (digits - 1))) <= 40
        assert len(linop._shown(1 - 10**digits)) <= 40
    # An integer is never cut: up to 39 digits it is its repr, beyond its size.
    for digits in (40, 41, 48, 100, 401, 4300, 4301, 5001):
        assert linop._shown(10 ** (digits - 1)) == f"an integer of {digits} digits"
        assert linop._shown(1 - 10**digits) == f"a negative integer of {digits} digits"
    assert linop._shown("x" * 50) == "'" + "x" * 36 + "..."
    for value in (np.int64(-3), [0.4], True, "0.4", 10**39 - 1, 1 - 10**39):
        assert linop._shown(value) == repr(value)


def test_rules_accept_numpy_scalars_but_no_bools():
    for value in (3, np.int64(3), np.uint8(3)):
        assert linop._is_integer(value) and linop._is_number(value)
    for value in (3.0, np.float32(3.0), np.float64(3.0)):
        assert linop._is_number(value) and not linop._is_integer(value)
    for value in (True, np.bool_(True), "3", None, [3]):
        assert not linop._is_number(value) and not linop._is_integer(value)
    positive = linop._positive("tau", np.int64(3))
    assert positive == 3.0 and type(positive) is float


def test_point_arithmetic_and_norm():
    # A Point keeps only the difference and the norm, for recovery errors.
    p = Point.vector([3.0, 4.0])
    q = Point.vector([1.0, 0.0])
    assert np.array_equal((p - q).data, [2.0, 4.0])
    assert p.norm() == 5.0
    for name in ("__add__", "__mul__", "__rmul__", "__neg__", "dot", "zeros"):
        assert not hasattr(Point, name)


def test_point_tag_mismatch_raises():
    p = Point.vector([1.0, 2.0])
    q = Point.vector([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        _ = p - q
    with pytest.raises(ValueError):
        _ = Point.matrix([[1.0, 2.0]]) - Point.vector([1.0, 2.0])
    with pytest.raises(ValueError):
        Point(np.zeros((3, 2, 2)))


def test_dense_apply_adjoint():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    op = Dense(a)
    x = Point.vector([1.0, -1.0])
    assert np.allclose(op.apply(x).data, a @ [1.0, -1.0])
    y = np.array([1.0, 0.0, 2.0])
    assert np.allclose(op.adjoint(Point.vector(y)).data, a.T @ y)


def test_sampling_mask_apply_adjoint():
    given = np.array([[0, 1], [1, 2]])
    op = SamplingMask((2, 3), given)
    # Omega is kept as a read-only integer (k, 2) copy of the caller's pairs.
    assert op.indices.dtype.kind == "i" and len(op.indices) == 2
    assert not op.indices.flags.writeable
    given[0] = (1, 0)
    assert np.array_equal(op.indices, [[0, 1], [1, 2]])
    assert np.array_equal(SamplingMask((2, 3), ((0, 1), (1, 2))).indices, op.indices)
    m = np.arange(6.0).reshape(2, 3)
    out = op.apply(Point.matrix(m))
    assert np.array_equal(out.data, [1.0, 5.0])
    back = op.adjoint(Point.vector([7.0, 9.0])).data
    expected = np.zeros((2, 3))
    expected[0, 1] = 7.0
    expected[1, 2] = 9.0
    assert np.array_equal(back, expected)


def test_sampling_mask_rejects_duplicates_and_bounds():
    bad = [
        ((0, 0), (0, 0)),  # duplicate pair
        ((2, 0),),
        ((0, 2),),
        ((-1, 0),),
        ((0, -1),),
        (),
        np.zeros((0, 2), dtype=int),
        np.array([[0.0, 1.0]]),
        np.array([[False, True]]),
        np.array([[0, 1, 1]]),  # (k, 3)
        np.array([0, 1]),  # flat, not (k, 2)
    ]
    for indices in bad:
        with pytest.raises(ValueError):
            SamplingMask((2, 2), indices)
    # The shape is two positive integers: no truncated floats or bools.
    for shape in ((2.5, 3), (2.0, 3), (True, 3), (2, False), (0, 3), (-2, 3), (2,),
                  (2, 3, 1), 6, "23"):
        with pytest.raises(ValueError, match="sampling shape"):
            SamplingMask(shape, ((0, 0),))
    assert SamplingMask([np.int64(2), 3], ((0, 0),)).shape == (2, 3)


def test_blocksum_rejects_a_shape_that_is_not_two_positive_integers():
    for shape in ((2.5, True), (2.5, 3), (2.0, 3), (True, 3), (0, -3), (0, 3), (-2, 3),
                  (2,), (2, 3, 1), 6, "23"):
        with pytest.raises(ValueError, match="block-sum shape"):
            BlockSum(shape)
    assert BlockSum([np.int64(2), 3]).shape == (2, 3)
    assert type(BlockSum((np.int64(2), 3)).shape[0]) is int


@pytest.mark.parametrize("make", [SamplingMask, BlockSum])
def test_a_shape_is_echoed_by_digit_count_and_must_fit_numpy_index(make):
    # No array is built to find out; an integer of 5001 digits is echoed by
    # its digit count, not converted to text.
    name = "sampling" if make is SamplingMask else "block-sum"
    build = (lambda shape: make(shape, [[0, 0]])) if make is SamplingMask else make
    with pytest.raises(ValueError, match=f"{name} shape \\(a negative integer of 5001 "
                                         "digits, 2\\) is not two positive integers"):
        build((-10**5000, 2))
    for shape in ((10**400, 2), (2**32, 2**32)):
        with pytest.raises(ValueError, match=f"{name} shape .* has more elements than "
                                             "numpy can index"):
            build(shape)
    with pytest.raises(ValueError, match="integer of 401 digits"):
        build((2, 10**400))
    assert build((2**31, 2**31)).shape == (2**31, 2**31)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (5,), (2, 3, 4)])
def test_dense_rejects_a_matrix_that_is_not_two_positive_dimensions(shape):
    with pytest.raises(ValueError, match="dense shape"):
        Dense(np.zeros(shape))


def test_blocksum_apply_adjoint():
    op = BlockSum((2, 2))
    l = np.eye(2)
    s = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = op.apply(Point.pair(l, s))
    assert np.array_equal(out.data, l + s)
    y = np.arange(4.0).reshape(2, 2)
    la, sa = op.adjoint(Point.matrix(y)).data
    assert np.array_equal(la, y)
    assert np.array_equal(sa, y)


@pytest.mark.parametrize(
    "op",
    [
        Dense(np.random.default_rng(0).standard_normal((4, 6))),
        SamplingMask((3, 4), ((0, 0), (1, 1), (2, 3), (0, 3))),
        BlockSum((3, 3)),
    ],
    ids=["dense", "mask", "blocksum"],
)
def test_adjoint_identity(op):
    gap = adjoint_consistency_check(op, trials=50, seed=123)
    assert gap <= 1e-12


def test_random_point_shapes():
    rng = np.random.default_rng(0)
    assert random_point((4,), rng).data.shape == (4,)
    assert random_point((2, 5), rng).data.shape == (2, 5)
    assert random_point((2, 3, 3), rng).data.shape == (2, 3, 3)


def test_apply_shape_check():
    op = Dense(np.eye(3))
    with pytest.raises(ValueError):
        op.apply(Point.vector([1.0, 2.0]))
    with pytest.raises(ValueError):
        op.adjoint(Point.vector(np.zeros(2)))


def _sparse_vector(n, nnz, rng):
    v = np.zeros(n)
    v[rng.choice(n, size=nnz, replace=False)] = rng.standard_normal(nnz)
    return v


def _cutoff(n):
    return int(SPARSE_APPLY_FRACTION * n)


@pytest.mark.parametrize("shape", [(60, 250), (250, 60)], ids=["wide", "tall"])
@pytest.mark.parametrize("which", ["zero", "one", "cutoff", "cutoff+1", "full"])
def test_dense_sparse_apply_matches_full_product(shape, which):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(shape)
    n = shape[1]
    nnz = {"zero": 0, "one": 1, "cutoff": _cutoff(n),
           "cutoff+1": _cutoff(n) + 1, "full": n}[which]
    v = _sparse_vector(n, nnz, rng)
    got = Dense(a).apply(Point.vector(v)).data
    want = a @ v
    assert got.shape == (shape[0],)
    # At nnz = 0 the bound demands exact zeros.
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_dense_apply_counts_negative_zeros_as_zero():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((40, 200))
    v = np.full(200, -0.0)
    assert np.array_equal(Dense(a).apply(Point.vector(v)).data, np.zeros(40))
    # Only the two true nonzeros count toward the support, so the sparse
    # path runs and reads just their columns.
    v[[5, 150]] = [1.5, -2.0]
    got = Dense(a).apply(Point.vector(v)).data
    assert np.array_equal(got, a[:, [5, 150]] @ np.array([1.5, -2.0]))
    assert np.linalg.norm(got - a @ v) <= 1e-14 * np.linalg.norm(a @ v)


def test_adjoint_identity_with_sparse_x(monkeypatch):
    dense_point = reference.random_point

    def sparse_point(shape, rng):
        data = dense_point(shape, rng).data.copy()
        data[rng.random(data.shape) >= 0.03] = 0.0
        return Point(data)

    monkeypatch.setattr(reference, "random_point", sparse_point)
    op = Dense(np.random.default_rng(14).standard_normal((50, 300)))
    assert adjoint_consistency_check(op, trials=50, seed=123) <= 1e-12


@pytest.mark.parametrize("shape", [(60, 250), (250, 60), (10, 250)],
                         ids=["wide", "tall", "flat"])
@pytest.mark.parametrize("which", ["zero", "one", "cutoff", "cutoff+1", "m-1", "m"])
def test_dense_apply_normal_matches_adjoint_of_apply(shape, which, monkeypatch):
    rng = np.random.default_rng(17)
    a = rng.standard_normal(shape)
    m, n = shape
    nnz = {"zero": 0, "one": 1, "cutoff": _cutoff(n), "cutoff+1": _cutoff(n) + 1,
           "m-1": min(m, n) - 1, "m": min(m, n)}[which]
    x = Point.vector(_sparse_vector(n, nnz, rng))
    op = Dense(a)
    want = op.adjoint(op.apply(x)).data
    adjoints = 0
    adjoint = Dense._adjoint

    def counting_adjoint(self, y):
        nonlocal adjoints
        adjoints += 1
        return adjoint(self, y)

    monkeypatch.setattr(Dense, "_adjoint", counting_adjoint)
    normal = op.normal_map()
    ax, atax = normal(x.data)
    assert np.array_equal(ax, op.apply(x).data)
    assert atax.shape == (n,)
    # At nnz = 0 the bound demands exact zeros.
    assert np.linalg.norm(atax - want) <= 1e-13 * np.linalg.norm(want)
    # The Gram rows replace the adjoint exactly when the forward map is
    # sparse and the support is smaller than m.
    assert adjoints == (0 if nnz <= SPARSE_APPLY_FRACTION * n and nnz < m else 1)
    # A second call has the same bits, and finds the support of x once for
    # both products (the call above left the blocks of this support in
    # place, so no other search runs).
    searches = 0
    flatnonzero = np.flatnonzero

    def counting_flatnonzero(a):
        nonlocal searches
        searches += 1
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", counting_flatnonzero)
    ax_arr, atax_arr = normal(x.data)
    assert searches == 1
    assert ax_arr.tobytes() == ax.tobytes()
    assert atax_arr.tobytes() == atax.tobytes()


def test_dense_apply_normal_bits_do_not_depend_on_earlier_supports():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((60, 250))
    nnz = _cutoff(250)
    cols = rng.permutation(250)
    support, other = np.sort(cols[:nnz]), np.sort(cols[nnz:2 * nnz])
    x = np.zeros(250)
    x[support] = rng.standard_normal(nnz)
    x_other = np.zeros(250)
    x_other[other] = rng.standard_normal(nnz)
    x_half = np.where(np.arange(250) >= np.median(support), x, 0.0)
    x_more = x + np.where(np.isin(np.arange(250), other[:3]), 1.0, 0.0)

    cold = Dense(a).normal_map()(x)[1]
    # Before x: half its support (the rest is computed on top), a disjoint
    # support (every row computed afresh), a superset (rows dropped).
    for before in (x_half, x_other, x_more):
        normal = Dense(a).normal_map()
        normal(before)
        assert normal(x)[1].tobytes() == cold.tobytes()
        assert normal(x)[1].tobytes() == cold.tobytes()
    # New values on a kept support.
    y = np.where(x != 0, rng.standard_normal(250), 0.0)
    assert normal(y)[1].tobytes() == Dense(a).normal_map()(y)[1].tobytes()
    assert np.array_equal(normal(np.zeros(250))[1], np.zeros(250))


def test_dense_matrix_is_read_only():
    a = np.random.default_rng(21).standard_normal((4, 6))
    op = Dense(a)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0
    assert a.flags.writeable


def _peak_bytes(build):
    """The peak of the memory that numpy allocates while ``build()`` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_shares_the_matrix_and_a_point_copies_it_once():
    # The finiteness checks allocate only a boolean mask (an eighth of a).
    a = np.ones((500, 250))
    assert np.shares_memory(Dense(a).matrix, a)
    assert _peak_bytes(lambda: Dense(a)) < a.nbytes / 2
    assert a.nbytes <= _peak_bytes(lambda: Point(a)) < 1.5 * a.nbytes
