import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from augdual.cli import InstanceSpec, generate_instance
from augdual.linop import BlockSum, Dense, LinearOperator, Point, SamplingMask
from augdual import numerics
from augdual.numerics import lanczos_norm, operator_norm_estimate, power_iteration, svd
from augdual.prox import NormSpec, svt
from augdual.solver import ConfigurationError, ProblemSpec, SolveConfig, solve


def test_identity_svd():
    res = svd(np.eye(3))
    assert np.allclose(res.s, [1, 1, 1])
    assert np.allclose(res.u @ res.v.T, np.eye(3))


def test_diagonal_singular_values():
    res = svd(np.diag([3.0, 0.4]))
    assert np.allclose(res.s, [3.0, 0.4])


def test_random_reconstruction():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 4))
    res = svd(m)
    assert np.linalg.norm(res.reconstruct() - m, "fro") <= 1e-9 * np.linalg.norm(m, "fro")


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (20, 20), (50, 50), (1, 4)])
def test_svd_invariants(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    m = 3.0 * rng.standard_normal(shape)
    res = svd(m)
    k = min(shape)
    assert np.max(np.abs(res.u.T @ res.u - np.eye(k))) <= 1e-10
    assert np.max(np.abs(res.v.T @ res.v - np.eye(k))) <= 1e-10
    assert np.all(np.diff(res.s) <= 0)
    assert np.all(res.s >= 0)
    assert np.linalg.norm(res.reconstruct() - m, "fro") <= 1e-9 * (
        1 + np.linalg.norm(m, "fro")
    )


def test_rank_deficient_and_zero():
    u = np.array([[1.0], [2.0], [2.0]]) / 3.0
    m = u @ u.T  # rank one
    res = svd(m)
    assert np.count_nonzero(res.s) == 1
    assert np.max(np.abs(res.u.T @ res.u - np.eye(3))) <= 1e-10
    zero = svd(np.zeros((3, 2)))
    assert np.all(zero.s == 0)
    assert np.max(np.abs(zero.u.T @ zero.u - np.eye(2))) <= 1e-12


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_svd_deterministic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 6))
    a = svd(m)
    b = svd(m.copy())
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.v, b.v)


# Singular values of the floor tests, against the floor t = 1: k = min(shape).
FLOOR_CASES = {
    "nothing_kept": lambda k: np.linspace(0.9, 0.1, k),
    "all_kept": lambda k: np.linspace(3.0, 1.5, k),
    "zero": lambda k: np.zeros(k),
    "rank_deficient": lambda k: np.where(np.arange(k) < max(1, k // 3), 2.5, 0.0),
    # None within 1% of t, so the kept set is not ambiguous.
    "straddling": lambda k: np.linspace(2.5, 0.2, k),
}
FLOOR_SHAPES = [(1, 4), (4, 1), (24, 12), (12, 24), (24, 8), (80, 80)]


def _with_singular_values(shape, values, seed):
    rng = np.random.default_rng(seed)
    k = values.size
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    return (u * values) @ v.T


def _truncated(res, floor):
    k = np.count_nonzero(res.s > floor)
    return res.u[:, :k], res.s[:k], res.v[:, :k]


@pytest.mark.parametrize("case", FLOOR_CASES)
@pytest.mark.parametrize("shape", FLOOR_SHAPES)
def test_svd_floor_keeps_the_triplets_above_it(shape, case):
    values = FLOOR_CASES[case](min(shape))
    m = _with_singular_values(shape, values, seed=sum(shape))
    res = svd(m, floor=1.0)
    u, s, v = _truncated(svd(m), 1.0)
    k = s.size
    assert k == np.count_nonzero(values > 1.0)
    assert res.u.shape == (shape[0], k) and res.v.shape == (shape[1], k)
    top = max(float(values.max()), 1.0)
    assert np.max(np.abs(res.s - s), initial=0.0) <= 1e-12 * top
    assert np.all(np.diff(res.s) <= 0)
    assert np.max(np.abs(res.reconstruct() - (u * s) @ v.T)) <= 1e-12 * top
    assert np.max(np.abs(res.u.T @ res.u - np.eye(k)), initial=0.0) <= 1e-10
    assert np.max(np.abs(res.v.T @ res.v - np.eye(k)), initial=0.0) <= 1e-10


@pytest.mark.parametrize("case", FLOOR_CASES)
@pytest.mark.parametrize("shape", FLOOR_SHAPES)
def test_svt_shrinks_the_full_svd(shape, case):
    m = _with_singular_values(shape, FLOOR_CASES[case](min(shape)), seed=sum(shape) + 1)
    res = svd(m)
    expect = (res.u * np.maximum(res.s - 1.0, 0.0)) @ res.v.T
    assert np.linalg.norm(svt(m, 1.0) - expect) <= 1e-12 * max(np.linalg.norm(m), 1e-300)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_svd_floor_at_extreme_scales(scale):
    # t^2 under- or overflows; the Gram route still keeps the same triplets.
    base = _with_singular_values((24, 12), np.linspace(2.5, 0.2, 12), seed=4)
    u, s, v = _truncated(svd(base), 1.0)
    res = svd(scale * base, floor=scale)
    assert np.max(np.abs(res.s / scale - s)) <= 1e-12 * s[0]
    assert np.max(np.abs(res.reconstruct() / scale - (u * s) @ v.T)) <= 1e-12 * s[0]


_BEYOND_THE_RATIO = {
    # s_max^2 / t^2 above GRAM_SVD_RATIO: (m from a 24x12 base, t, eigh calls).
    # An entry above sqrt(ratio) * t sends m to LAPACK before eigh.
    "large_entry": (lambda base: 1e3 * base, 1.0, 0),
    # Without that entry bound, G would overflow.
    "huge_entries": (lambda base: 1e200 * base, 1.0, 0),
    "subnormal_floor": (lambda base: base, 5e-324, 0),
    # No entry above sqrt(ratio) * t: eigh's lambda_max shows the ratio.
    "small_entries": (lambda base: np.full((80, 80), 2.0), 1.0, 1),
}


@pytest.mark.parametrize("build, floor, eighs", _BEYOND_THE_RATIO.values(),
                         ids=_BEYOND_THE_RATIO)
def test_svd_floor_beyond_the_gram_ratio_is_the_lapack_svd(build, floor, eighs, monkeypatch):
    m = build(_with_singular_values((24, 12), np.linspace(2.5, 0.2, 12), seed=3))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: calls.append(g) or eigh(g))
    res = svd(m, floor=floor)
    assert len(calls) == eighs
    u, s, v = _truncated(svd(m), floor)
    assert s[0] > floor * np.sqrt(numerics.GRAM_SVD_RATIO)
    assert np.array_equal(res.u, u) and np.array_equal(res.s, s) and np.array_equal(res.v, v)


def test_svd_floor_must_be_positive():
    for floor in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="floor"):
            svd(np.eye(2), floor=floor)
    with pytest.raises(ValueError, match="finite"):
        svd(np.array([[1.0, np.inf], [0.0, 1.0]]), floor=1.0)


def test_svt_makes_one_svd_call_when_nothing_is_kept(monkeypatch):
    calls = []
    original = numerics.svd

    def counting_svd(m, floor=None):
        calls.append(floor)
        return original(m, floor=floor)

    monkeypatch.setattr(numerics, "svd", counting_svd)
    assert np.array_equal(svt(0.5 * np.eye(3), 1.0), np.zeros((3, 3)))
    assert calls == [1.0]


def test_operator_norm_identity_and_diag():
    value, method = operator_norm_estimate(Dense(np.eye(5)))
    assert method == "lanczos" and value == pytest.approx(1.0, abs=1e-8)
    value, method = operator_norm_estimate(Dense(np.diag([2.0, 1.0])))
    assert method == "lanczos" and value == pytest.approx(2.0, abs=1e-8)


def test_operator_norm_sampling_mask_is_one():
    op = SamplingMask((3, 3), ((0, 0), (1, 2), (2, 1)))
    est, method = operator_norm_estimate(op)
    assert (est, method) == (1.0, "exact")
    # crosscheck against the svd of the dense form of the projection
    dense = np.zeros((3, 9))
    for row, (i, j) in enumerate(op.indices):
        dense[row, 3 * i + j] = 1.0
    assert svd(dense).s[0] == pytest.approx(est, abs=1e-8)


def test_operator_norm_matches_svd_on_dense():
    rng = np.random.default_rng(9)
    for _ in range(5):
        mat = rng.standard_normal((7, 5))
        est, method = operator_norm_estimate(Dense(mat))
        assert method == "lanczos"
        top = svd(mat).s[0]
        assert abs(est - top) <= 1e-6 * top
        assert est <= top * (1 + 1e-12)


def test_operator_norm_of_a_subclassed_mask_is_estimated():
    # A subclass may change the maps, so its norm is not taken as exact.
    class Doubled(SamplingMask):
        def _apply(self, x):
            return 2.0 * super()._apply(x)

        def _adjoint(self, y):
            return 2.0 * super()._adjoint(y)

    value, method = operator_norm_estimate(Doubled((3, 3), ((0, 0), (1, 2))))
    assert method == "lanczos" and value == pytest.approx(2.0, rel=1e-12)


def test_operator_norm_blocksum_is_sqrt2():
    value, method = operator_norm_estimate(BlockSum((4, 3)))
    assert method == "exact" and value == math.sqrt(2.0)
    assert Fraction(value) ** 2 >= 2  # an upper bound on sqrt 2, exactly


def test_power_iteration_unconverged_flag(monkeypatch):
    rng = np.random.default_rng(2)
    op = Dense(rng.standard_normal((10, 10)))
    value, converged, iters = power_iteration(op, tol=1e-16, max_iter=2, seed=0)
    assert not converged
    assert iters == 2
    assert value >= 0
    monkeypatch.setattr(numerics, "_LANCZOS_MAX_STEPS", 2)
    with pytest.warns(RuntimeWarning):
        operator_norm_estimate(op)


@pytest.mark.parametrize(
    "op, expected",
    [(SamplingMask((3, 4), ((0, 0), (1, 2), (2, 1), (2, 3))), 1.0),
     (BlockSum((4, 3)), np.sqrt(2.0))],
)
def test_lanczos_closed_form_norms_in_one_step(op, expected):
    # A A* is I for a mask and 2I for a block sum: the first Krylov space is
    # invariant.
    value, converged, steps = lanczos_norm(op)
    assert converged and steps == 1
    assert abs(value - expected) <= 1e-15 * expected
    # Bit for bit the one-step Ritz value sqrt(<q, A A* q>) of the seeded start.
    q = np.random.default_rng(0).standard_normal(int(np.prod(op.codomain_shape)))
    q = (q / np.linalg.norm(q)).reshape(op.codomain_shape)
    aa_q = op.apply(op.adjoint(Point(q))).data
    assert value == float(np.sqrt(q.ravel() @ aa_q.ravel()))


@pytest.mark.parametrize("shape", [(40, 90), (90, 40), (30, 200), (200, 30)])
def test_lanczos_matches_svd_on_dense(shape):
    mat = np.random.default_rng(shape[0] + 7 * shape[1]).standard_normal(shape)
    value, converged, steps = lanczos_norm(Dense(mat))
    top = svd(mat).s[0]
    assert converged and steps <= min(shape)
    assert abs(value - top) <= 1e-12 * top
    assert value <= top * (1 + 1e-12)


def test_lanczos_rank_one_and_repeated_top_value():
    u, v = np.array([1.0, 2.0, 2.0]), np.array([3.0, 0.0, -4.0, 0.0, 12.0])
    value, converged, _ = lanczos_norm(Dense(np.outer(u, v)))
    assert converged and value == pytest.approx(3.0 * 13.0, rel=1e-14)
    value, converged, _ = lanczos_norm(Dense(np.diag([2.0, 2.0, 1.0])))
    assert converged and value == pytest.approx(2.0, rel=1e-14)


def test_lanczos_zero_operator_is_a_configuration_error():
    op = Dense(np.zeros((3, 4)))
    assert lanczos_norm(op) == (0.0, True, 1)
    p = ProblemSpec(op, Point.vector(np.zeros(3)), NormSpec("l1"), 1.0)
    with pytest.raises(ConfigurationError, match="operator is zero"):
        solve(p, SolveConfig())


def test_lanczos_step_cap(monkeypatch):
    op = Dense(np.random.default_rng(2).standard_normal((10, 12)))
    monkeypatch.setattr(numerics, "_LANCZOS_MAX_STEPS", 2)
    value, converged, steps = lanczos_norm(op)
    assert not converged and steps == 2
    assert 0 < value <= svd(op.matrix).s[0]
    with pytest.warns(RuntimeWarning, match="operator norm power iteration did not reach"):
        operator_norm_estimate(op)


def test_lanczos_needs_far_fewer_steps_than_power_iteration():
    model, _ = generate_instance(InstanceSpec(seed=1, kind="aug_l1", m=300, n=1400, k=30))
    op = Dense(model.A)
    value, converged, steps = lanczos_norm(op)
    power_value, power_converged, power_steps = power_iteration(op, 1e-12, 5000, 0)
    assert converged and power_converged
    assert steps <= 100 and power_steps >= 300
    top = svd(op.matrix).s[0]
    assert abs(value - top) <= 1e-12 * top
    assert abs(value - power_value) <= 1e-9 * top


def _counting_maps(monkeypatch):
    """Count the checked forward and adjoint calls of every Dense."""
    calls = {"apply": 0, "adjoint": 0}
    for name in calls:
        original = getattr(Dense, name)

        def counted(self, x, name=name, original=original):
            calls[name] += 1
            return original(self, x)

        monkeypatch.setattr(Dense, name, counted)
    return calls


# The Gram path of operator_norm_estimate; the tests keep their
# `lanczos_gram_path` names so that their ids stay stable.
@pytest.mark.parametrize("shape", [(60, 300), (300, 60)])
def test_lanczos_gram_path_on_wide_and_tall_dense(shape, monkeypatch):
    mat = np.random.default_rng(shape[0] + 3 * shape[1]).standard_normal(shape)
    top = np.linalg.norm(mat, 2)
    op = Dense(mat)
    before = dict(vars(op))
    calls = _counting_maps(monkeypatch)
    value, method = operator_norm_estimate(op)
    assert method == "gram"
    assert top <= value <= top * (1 + _stated_delta(mat))
    # The value comes from the Gram matrix alone, which the operator does
    # not keep.
    assert calls == {"apply": 0, "adjoint": 0}
    assert vars(op) == before
    # Lanczos through the maps lands on the same value up to rounding and
    # the stated delta, and not above it.
    lanczos_value, converged, _ = lanczos_norm(op)
    assert converged and abs(value - lanczos_value) <= 1e-12 * top
    assert lanczos_value <= value * (1 + 1e-14)


@pytest.mark.parametrize("shape, gram", [((40, 160), True), ((40, 159), False),
                                         ((30, 30), False)])
def test_lanczos_gram_path_needs_a_quarter_of_the_memory(shape, gram, monkeypatch):
    # min(m, n)^2 <= m n / 4 takes the Gram path; a square or barely wide
    # matrix runs Lanczos, one forward and one adjoint map per step.
    op = Dense(np.random.default_rng(4).standard_normal(shape))
    _, converged, steps = lanczos_norm(op)
    assert converged and steps > 1
    calls = _counting_maps(monkeypatch)
    operator_norm_estimate(op)
    assert calls == ({"apply": 0, "adjoint": 0} if gram
                     else {"apply": steps, "adjoint": steps})


class _Tripled(LinearOperator):
    """The map 3A of a matrix A, through its own forward and adjoint maps."""

    def __init__(self, mat):
        self.mat = mat
        self.domain_shape, self.codomain_shape = (mat.shape[1],), (mat.shape[0],)

    def _apply(self, x):
        return 3.0 * (self.mat @ x)

    def _adjoint(self, y):
        return 3.0 * (self.mat.T @ y)


def test_lanczos_measures_an_overridden_map():
    mat = np.random.default_rng(8).standard_normal((20, 120))
    value, converged, _ = lanczos_norm(_Tripled(mat))
    top = np.linalg.norm(mat, 2)
    assert converged and abs(value - 3.0 * top) <= 1e-12 * top
    # An operator other than Dense skips the Gram path, which reads a matrix.
    assert operator_norm_estimate(_Tripled(mat)) == (value, "lanczos")


def test_lanczos_gram_path_step_cap(monkeypatch):
    # The Gram path has no steps to cap: a cap that stops Lanczos early
    # neither warns nor changes its value.
    mat = np.random.default_rng(2).standard_normal((10, 50))
    monkeypatch.setattr(numerics, "_LANCZOS_MAX_STEPS", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, method = operator_norm_estimate(Dense(mat))
    top = np.linalg.norm(mat, 2)
    assert method == "gram" and top <= value <= top * (1 + _stated_delta(mat))


def test_lanczos_gram_path_zero_operator():
    assert operator_norm_estimate(Dense(np.zeros((2, 20)))) == (0.0, "gram")


def _stated_delta(mat: np.ndarray) -> float:
    """delta / lambda of the Gram bound, written out from its statement:
    delta = m eps lambda + gamma_n tr(G) / (1 - gamma_n), G the smaller Gram
    matrix (size m) and n the inner dimension."""
    small, inner = sorted(mat.shape)
    gram = mat @ mat.T if mat.shape[0] == small else mat.T @ mat
    lam = np.linalg.eigvalsh(gram)[-1]
    eps = np.finfo(float).eps
    gamma = (inner * eps / 2) / (1 - inner * eps / 2)
    return (small * eps * lam + gamma * np.trace(gram) / (1 - gamma)) / lam


@pytest.mark.parametrize("shape", [(40, 200), (200, 40), (1, 30), (30, 1)])
@pytest.mark.parametrize("spread", [False, True], ids=["normal", "spread"])
def test_gram_value_is_an_upper_bound_within_the_stated_delta(shape, spread):
    # sigma_max <= value <= sigma_max (1 + delta / lambda), against LAPACK's
    # 2-norm; the spread entries run over 1e-8 to 1e8.
    rng = np.random.default_rng(shape[0] + 5 * shape[1])
    mat = rng.standard_normal(shape)
    if spread:
        mat *= 10.0 ** rng.uniform(-8, 8, shape)
    value, method = operator_norm_estimate(Dense(mat))
    top = np.linalg.norm(mat, 2)
    assert method == "gram"
    assert top <= value <= top * (1 + _stated_delta(mat))

