"""Polynomial maps, Cauchy-Binet rank profiles, fibre probes."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qposlab import (
    ModelError,
    calculus,
    degeneracy_locus_scan,
    fibre_dimension_estimate,
    sigma_j_minors,
)
from qposlab.maps_degeneracy import (
    _FIBRE_ACCEPT,
    _FIBRE_MAX_ITER,
    _FIBRE_RADIUS,
    _FIBRE_RNG_SEED,
    _FIBRE_SEEDS,
    _FIBRE_TOL,
    PolyMap,
    numeric_rank,
    sample_box,
    sigma_profile,
)

MAP_TEXT = """
# f(z1, z2) = (z1, z1 z2); rank drops exactly on z1 = 0
0 1 0 1 0
1 1 1 1 0
"""


def example_map():
    return PolyMap.from_text(MAP_TEXT, n=2, m=2)


# F = (a z1, b z2^2 + c z1^2, d z1 z3 + e z2^2 + f z1 z2) with complex coefficients:
# lower-triangular Jacobian with det 2 a b d z1 z2, so rank J < 3 exactly where
# z1 = 0 or z2 = 0, and rank J = 1 at z1 = z2 = 0
TRIANGULAR_ROWS = [
    [0, 1, 0, 0, 1.2, -0.3],
    [1, 0, 2, 0, 0.9, 0.4],
    [1, 2, 0, 0, 0.25, 0.1],
    [2, 1, 0, 1, -0.8, 1.1],
    [2, 0, 2, 0, 0.3, -0.2],
    [2, 1, 1, 0, 0.15, 0.35],
]


def triangular_map():
    return PolyMap.from_rows([(str(i), row) for i, row in enumerate(TRIANGULAR_ROWS)], n=3, m=3)


def esym(values, j):
    return sum(math.prod(c) for c in itertools.combinations(values, j))


class TestPolyMap:
    def test_from_text_matches_direct_tables(self):
        pm = example_map()
        direct = PolyMap(n=2, m=2, components=({(1, 0): 1.0}, {(1, 1): 1.0}))
        assert pm.components == direct.components

    def test_evaluate_known_point(self):
        pm = example_map()
        assert np.allclose(pm.evaluate([2.0, 3.0]), [2.0, 6.0])

    def test_evaluate_batched(self):
        pm = example_map()
        pts = np.array([[[1, 1], [2, 3]], [[0, 5], [1j, 1]]], dtype=complex)
        vals = pm.evaluate(pts)
        assert vals.shape == (2, 2, 2)
        assert vals[0, 1, 1] == 6.0
        assert vals[1, 1, 0] == 1j

    def test_jacobian_analytic(self):
        pm = example_map()
        z = np.array([2.0 + 1j, -0.5])
        jac = pm.jacobian(z)
        expect = np.array([[1.0, 0.0], [z[1], z[0]]])
        assert np.max(np.abs(jac - expect)) == 0.0

    def test_zero_coefficients_dropped(self):
        pm = PolyMap(n=1, m=1, components=({(1,): 0.0, (2,): 1.0},))
        assert pm.components == ({(2,): 1.0},)

    def test_repeated_monomials_accumulate(self):
        pm = PolyMap.from_text("0 1 2 0\n0 1 3 0", n=1, m=1)
        assert pm.components == ({(1,): 5.0},)

    def test_parse_errors_name_the_line(self):
        with pytest.raises(ModelError, match="line 1"):
            PolyMap.from_text("0 1 0 1", n=2, m=2)  # one field short
        with pytest.raises(ModelError, match="line 2"):
            PolyMap.from_text("0 1 0 1 0\n7 1 0 1 0", n=2, m=2)  # bad component
        with pytest.raises(ModelError):
            PolyMap.from_text("0 -1 0 1 0", n=2, m=2)  # negative exponent

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ModelError, match="finite"):
            PolyMap(n=1, m=1, components=({(1,): bad},))

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e400"])
    def test_text_rejects_non_finite_coefficients(self, field):
        with pytest.raises(ModelError, match="line 2: re and im must be finite"):
            PolyMap.from_text(f"0 1 0 1 0\n1 1 1 {field} 0", n=2, m=2)

    def test_text_rejects_unreadable_field(self):
        with pytest.raises(ModelError, match="line 1: invalid literal"):
            PolyMap.from_text("0 1 x 1 0", n=2, m=2)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0, 1, 0, 1], r"expected \[component, 2 exponents, re, im\]"),
            ([0, True, 0, 1, 0], r"expected \[component, 2 exponents, re, im\]"),
            ([0, 1, 0, 1.0, False], r"expected \[component, 2 exponents, re, im\]"),
            ([0.0, 1, 0, 1, 0], "component and exponents must be integers"),
            ([0, 1.5, 0, 1, 0], "component and exponents must be integers"),
            ([2, 1, 0, 1, 0], "component index 2 outside 0..1"),
            ([0, -1, 0, 1, 0], "exponents must be nonnegative"),
            ([0, 1, 0, math.nan, 0], "re and im must be finite"),
            ([0, 1, 0, 1, -math.inf], "re and im must be finite"),
            ([0, 1, 0, "1", 0], "re and im must be finite"),
            ([0, 1, 0, 10**400, 0], "re and im must be finite"),
        ],
    )
    def test_rows_name_the_row(self, row, message):
        with pytest.raises(ModelError, match=r"row 7: " + message):
            PolyMap.from_rows([("row 7", row)], n=2, m=2)

    def test_rows_and_text_agree(self):
        rows = [("a", [0, 1, 0, 1, 0]), ("b", [1, 1, 1, 0.5, -2]), ("c", [1, 1, 1, 0.5, 0])]
        text = "0 1 0 1 0\n1 1 1 0.5 -2\n1 1 1 0.5 0"
        assert PolyMap.from_rows(rows, n=2, m=2).components == PolyMap.from_text(text, n=2, m=2).components
        assert PolyMap.from_rows(rows, n=2, m=2).components[1] == {(1, 1): 1.0 - 2j}

    def test_rows_check_dimensions_before_building_tables(self):
        with pytest.raises(ModelError, match="dimensions out of range"):
            PolyMap.from_rows([], n=2, m=10**12)

    def test_dimension_limits(self):
        with pytest.raises(ModelError):
            PolyMap(n=5, m=1, components=({},) * 1)
        with pytest.raises(ModelError):
            PolyMap(n=1, m=7, components=({},) * 7)


class TestSigmaProfile:
    def test_frozen_integer_point(self):
        pm = example_map()
        jac = pm.jacobian(np.array([2.0, 3.0]))  # [[1, 0], [3, 2]]
        assert sigma_j_minors(jac, 1) == 14.0
        assert sigma_j_minors(jac, 2) == 4.0
        assert list(sigma_profile(jac)) == [14.0, 4.0]

    def test_cauchy_binet_against_eigenvalues(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m, n = rng.integers(1, 5), rng.integers(1, 5)
            jac = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            eigs = np.linalg.eigvalsh(jac.conj().T @ jac)
            for j in range(1, min(m, n) + 1):
                got = float(sigma_j_minors(jac, j))
                expect = esym(eigs, j)
                assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))

    def test_sigma_index_validated(self):
        jac = np.eye(2)
        with pytest.raises(ModelError):
            sigma_j_minors(jac, 0)
        with pytest.raises(ModelError):
            sigma_j_minors(jac, 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sigma1_is_squared_frobenius(self, seed):
        rng = np.random.default_rng(seed)
        jac = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert float(sigma_j_minors(jac, 1)) == pytest.approx(
            float(np.sum(np.abs(jac) ** 2)), rel=1e-12
        )


class TestNumericRank:
    def test_full_and_deficient(self):
        assert int(numeric_rank(np.array([[1.0, 0.0], [3.0, 2.0]]))) == 2
        assert int(numeric_rank(np.array([[1.0, 0.0], [0.0, 0.0]]))) == 1
        assert int(numeric_rank(np.zeros((2, 2)))) == 0

    def test_batched(self):
        pm = example_map()
        pts = np.array([[0.0, 5.0], [2.0, 3.0]])
        ranks = numeric_rank(pm.jacobian(pts))
        assert list(ranks) == [1, 2]


class TestSampleBox:
    def test_bytes_match_full_meshgrids(self):
        intervals = [(-1, 1), (-0.7, 0.35), (0.1, 2.0 / 3.0), (-3, -1), (-1, 1), (0.5, 0.5)]
        axes = [np.linspace(lo, hi, 7) for lo, hi in intervals]
        grids = np.meshgrid(*axes, indexing="ij")
        expect = np.stack([grids[2 * j] + 1j * grids[2 * j + 1] for j in range(3)], axis=-1).reshape(-1, 3)
        assert sample_box(intervals, 7).tobytes() == expect.tobytes()

    def test_shape_and_endpoints(self):
        pts = sample_box([(-1, 1)] * 4, per_axis=5)
        assert pts.shape == (625, 2)
        assert np.min(pts.real) == -1.0 and np.max(pts.real) == 1.0
        assert np.any(pts[:, 0] == 0.0)  # odd per_axis hits the centre

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ends(self, bad):
        with pytest.raises(ModelError, match="finite"):
            sample_box([(-1, 1), (bad, 1)], per_axis=3)

    def test_validation(self):
        with pytest.raises(ModelError):
            sample_box([(-1, 1)] * 3, per_axis=5)
        with pytest.raises(ModelError):
            sample_box([(-1, 1)] * 2, per_axis=1)


class TestDegeneracyScan:
    def test_flags_exactly_the_rank_drop_slice(self):
        pm = example_map()
        pts = sample_box([(-1, 1)] * 4, per_axis=9)
        scan = degeneracy_locus_scan(pm, q=0, points=pts)
        flagged = scan.flagged_points()
        assert flagged.shape[0] == 81
        assert np.all(flagged[:, 0] == 0.0)
        missed = pts[~scan.flagged]
        assert np.all(np.abs(missed[:, 0]) > 0.0)

    def test_weaker_count_unflagged(self):
        pm = example_map()
        pts = sample_box([(-1, 1)] * 4, per_axis=9)
        scan = degeneracy_locus_scan(pm, q=1, points=pts)
        assert int(np.count_nonzero(scan.flagged)) == 0

    @pytest.mark.parametrize("rtol", [math.nan, math.inf, 0.0, -1e-10])
    def test_rtol_validated(self, rtol):
        # at rtol nan every threshold test is false, so nothing would be flagged
        pts = sample_box([(-1, 1)] * 4, per_axis=3)
        with pytest.raises(ModelError, match="rtol"):
            degeneracy_locus_scan(example_map(), q=0, points=pts, rtol=rtol)

    def test_q_validated(self):
        pm = example_map()
        with pytest.raises(ModelError):
            degeneracy_locus_scan(pm, q=2, points=np.zeros((3, 2)))


def whole_array_flags(pm, q, pts, rtol=1e-10):
    """The scan's rank test on the whole array of points at once."""
    sig = sigma_profile(pm.jacobian(pts))
    thr = rtol * (1.0 + sig[:, :1]) ** np.arange(1, pm.n + 1, dtype=np.float64)
    return np.all((sig <= thr)[:, pm.n - q - 1 :], axis=-1)


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch):
    """Run the scan's slabs on a fresh pool of that many workers (serially for one)."""
    monkeypatch.setattr(calculus, "fft_workers", lambda: request.param)
    monkeypatch.setattr(calculus, "_pool", None)
    yield request.param
    if request.param == 1:
        assert calculus._pool is None
    elif calculus._pool is not None:
        calculus._pool.shutdown()


class TestSlabbedScan:
    """The 9^6 sample box of C^3: 531,441 points, nine slabs."""

    @pytest.fixture(scope="class")
    def box(self):
        return sample_box([(-1, 1)] * 6, per_axis=9)

    @pytest.fixture(scope="class")
    def reference(self, box):
        return {q: whole_array_flags(triangular_map(), q, box) for q in range(3)}

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_matches_whole_array_on_every_pool_size(self, box, reference, workers, q):
        scan = degeneracy_locus_scan(triangular_map(), q=q, points=box)
        assert scan.flagged.shape == (box.shape[0],)
        assert np.array_equal(scan.flagged, reference[q])
        assert (calculus._pool is not None) == (workers > 1)  # the slabs ran on the pool

    def test_flags_the_known_locus(self, reference, box):
        # rank < 3 on {z1 = 0} u {z2 = 0}, 6,561 points each and 81 on both; rank < 2 on both
        assert int(np.count_nonzero(reference[0])) == 2 * 6561 - 81
        assert np.array_equal(reference[0], (box[:, 0] == 0) | (box[:, 1] == 0))
        assert np.array_equal(reference[1], (box[:, 0] == 0) & (box[:, 1] == 0))
        assert not reference[2].any()

    def test_peak_below_one_whole_grid_jacobian(self, box):
        pm = triangular_map()
        whole_jacobian = box.shape[0] * pm.m * pm.n * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            degeneracy_locus_scan(pm, q=0, points=box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < whole_jacobian

    def test_batch_shape_kept(self):
        pm = example_map()
        pts = sample_box([(-1, 1)] * 4, per_axis=5).reshape(25, 25, 2)
        scan = degeneracy_locus_scan(pm, q=0, points=pts)
        assert scan.flagged.shape == (25, 25)
        assert np.array_equal(scan.flagged, pts[..., 0] == 0)
        single = degeneracy_locus_scan(pm, q=0, points=[0.0, 2.0])
        assert single.flagged.shape == () and bool(single.flagged)

    def test_point_length_checked(self):
        with pytest.raises(ModelError, match="length n=3"):
            degeneracy_locus_scan(triangular_map(), q=0, points=np.zeros((3, 2)))


def per_seed_fibre_dimension(pm, target):
    """Gauss-Newton from each seed in turn, one point at a time."""
    w = np.asarray(target, dtype=np.complex128)
    rng = np.random.default_rng(_FIBRE_RNG_SEED)
    seeds = _FIBRE_RADIUS * (
        rng.uniform(-1.0, 1.0, (_FIBRE_SEEDS, pm.n)) + 1j * rng.uniform(-1.0, 1.0, (_FIBRE_SEEDS, pm.n))
    )
    ranks = []
    for z in seeds:
        for _ in range(_FIBRE_MAX_ITER):
            r = pm.evaluate(z) - w
            if np.linalg.norm(r) < _FIBRE_TOL:
                break
            step = np.linalg.pinv(pm.jacobian(z)) @ r
            if np.linalg.norm(step) < 1e-15 * (1.0 + np.linalg.norm(z)):
                break
            z = z - step
        if np.linalg.norm(pm.evaluate(z) - w) < _FIBRE_ACCEPT:
            ranks.append(int(numeric_rank(pm.jacobian(z))))
    return pm.n - max(ranks) if ranks else -1


class TestFibreDimension:
    @pytest.mark.parametrize(
        "pm, target, dimension",
        [
            (example_map(), (0.0, 0.0), 1),
            (example_map(), (2.0, 6.0), 0),
            (example_map(), (0.0, 1.0), -1),  # z1 = 0 forces z1 z2 = 0
            (PolyMap(n=1, m=2, components=({(1,): 1.0}, {(1,): 1.0})), (1.0, 2.0), -1),
            # the fibre {0} x {0.6, -0.6} x C, of rank 2 along it
            (triangular_map(), (0.0, 0.36 * (0.9 + 0.4j), 0.36 * (0.3 - 0.2j)), 1),
            (triangular_map(), (0.5 + 0.2j, -0.3j, 0.4), 0),
        ],
    )
    def test_batched_seeds_match_per_seed_loop(self, pm, target, dimension):
        assert per_seed_fibre_dimension(pm, target) == dimension
        assert fibre_dimension_estimate(pm, target) == dimension

    def test_positive_dimensional_fibre(self):
        pm = example_map()
        assert fibre_dimension_estimate(pm, (0.0, 0.0)) == 1

    def test_zero_dimensional_fibre(self):
        pm = example_map()
        assert fibre_dimension_estimate(pm, (2.0, 6.0)) == 0

    def test_empty_fibre(self):
        pm = PolyMap(n=1, m=2, components=({(1,): 1.0}, {(1,): 1.0}))  # image is the diagonal
        assert fibre_dimension_estimate(pm, (1.0, 2.0)) == -1

    def test_target_shape_checked(self):
        with pytest.raises(ModelError):
            fibre_dimension_estimate(example_map(), (0.0,))
