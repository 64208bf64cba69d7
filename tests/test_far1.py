import sys
import threading

import numpy as np
import pytest

import fess
from fess import (
    EstimationError,
    EvalGrid,
    Far1Spec,
    GaussFieldSpec,
    PlanarCoord,
    TraceCovModel,
    ValidationError,
    ess_plugin,
    far1_ess,
    far1_simulate,
    far1_sweep,
    far1_trace_cov,
    gauss_field_simulate,
    marginal_ess,
    model_trace_cov,
    pairwise_distances,
    trapz_inner,
)
from fess.dataset import _as_xy
from fess.far1 import basis_matrix
from fess.rng import derived_rng


@pytest.fixture
def unit_grid_fine():
    return EvalGrid(np.linspace(0.0, 1.0, 201))


def tiny_grid():
    return EvalGrid([0.0, 1.0])


class TestSpecValidation:
    def test_eigenvalue_stationarity(self):
        with pytest.raises(ValidationError):
            Far1Spec([1.0], [1.0], tiny_grid())
        with pytest.raises(ValidationError):
            Far1Spec([-0.1], [1.0], tiny_grid())

    def test_negative_noise_scale(self):
        with pytest.raises(ValidationError):
            Far1Spec([0.5], [-1.0], tiny_grid())

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            Far1Spec([0.5, 0.2], [1.0], tiny_grid())

    def test_grid_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            Far1Spec([0.5], [1.0], EvalGrid([0.0, 2.0]))

    def test_unknown_basis(self):
        with pytest.raises(ValidationError):
            Far1Spec([0.5], [1.0], tiny_grid(), basis="wavelet")


class TestBasis:
    @pytest.mark.parametrize("name", ["fourier", "cosine"])
    def test_orthonormal_on_fine_grid(self, name, unit_grid_fine):
        B = basis_matrix(name, 6, unit_grid_fine.points)
        gram = (B * unit_grid_fine.quad_weights) @ B.T
        assert np.allclose(gram, np.eye(6), atol=2e-3)


class TestTraceCov:
    def test_single_term_hand_values(self):
        spec = Far1Spec([0.5], [1.0], tiny_grid())
        assert far1_trace_cov(spec, 0) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert far1_trace_cov(spec, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_white_noise(self):
        spec = Far1Spec([0.0, 0.0], [1.0, 0.5], tiny_grid())
        assert far1_trace_cov(spec, 0) == pytest.approx(1.25, rel=1e-14)
        assert far1_trace_cov(spec, 1) == 0.0
        assert far1_trace_cov(spec, 3) == 0.0

    def test_rejects_negative_lag(self):
        spec = Far1Spec([0.5], [1.0], tiny_grid())
        with pytest.raises(ValidationError):
            far1_trace_cov(spec, -1)

    @pytest.mark.parametrize("h", [float("inf"), float("nan"), True, 2.0, "2"])
    def test_lag_must_be_a_non_negative_integer(self, h):
        spec = Far1Spec([0.5], [1.0], tiny_grid())
        with pytest.raises(ValidationError, match="lag must be a non-negative integer"):
            far1_trace_cov(spec, h)

    def test_numpy_integer_lags_are_lags(self):
        spec = Far1Spec([0.5, 0.25], [1.0, 0.5], tiny_grid())
        assert far1_trace_cov(spec, np.uint8(3)) == far1_trace_cov(spec, 3)


class TestMarginalEss:
    def test_independence(self):
        assert marginal_ess(0.0, 17) == 17.0

    def test_hand_sum_n3(self):
        assert marginal_ess(0.5, 3) == pytest.approx(9.0 / 5.5, rel=1e-12)

    def test_perfect_dependence_limit(self):
        assert marginal_ess(0.999999, 50) == pytest.approx(1.0, abs=1e-3)

    def test_closed_form_matches_direct_sum(self):
        rng = derived_rng(41)
        for _ in range(50):
            lam = float(rng.uniform(0.0, 0.995))
            n = int(rng.integers(1, 120))
            idx = np.arange(n)
            direct = float(np.sum(lam ** np.abs(idx[:, None] - idx[None, :])))
            assert marginal_ess(lam, n) == pytest.approx(n * n / direct, rel=1e-12)


class TestFar1Ess:
    def test_single_term_equals_marginal(self):
        spec = Far1Spec([0.37], [0.8], tiny_grid())
        assert far1_ess(spec, 25) == pytest.approx(marginal_ess(0.37, 25), rel=1e-14)

    def test_two_term_brute_force_value(self):
        # frozen from an independent double sum over the closed-form
        # trace-covariogram (lambdas .5/.25, etas 1/.5, n = 3)
        spec = Far1Spec([0.5, 0.25], [1.0, 0.5], tiny_grid())
        assert far1_ess(spec, 3) == pytest.approx(1.7075098814229249, rel=1e-12)
        assert far1_ess(spec, 3) == pytest.approx(1.70751, abs=1e-5)

    def test_equal_lambdas_collapse_to_marginal(self):
        spec = Far1Spec([0.4, 0.4, 0.4], [1.0, 0.3, 0.05], tiny_grid())
        assert far1_ess(spec, 12) == pytest.approx(marginal_ess(0.4, 12), rel=1e-12)

    def test_harmonic_identity_random_specs(self):
        rng = derived_rng(42)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(2, 201))
            lams = rng.uniform(0.0, 0.98, size=k)
            etas = rng.uniform(0.05, 2.0, size=k)
            spec = Far1Spec(lams, etas, tiny_grid())
            w = etas**2 / (1.0 - lams**2)
            sig = np.array([np.sum(lams**h * w) for h in range(n)])
            lagmat = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
            direct = n * n * sig[0] / np.sum(sig[lagmat])
            assert far1_ess(spec, n) == pytest.approx(direct, rel=1e-10)

    def test_monotone_in_n(self):
        spec = Far1Spec([0.6, 0.3], [1.0, 0.7], tiny_grid())
        values = [far1_ess(spec, n) for n in range(1, 40)]
        assert np.all(np.diff(values) > 0)

    def test_bounds(self):
        rng = derived_rng(43)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 100))
            spec = Far1Spec(rng.uniform(0, 0.99, k), rng.uniform(0.01, 3, k), tiny_grid())
            e = far1_ess(spec, n)
            assert 1.0 - 1e-12 <= e <= n * (1.0 + 1e-12)

    def test_all_zero_noise_rejected(self):
        spec = Far1Spec([0.5], [0.0], tiny_grid())
        with pytest.raises(ValidationError):
            far1_ess(spec, 10)


class TestFar1Simulate:
    def test_deterministic_per_seed(self, unit_grid_fine):
        spec = Far1Spec([0.5, 0.2], [1.0, 0.5], unit_grid_fine)
        a = far1_simulate(spec, 20, seed=3)
        b = far1_simulate(spec, 20, seed=3)
        c = far1_simulate(spec, 20, seed=4)
        assert np.array_equal(a.curves, b.curves)
        assert not np.array_equal(a.curves, c.curves)

    def test_locations_are_integer_line(self):
        spec = Far1Spec([0.5], [1.0], tiny_grid())
        ds = far1_simulate(spec, 4, seed=0)
        assert ds.xy.tolist() == [[float(i), 0.0] for i in (1, 2, 3, 4)]

    def test_stationary_coordinate_variance(self, unit_grid_fine):
        # project simulated curves back onto a basis function; the final
        # time point across paths is an iid stationary sample
        lam, eta = 0.3, 0.8
        spec = Far1Spec([lam, 0.1], [eta, 0.2], unit_grid_fine)
        reps = 400
        samples = []
        phi = basis_matrix("fourier", 2, unit_grid_fine.points)[0]
        for r in range(reps):
            ds = far1_simulate(spec, 5, seed=1000 + r)
            samples.append(trapz_inner(ds.curves[-1], phi, unit_grid_fine))
        samples = np.array(samples)
        target = eta**2 / (1.0 - lam**2)
        var = samples.var(ddof=1)
        se = target * np.sqrt(2.0 / (reps - 1))
        assert abs(var - target) < 3.0 * se

    def test_white_noise_has_no_lag_one_cov(self, unit_grid_fine):
        spec = Far1Spec([0.0, 0.0], [1.0, 0.5], unit_grid_fine)
        vals = []
        for r in range(500):
            ds = far1_simulate(spec, 2, seed=2000 + r)
            vals.append(trapz_inner(ds.curves[0], ds.curves[1], unit_grid_fine))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) < 3.0 * se

    def test_trace_stats_agree_across_bases(self, unit_grid_fine):
        # empirical trace variance is basis-free within Monte Carlo noise
        out = {}
        for basis in ("fourier", "cosine"):
            spec = Far1Spec([0.4, 0.2], [1.0, 0.6], unit_grid_fine, basis=basis)
            traces = []
            for r in range(300):
                ds = far1_simulate(spec, 2, seed=3000 + r)
                traces.append(trapz_inner(ds.curves[0], ds.curves[0], unit_grid_fine))
            out[basis] = np.array(traces)
        se = np.hypot(
            out["fourier"].std(ddof=1) / np.sqrt(300),
            out["cosine"].std(ddof=1) / np.sqrt(300),
        )
        assert abs(out["fourier"].mean() - out["cosine"].mean()) < 3.0 * se


class TestFar1Sweep:
    def test_lambda_axis_strictly_decreasing(self):
        rows = far1_sweep("lambda0", np.arange(0.1, 0.91, 0.1), [30])
        ess = [r.ess for r in rows]
        assert np.all(np.diff(ess) < 0)

    def test_eta_axis_strictly_increasing(self):
        rows = far1_sweep("eta0", np.arange(0.1, 0.91, 0.1), [30])
        ess = [r.ess for r in rows]
        assert np.all(np.diff(ess) > 0)

    def test_near_white_noise_limit(self):
        rows = far1_sweep("lambda0", [0.01], [120])
        assert rows[0].ess == pytest.approx(120.0, rel=0.01)

    def test_rows_cover_value_by_n_grid(self):
        rows = far1_sweep("lambda0", [0.2, 0.5], [30, 60, 120])
        assert len(rows) == 6
        assert {(r.axis_value, r.n) for r in rows} == {
            (v, n) for v in (0.2, 0.5) for n in (30, 60, 120)
        }

    def test_values_outside_open_interval_rejected(self):
        with pytest.raises(ValidationError):
            far1_sweep("lambda0", [0.0], [30])
        with pytest.raises(ValidationError):
            far1_sweep("lambda0", [1.0], [30])
        with pytest.raises(ValidationError):
            far1_sweep("scale", [0.5], [30])


@pytest.mark.parametrize("n", [2.5, 3.0, True, 0, -4])
def test_sample_sizes_must_be_positive_integers(n):
    spec = Far1Spec([0.5], [1.0], tiny_grid())
    calls = [
        lambda: marginal_ess(0.5, n),
        lambda: far1_ess(spec, n),
        lambda: far1_simulate(spec, n, seed=1),
        lambda: far1_sweep("lambda0", [0.5], [n]),
        lambda: far1_sweep("lambda0", [0.5], [30, n]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="n must be a positive integer"):
            call()


class TestGaussField:
    def make_spec(self, grid_points=201):
        grid = EvalGrid(np.linspace(0.0, 1.0, grid_points))
        model = TraceCovModel("exponential", 1.0, 50.0)
        return GaussFieldSpec(model, np.array([0.5, 0.3, 0.2]), grid)

    def test_deterministic_per_seed(self):
        spec = self.make_spec(21)
        locs = [PlanarCoord(0.0, 0.0), PlanarCoord(10.0, 0.0)]
        a = gauss_field_simulate(spec, locs, seed=9)
        b = gauss_field_simulate(spec, locs, seed=9)
        assert np.array_equal(a.curves, b.curves)

    def test_array_and_planar_coords_give_identical_curves(self):
        spec = self.make_spec(21)
        xy = derived_rng(8).uniform(0.0, 300.0, size=(30, 2))
        a = gauss_field_simulate(spec, xy, seed=4)
        b = gauss_field_simulate(spec, [PlanarCoord(float(x), float(y)) for x, y in xy], seed=4)
        assert np.array_equal(a.curves, b.curves)
        assert np.array_equal(a.xy, b.xy)

    @pytest.mark.parametrize(
        "xy", [np.array([[0.0, np.nan]]), np.zeros((3, 1)), np.zeros((0, 2))]
    )
    def test_bad_coordinate_arrays_rejected(self, xy):
        with pytest.raises(ValidationError):
            gauss_field_simulate(self.make_spec(21), xy, seed=1)

    def test_single_location_trace_variance(self):
        spec = self.make_spec()
        grid = spec.grid
        reps = 400
        vals = []
        for r in range(reps):
            ds = gauss_field_simulate(spec, [PlanarCoord(0.0, 0.0)], seed=r)
            vals.append(trapz_inner(ds.curves[0], ds.curves[0], grid))
        vals = np.array(vals)
        target = float(np.sum(spec.weights))
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - target) < 3.0 * se

    def test_pure_nugget_gives_independent_curves(self):
        grid = EvalGrid(np.linspace(0.0, 1.0, 22))
        model = TraceCovModel("exponential", 1e-12, 100.0, nugget=1.0)
        spec = GaussFieldSpec(model, np.full(4, 0.25), grid)
        rng = derived_rng(44)
        locs = [PlanarCoord(float(x), float(y)) for x, y in rng.uniform(0, 500, (150, 2))]
        ds = gauss_field_simulate(spec, locs, seed=15)
        rep = ess_plugin(ds, "exponential")
        assert abs(rep.ess - 150.0) <= 15.0

    def test_duplicate_sites_need_jitter_and_succeed(self):
        spec = self.make_spec(21)
        locs = [PlanarCoord(0.0, 0.0), PlanarCoord(0.0, 0.0), PlanarCoord(5.0, 0.0)]
        ds = gauss_field_simulate(spec, locs, seed=2)
        assert ds.n_curves == 3

    def test_weight_validation(self):
        grid = EvalGrid([0.0, 1.0])
        model = TraceCovModel("exponential", 1.0, 1.0)
        with pytest.raises(ValidationError):
            GaussFieldSpec(model, np.array([0.0, 0.0]), grid)
        with pytest.raises(ValidationError):
            GaussFieldSpec(model, np.array([-1.0, 2.0]), grid)


class TestFactorMemo:
    """``gauss_field_simulate`` keeps the correlation factor in the last site
    set's record and reuses it only for an equal model at bitwise-equal sites."""

    grid = EvalGrid(np.linspace(0.0, 1.0, 11))
    model = TraceCovModel("exponential", 1.0, 80.0, 0.2)

    def spec(self, model=None):
        return GaussFieldSpec(model or self.model, np.array([0.5, 0.3, 0.2]), self.grid)

    @staticmethod
    def cold(spec, xy, seed):
        fess.dataset._site_record.cache_clear()
        return gauss_field_simulate(spec, xy, seed).curves

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        fess.dataset._site_record.cache_clear()
        return calls

    def test_equal_sites_and_model_factorize_once(self, factorizations):
        xy = derived_rng(80).uniform(0.0, 300.0, size=(25, 2))
        first = gauss_field_simulate(self.spec(), xy, seed=1).curves
        # an equal model and equal sites given another way hit the memo
        again = self.spec(TraceCovModel("exponential", 1.0, 80.0, 0.2))
        locs = [PlanarCoord(float(x), float(y)) for x, y in xy]
        second = gauss_field_simulate(again, locs, seed=2).curves
        repeat = gauss_field_simulate(self.spec(), xy.copy(), seed=1).curves
        assert repeat.tobytes() == first.tobytes()
        assert len(factorizations) == 1
        assert self.cold(self.spec(), xy, 2).tobytes() == second.tobytes()

    def test_curves_match_the_model_and_sites_they_were_given(self, factorizations):
        xy = derived_rng(81).uniform(0.0, 300.0, size=(20, 2))
        last_bit = xy.copy()
        last_bit[7, 1] = np.nextafter(last_bit[7, 1], np.inf)
        swapped = xy.copy()
        swapped[[3, 11]] = swapped[[11, 3]]
        changes = [
            (TraceCovModel("spherical", 1.0, 80.0, 0.2), xy),
            (TraceCovModel("exponential", 1.5, 80.0, 0.2), xy),
            (TraceCovModel("exponential", 1.0, 81.0, 0.2), xy),
            (TraceCovModel("exponential", 1.0, 80.0, 0.0), xy),
            (self.model, last_bit),
            (self.model, swapped),
        ]
        for model, sites in changes:
            gauss_field_simulate(self.spec(), xy, seed=3)  # the memo holds the base case
            before = len(factorizations)
            warm = gauss_field_simulate(self.spec(model), sites, seed=3).curves
            assert len(factorizations) == before + 1
            assert warm.tobytes() == self.cold(self.spec(model), sites, 3).tobytes()

    def test_curves_are_the_dense_cholesky_draw(self):
        xy = np.vstack([derived_rng(82).uniform(0.0, 300.0, size=(15, 2))] * 2)  # jitter
        spec = self.spec(TraceCovModel("gaussian", 2.0, 60.0, 0.3))
        corr = model_trace_cov(spec.model, pairwise_distances(xy)) / 2.3
        try:
            factor = np.linalg.cholesky(corr)
        except np.linalg.LinAlgError:
            factor = np.linalg.cholesky(corr + 1e-10 * np.eye(len(xy)))
        z = derived_rng(5).standard_normal((len(xy), 3))
        basis = basis_matrix("fourier", 3, self.grid.points)
        ref = ((factor @ z) * np.sqrt(spec.weights)) @ basis
        for _ in range(2):
            assert gauss_field_simulate(spec, xy, seed=5).curves.tobytes() == ref.tobytes()

    def test_mutating_the_callers_sites_changes_the_next_result(self):
        xy = derived_rng(83).uniform(0.0, 300.0, size=(20, 2))
        gauss_field_simulate(self.spec(), xy, seed=4)
        xy[5] += 40.0
        warm = gauss_field_simulate(self.spec(), xy, seed=4).curves
        assert warm.tobytes() == self.cold(self.spec(), xy, 4).tobytes()

    def test_cached_factor_is_read_only(self):
        xy = derived_rng(84).uniform(0.0, 300.0, size=(10, 2))
        self.cold(self.spec(), xy, 1)
        model, factor = fess.dataset._site_record(_as_xy(xy).tobytes()).kept["factor"]
        assert model == self.model and factor.shape == (10, 10)
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0] = 2.0

    def test_jitter_path_is_memoized(self, factorizations):
        locs = [PlanarCoord(0.0, 0.0), PlanarCoord(0.0, 0.0), PlanarCoord(5.0, 0.0)]
        first = gauss_field_simulate(self.spec(), locs, seed=2).curves
        assert len(factorizations) == 2  # singular, then with the jitter
        assert gauss_field_simulate(self.spec(), locs, seed=2).curves.tobytes() == first.tobytes()
        assert len(factorizations) == 2

    def test_failed_factorization_raises_on_every_call(self, monkeypatch):
        xy = derived_rng(85).uniform(0.0, 300.0, size=(10, 2))
        expected = self.cold(self.spec(), xy, 6)
        fess.dataset._site_record.cache_clear()
        calls = []

        def failing(a):
            calls.append(1)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        for attempt in (1, 2):
            with pytest.raises(EstimationError, match="not positive definite, even after jitter"):
                gauss_field_simulate(self.spec(), xy, seed=6)
            assert len(calls) == 2 * attempt
            assert "factor" not in fess.dataset._site_record(_as_xy(xy).tobytes()).kept
        monkeypatch.undo()
        assert gauss_field_simulate(self.spec(), xy, seed=6).curves.tobytes() == expected.tobytes()

    def test_threads_alternating_two_site_sets_match_serial_results(self):
        rng = derived_rng(86)
        sites = [rng.uniform(0.0, 300.0, size=(40, 2)), rng.uniform(0.0, 300.0, size=(30, 2))]
        jobs = [(sites[(t + r) % 2], 100 * t + r) for t in range(4) for r in range(12)]
        serial = [self.cold(self.spec(), xy, seed).tobytes() for xy, seed in jobs]
        results = {}

        def work(t):
            for r in range(12):
                xy, seed = jobs[12 * t + r]
                results[12 * t + r] = gauss_field_simulate(self.spec(), xy, seed).curves.tobytes()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(i) for i in range(len(jobs))] == serial
