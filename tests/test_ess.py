import json
import math
import tracemalloc

import numpy as np
import pytest

from fess import (
    EssReport,
    EvalGrid,
    FitOptions,
    GaussFieldSpec,
    TraceCovModel,
    ValidationError,
    ess_functional,
    ess_plugin,
    ess_scalar,
    gauss_field_simulate,
    model_trace_cov,
    pairwise_distances,
    PlanarCoord,
)
from fess.rng import derived_rng

from conftest import make_dataset, tied_dataset


class TestEssScalar:
    def test_identity_gives_n(self):
        assert ess_scalar(np.eye(7)) == 7.0

    def test_all_ones_gives_one(self):
        assert ess_scalar(np.ones((7, 7))) == pytest.approx(1.0)

    def test_two_by_two_hand_sum(self):
        R = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert ess_scalar(R) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_requires_symmetric_unit_diagonal(self):
        with pytest.raises(ValidationError):
            ess_scalar(np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ValidationError):
            ess_scalar(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_inadmissible_negative_mass(self):
        R = np.full((3, 3), -0.9)
        np.fill_diagonal(R, 1.0)
        with pytest.raises(ValidationError, match="inadmissible"):
            ess_scalar(R)


def collinear_distances():
    return pairwise_distances(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


class TestEssFunctional:
    def test_collinear_exponential_hand_sum(self):
        D = collinear_distances()
        m = TraceCovModel("exponential", 1.0, 1.0)
        expected = 9.0 / (3.0 + 2.0 * (2.0 * math.exp(-1.0) + math.exp(-2.0)))
        report = ess_functional(D, m)
        assert report.ess == pytest.approx(expected, rel=1e-12)
        assert report.ess == pytest.approx(1.89786, abs=1e-5)

    def test_pure_nugget_limit_gives_n(self):
        rng = derived_rng(31)
        D = pairwise_distances(rng.uniform(0, 100, size=(40, 2)))
        m = TraceCovModel("exponential", 1e-12, 50.0, nugget=1.0)
        assert ess_functional(D, m).ess == pytest.approx(40.0, abs=1e-6)

    def test_constant_covariogram_limit_gives_one(self):
        rng = derived_rng(32)
        D = pairwise_distances(rng.uniform(0, 10, size=(25, 2)))
        m = TraceCovModel("spherical", 1.0, 1e9)
        assert ess_functional(D, m).ess == pytest.approx(1.0, abs=1e-6)

    def test_bounds_on_random_inputs(self):
        rng = derived_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            D = pairwise_distances(rng.uniform(0, 300, size=(n, 2)))
            fam = ("exponential", "spherical", "gaussian")[int(rng.integers(3))]
            m = TraceCovModel(fam, float(rng.uniform(0.1, 5)), float(rng.uniform(1, 200)))
            ess = ess_functional(D, m).ess
            assert 1.0 - 1e-12 <= ess <= n * (1.0 + 1e-12)

    def test_appending_far_site_recursion(self):
        rng = derived_rng(34)
        xy = rng.uniform(0, 100, size=(12, 2))
        m = TraceCovModel("spherical", 2.0, 30.0)
        far = np.array([[500.0, 500.0]])
        e_n = ess_functional(pairwise_distances(xy), m).ess
        e_n1 = ess_functional(pairwise_distances(np.vstack([xy, far])), m).ess
        n = 12
        assert 1.0 / e_n1 == pytest.approx((n * n / e_n + 1.0) / (n + 1) ** 2, rel=1e-12)
        assert e_n1 > e_n

    def test_scale_invariance(self):
        D = collinear_distances()
        a = ess_functional(D, TraceCovModel("gaussian", 1.3, 2.0, nugget=0.4)).ess
        b = ess_functional(D, TraceCovModel("gaussian", 13.0, 2.0, nugget=4.0)).ess
        assert a == pytest.approx(b, rel=1e-12)

    def test_permutation_invariance_bitwise(self):
        rng = derived_rng(35)
        xy = rng.uniform(0, 50, size=(18, 2))
        m = TraceCovModel("exponential", 1.0, 20.0)
        perm = rng.permutation(18)
        a = ess_functional(pairwise_distances(xy), m).ess
        b = ess_functional(pairwise_distances(xy[perm]), m).ess
        assert a == b

    def test_matches_scalar_ess_through_correlation_matrix(self):
        rng = derived_rng(36)
        D = pairwise_distances(rng.uniform(0, 60, size=(9, 2)))
        m = TraceCovModel("gaussian", 2.5, 25.0)
        R = model_trace_cov(m, D) / m.sill
        assert ess_functional(D, m).ess == pytest.approx(ess_scalar(R), rel=1e-12)

    def test_nugget_enters_zero_lag_both_sides(self):
        # duplicated station: the off-diagonal zero distance also carries
        # the nugget, exactly as the diagonal does
        D = pairwise_distances(np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]]))
        m = TraceCovModel("exponential", 1.0, 5.0, nugget=0.5)
        sig0 = 1.5
        denom = 3 * sig0 + 2 * sig0 + 4 * math.exp(-2.0)
        assert ess_functional(D, m).ess == pytest.approx(9 * sig0 / denom, rel=1e-12)

    def test_report_fields(self):
        D = collinear_distances()
        rep = ess_functional(D, TraceCovModel("exponential", 1.0, 1.0))
        assert rep.n == 3
        assert rep.ratio == pytest.approx(rep.ess / 3.0)
        assert rep.recommended_subsample == math.ceil(rep.ess)
        assert rep.warnings == ()

    def test_validates_distance_matrix(self):
        m = TraceCovModel("exponential", 1.0, 1.0)
        with pytest.raises(ValidationError):
            ess_functional(np.array([[0.0, 1.0], [2.0, 0.0]]), m)
        with pytest.raises(ValidationError):
            ess_functional(np.array([[1.0, 1.0], [1.0, 0.0]]), m)

    def test_report_json(self, tmp_path):
        rep = ess_functional(collinear_distances(), TraceCovModel("exponential", 1.0, 1.0))
        path = tmp_path / "ess.json"
        rep.to_json(path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"n", "ess", "ratio", "recommended_subsample", "model", "warnings"}
        assert raw["model"]["family"] == "exponential"


class TestEssPlugin:
    def test_iid_noise_close_to_n(self):
        rng = derived_rng(37)
        grid = EvalGrid(np.linspace(0, 1, 22))
        xy = rng.uniform(0, 500, size=(200, 2))
        ds = make_dataset(rng.standard_normal((200, 22)), xy=xy, grid=grid)
        rep = ess_plugin(ds, "exponential")
        assert abs(rep.ess - 200.0) <= 20.0
        assert rep.model.family == "exponential"

    def test_recovers_known_field_roughly(self):
        grid = EvalGrid(np.linspace(0, 1, 22))
        model = TraceCovModel("exponential", 1.0, 100.0)
        spec = GaussFieldSpec(model, np.full(5, 0.2), grid)
        g = np.linspace(0, 1000, 15)
        xx, yy = np.meshgrid(g, g)
        locs = [PlanarCoord(float(x), float(y)) for x, y in zip(xx.ravel(), yy.ravel())]
        ds = gauss_field_simulate(spec, locs, seed=5)
        truth = ess_functional(pairwise_distances(ds.xy), model).ess
        est = ess_plugin(ds, "exponential").ess
        assert abs(est - truth) / truth < 0.5  # single replicate, loose

    def test_embeds_fit_warnings(self):
        grid = EvalGrid(np.linspace(0, 1, 5))
        rng = derived_rng(38)
        xy = rng.uniform(0, 100, size=(6, 2))
        curves = np.tile(rng.standard_normal(5), (6, 1))  # identical curves
        ds = make_dataset(curves, xy=xy, grid=grid)
        rep = ess_plugin(ds, "exponential")
        assert any("flat" in w for w in rep.warnings)

    @pytest.mark.parametrize(
        "family,nugget",
        [("exponential", "zero"), ("spherical", "zero"), ("gaussian", "zero"),
         ("exponential", "free")],
    )
    def test_streamed_sum_matches_dense_ess(self, family, nugget):
        # duplicated sites put off-diagonal zero distances in the sum,
        # where a freed nugget must enter as it does on the diagonal
        rng = derived_rng(40)
        n, m = 240, 8
        xy = rng.uniform(0.0, 300.0, size=(n, 2))
        xy[n // 2:] = xy[: n // 2]
        signal = np.sin(xy[:, :1] / 60.0 + np.linspace(0.0, 1.0, m))
        curves = signal + 0.8 * rng.standard_normal((n, m))
        ds = make_dataset(curves, xy=xy, grid=EvalGrid(np.linspace(0.0, 1.0, m)))
        rep = ess_plugin(ds, family, opts=FitOptions(nugget=nugget))
        if nugget == "free":
            assert rep.model.nugget > 0.0
        dense = ess_functional(pairwise_distances(ds.xy), rep.model)
        assert rep.ess == pytest.approx(dense.ess, rel=1e-12)

    def test_permutation_invariance_bitwise(self):
        rng = derived_rng(41)
        for ds in (tied_dataset(rng, 45, 6, spread=300.0), tied_dataset(rng, 60, 5)):
            perm = rng.permutation(ds.n_curves)
            for opts in (FitOptions(), FitOptions(nugget="free")):
                a = ess_plugin(ds, "exponential", opts=opts)
                b = ess_plugin(ds.subset(perm), "exponential", opts=opts)
                assert a.ess == b.ess
                assert a.model == b.model
                assert a.warnings == b.warnings

    def test_pair_stages_never_form_an_n_by_n_array(self):
        # one n x n float64 array is 32 MB at n = 2000; the streamed pair
        # stages need O(n m) memory
        rng = derived_rng(42)
        n = 2000
        ds = make_dataset(
            rng.standard_normal((n, 22)),
            xy=rng.uniform(0.0, 1000.0, size=(n, 2)),
            grid=EvalGrid(np.linspace(0.0, 1.0, 22)),
        )
        tracemalloc.start()
        try:
            ess_plugin(ds, "exponential")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestEssReportValidation:
    def test_requires_positive_ess(self):
        m = TraceCovModel("exponential", 1.0, 1.0)
        with pytest.raises(ValidationError):
            EssReport(n=3, ess=0.0, model=m)
        with pytest.raises(ValidationError):
            EssReport(n=0, ess=1.0, model=m)
