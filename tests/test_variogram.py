import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import fess.dataset
import fess.variogram

from fess import (
    EmpiricalVariogram,
    EstimationError,
    EvalGrid,
    LagBins,
    TraceCovModel,
    ValidationError,
    default_lag_bins,
    empirical_trace_covariogram,
    empirical_trace_variogram,
    fit_model,
    model_trace_cov,
    model_trace_variogram,
    pairwise_distances,
    trapz_inner,
)
from fess.dataset import _write_json
from fess.ess import ess_plugin
from fess.rng import derived_rng

from conftest import FRESH_CORR, make_dataset, random_dataset, tied_dataset

FAMILIES = ("exponential", "spherical", "gaussian")


class TestLagBins:
    def test_validation(self):
        with pytest.raises(ValidationError, match="two edges"):
            LagBins([5.0])
        with pytest.raises(ValidationError, match="non-negative"):
            LagBins([-1.0, 2.0])
        with pytest.raises(ValidationError, match="strictly increasing"):
            LagBins([0.0, 0.0, 1.0])
        for last in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="finite"):
                LagBins([0.0, 1.0, last])

    def test_index_of_conventions(self):
        bins = LagBins([0.0, 1.0, 2.0])
        h = np.array([0.0, 0.5, 1.0, 2.0, 2.5])
        assert list(bins.index_of(h)) == [0, 0, 1, 1, -1]

    @pytest.mark.parametrize(
        "edges", [np.linspace(0.0, 10.0, 6), [0.0, 1.0, 3.0, 4.5]], ids=["equal", "unequal"]
    )
    def test_nan_distance_rejected(self, edges):
        bins = LagBins(edges)
        assert (bins._width is None) == (len(edges) == 4)
        # no cast warning or bare IndexError first, whichever path bins it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (np.array([np.nan]), np.array([[1.0, np.nan]]), np.nan):
                with pytest.raises(ValidationError, match="NaN"):
                    bins.index_of(h)

    @staticmethod
    def digitize_reference(bins, h):
        idx = np.digitize(h, bins.edges) - 1
        idx[h == bins.edges[-1]] = len(bins) - 1
        idx[(idx < 0) | (idx >= len(bins))] = -1
        return idx

    @pytest.mark.parametrize(
        "edges",
        [
            np.linspace(0.0, 1234.5, 16),
            np.linspace(7.25, 19.0, 9),  # a non-zero first edge
            np.linspace(0.0, 3.0, 1001),  # 1000 bins
            np.linspace(0.0, 1.0, 2),
            np.linspace(1e6, 1e6 + 0.7, 8),
        ],
    )
    def test_arithmetic_binning_matches_digitize(self, edges):
        bins = LagBins(edges)
        assert bins._width is not None  # equal widths take the arithmetic path
        rng = derived_rng(30)
        span = edges[-1] - edges[0]
        h = np.concatenate([
            rng.uniform(edges[0] - 0.1 * span, edges[-1] + 0.1 * span, 20000),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            [fess.dataset._NOT_A_PAIR, 0.0],
        ])
        assert np.array_equal(bins.index_of(h), self.digitize_reference(bins, h))
        # pair blocks are 2-d
        block = h[:20000].reshape(40, 500)
        assert np.array_equal(bins.index_of(block), self.digitize_reference(bins, block))

    def test_arithmetic_binning_matches_digitize_on_random_linspace_edges(self):
        # wide offsets and spans: the arithmetic slot is within one of the
        # true one and the neighbouring-edge comparisons correct it, so both
        # routes agree on every edge and the floats beside it
        rng = derived_rng(33)
        checked = 0
        while checked < 600:
            first = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6.0, 9.0)
            span = 10.0 ** rng.uniform(-6.0, 9.0)
            n_bins = int(np.exp(rng.uniform(0.0, math.log(5000.0))))
            edges = np.linspace(first, first + span, n_bins + 1)
            if not np.all(np.diff(edges) > 0):
                continue  # too many bins for the span at this offset
            bins = LagBins(edges)
            assert bins._width is not None
            h = np.concatenate([
                edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            ])
            assert np.array_equal(bins._arithmetic_slots(h), bins._digitize_slots(h)), (
                first, span, n_bins,
            )
            checked += 1

    def test_unequal_edges_take_the_digitize_path(self):
        bins = LagBins([0.0, 1.0, 3.0, 4.5])
        assert bins._width is None
        h = np.array([-1.0, 0.0, 0.5, 1.0, np.nextafter(3.0, 0.0), 3.0, 4.5, 4.6])
        assert list(bins.index_of(h)) == [-1, 0, 0, 1, 1, 2, 2, -1]

    @pytest.mark.parametrize("first", [0.0, 7.25])
    @pytest.mark.parametrize("n_bins", [1, 2, 15, 300])
    def test_unequal_edges_match_digitize(self, first, n_bins):
        rng = derived_rng(32)
        edges = first + np.cumsum(np.concatenate([[0.0], rng.uniform(0.01, 50.0, n_bins)]))
        bins = LagBins(edges)
        assert (bins._width is None) == (n_bins > 1)
        span = edges[-1] - edges[0]
        h = np.concatenate([
            rng.uniform(edges[0] - 0.1 * span, edges[-1] + 0.1 * span, 5000),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            [fess.dataset._NOT_A_PAIR, 0.0],
        ])
        assert np.array_equal(bins.index_of(h), self.digitize_reference(bins, h))
        block = h[:5000].reshape(50, 100)
        assert np.array_equal(bins.index_of(block), self.digitize_reference(bins, block))

    @pytest.mark.parametrize("n_bins", [2.5, 3.0, True, 0, -1, "3"])
    def test_equal_width_takes_a_positive_integer_bin_count(self, n_bins):
        with pytest.raises(ValidationError, match="n_bins must be a positive integer"):
            LagBins.equal_width(100.0, n_bins)

    def test_default_bins_span_half_max(self, monkeypatch):
        ds = make_dataset(np.eye(2), xy=[[0.0, 0.0], [100.0, 0.0]])
        bins = default_lag_bins(ds, n_bins=10)
        assert len(bins) == 10
        assert bins.edges[0] == 0.0 and bins.edges[-1] == 50.0
        # duplicate sites and rows, spread over several row blocks
        ds = tied_dataset(derived_rng(21), 31, 4)
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 4 * 31 * 4)
        assert len(fess.dataset._pair_spans(31, 4)) >= 5
        for k in (1, 7, 15):
            ref = LagBins.equal_width(np.max(pairwise_distances(ds.xy)) / 2.0, k)
            assert np.array_equal(default_lag_bins(ds, k).edges, ref.edges)
        for xy in ([[3.0, 4.0]] * 3, [[3.0, 4.0]]):
            with pytest.raises(ValidationError, match="all locations coincide"):
                default_lag_bins(make_dataset(np.eye(len(xy), 2), xy=xy))

    @pytest.mark.parametrize("n_bins", [0, -1, 2.5, True, [3]])
    def test_default_bins_are_shared_per_lag_and_count(self, n_bins):
        rng = derived_rng(22)
        xy = rng.uniform(0.0, 100.0, size=(12, 2))
        ds = make_dataset(rng.standard_normal((12, 3)), xy=xy)
        other = make_dataset(rng.standard_normal((12, 3)), xy=xy.copy())
        bins = default_lag_bins(ds, 7)
        assert default_lag_bins(other, 7) is bins
        assert default_lag_bins(ds) is not bins and len(default_lag_bins(ds)) == 15
        assert not bins.edges.flags.writeable and not bins.centers.flags.writeable
        with pytest.raises(ValidationError, match="n_bins must be a positive integer"):
            default_lag_bins(ds, n_bins)

    def test_hull_max_distance_is_the_pair_maximum(self, monkeypatch):
        passes = []

        def counted(f):
            def wrapper(*args, **kwargs):
                passes.append(f.__name__)
                return f(*args, **kwargs)
            return wrapper

        # the hull maximum lives in fess.dataset, default_lag_bins in
        # fess.variogram: neither may fall back to the distances of every pair
        for module, name in [
            (fess.dataset, "_pair_map"), (fess.dataset, "_block_distances"),
            (fess.variogram, "_pair_map"),
        ]:
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        rng = derived_rng(22)
        lattice = np.array([(i, j) for i in range(9) for j in range(7)], dtype=float)
        dup = rng.uniform(-500.0, 500.0, size=(40, 2))
        line = np.linspace(-3.0, 7.0, 25)
        angle = rng.uniform(0.0, 2.0 * math.pi, 200)
        # sites on the four edges of an axis-aligned rectangle: its corners
        # are extreme in several directions, and sites tie in x and in y
        s = rng.uniform(0.0, 1.0, 160)
        rectangle = np.vstack([
            np.column_stack([40.0 * s[:40], np.zeros(40)]),
            np.column_stack([40.0 * s[40:80], np.full(40, 7.0)]),
            np.column_stack([np.zeros(40), 7.0 * s[80:120]]),
            np.column_stack([np.full(40, 40.0), 7.0 * s[120:]]),
        ])
        thin = np.column_stack([rng.uniform(-1e3, 1e3, 300), rng.uniform(-1e-3, 1e-3, 300)])
        turn = np.array([[math.cos(0.3), math.sin(0.3)], [-math.sin(0.3), math.cos(0.3)]])
        cases = [
            ("random", rng.uniform(-1e3, 1e3, size=(300, 2))),
            ("random", rng.normal(5e3, 1.0, size=(50, 2))),
            ("lattice", lattice * math.pi),
            ("duplicated", np.vstack([dup, dup[::2], dup[:3]])),
            ("collinear", np.column_stack([line, 0.3 * line + 1.0])),
            ("two sites", [[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]]),
            ("circle", 250.0 * np.column_stack([np.cos(angle), np.sin(angle)]) + 3e3),
            ("rectangle edges", rectangle),
            ("thin, rotated 0.3 rad", thin @ turn + [2e3, -1e3]),
            # most sites of a noisy anti-diagonal are running extremes of y
            ("anti-diagonal transect", np.column_stack([s, rng.normal(0.0, 1e-3, 160) - s]) * 1e3),
            ("single site", [[3.0, 4.0]]),
        ]
        for name, xy in cases:
            xy = np.asarray(xy, dtype=float)
            ds = make_dataset(rng.standard_normal((len(xy), 3)), xy=xy)
            passes.clear()
            fess.dataset._site_record.cache_clear()
            dmax = fess.dataset._site_record(ds.xy.tobytes()).diameter
            assert dmax == np.max(pairwise_distances(ds.xy)), name
            assert not passes, name
        assert dmax == 0.0
        with pytest.raises(ValidationError, match="all locations coincide"):
            default_lag_bins(ds)

    def test_hull_max_distance_memory_is_bounded(self):
        # every site on a circle is a hull vertex; the hull's distances are
        # compared in row blocks, not as dense 3000 x 3000 arrays (72 MB each)
        t = np.linspace(0.0, 2.0 * math.pi, 3000, endpoint=False)
        xy = 500.0 * np.column_stack([np.cos(t), np.sin(t)])
        ds = make_dataset(np.zeros((len(xy), 2)), xy=xy)
        fess.dataset._site_record.cache_clear()
        tracemalloc.start()
        try:
            dmax = fess.dataset._site_record(ds.xy.tobytes()).diameter
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert dmax == np.max(pairwise_distances(xy))


class TestModelFamilies:
    def test_exponential_at_range(self):
        m = TraceCovModel("exponential", 2.0, 1.0)
        assert model_trace_cov(m, 1.0) == pytest.approx(2.0 * np.exp(-1.0))
        assert model_trace_cov(m, 1.0) == pytest.approx(0.735759, abs=1e-6)

    def test_spherical_vanishes_past_range(self):
        m = TraceCovModel("spherical", 3.0, 10.0)
        assert model_trace_cov(m, 10.0) == 0.0
        assert model_trace_cov(m, 25.0) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sill_at_zero_lag(self, family):
        m = TraceCovModel(family, 1.7, 50.0)
        assert model_trace_cov(m, 0.0) == pytest.approx(1.7)

    def test_nugget_only_at_exact_zero(self):
        m = TraceCovModel("exponential", 1.0, 10.0, nugget=0.5)
        assert model_trace_cov(m, 0.0) == pytest.approx(1.5)
        assert model_trace_cov(m, 1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_variogram_zero_at_origin(self):
        for family in FAMILIES:
            m = TraceCovModel(family, 2.0, 5.0, nugget=0.3)
            assert model_trace_variogram(m, 0.0) == 0.0

    def test_negative_distance_rejected(self):
        m = TraceCovModel("gaussian", 2.0, 5.0, nugget=0.3)
        for f in (model_trace_cov, model_trace_variogram):
            with pytest.raises(ValidationError, match="non-negative"):
                f(m, np.array([1.0, -1e-9]))

    def test_nan_distance_rejected(self):
        m = TraceCovModel("exponential", 2.0, 5.0, nugget=0.3)
        for f in (model_trace_cov, model_trace_variogram):
            for h in (math.nan, np.array([1.0, np.nan])):
                with pytest.raises(ValidationError, match="NaN"):
                    f(m, h)

    def test_exponential_variogram_reaches_sill(self):
        m = TraceCovModel("exponential", 1.0, 2.0)
        assert model_trace_variogram(m, 1e9) == pytest.approx(1.0)

    def test_spherical_paper_fit_reaches_sill_at_range(self):
        m = TraceCovModel("spherical", 1.769e-10, 186.8)
        assert model_trace_variogram(m, 186.8) == pytest.approx(1.769e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cov_plus_variogram_identity(self, family):
        m = TraceCovModel(family, 2.3, 40.0, nugget=0.7)
        h = np.linspace(0.1, 200.0, 57)
        total = model_trace_cov(m, h) + model_trace_variogram(m, h)
        assert np.allclose(total, m.sill + m.nugget, rtol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cov_maximal_at_zero_and_variogram_monotone(self, family):
        rng = derived_rng(21)
        for _ in range(20):
            m = TraceCovModel(
                family,
                float(rng.uniform(0.1, 5.0)),
                float(rng.uniform(1.0, 100.0)),
                float(rng.uniform(0.0, 1.0)),
            )
            h = np.linspace(0.0, 400.0, 301)
            cov = model_trace_cov(m, h)
            assert np.all(cov >= 0.0)
            assert np.all(cov <= model_trace_cov(m, 0.0))
            gamma = model_trace_variogram(m, h)
            assert np.all(np.diff(gamma) >= -1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            TraceCovModel("exp", 1.0, 1.0)
        with pytest.raises(ValidationError):
            TraceCovModel("exponential", 0.0, 1.0)
        with pytest.raises(ValidationError):
            TraceCovModel("exponential", 1.0, -1.0)
        with pytest.raises(ValidationError):
            TraceCovModel("exponential", 1.0, 1.0, nugget=-0.1)


# zero, subnormals, the range and its neighbours, where exp underflows,
# and past the float range once squared or cubed
EDGE_U = np.array([
    0.0, 5e-324, 1e-310, np.finfo(float).tiny, 0.5,
    np.nextafter(1.0, -np.inf), 1.0, np.nextafter(1.0, np.inf),
    *np.arange(745.0, 801.0, 5.0), 1e300, np.inf, np.nan,
])


def fresh_model_trace_cov(model, h):
    """model_trace_cov as computed on a fresh quotient, a numpy scalar for a scalar h."""
    h_arr = np.asarray(h, dtype=float)
    c = model.sill * FRESH_CORR[model.family](h_arr / model.range_km)
    return float(c + np.where(h_arr == 0.0, model.nugget, 0.0))


class TestInPlaceFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_family_overwrites_its_argument_with_the_same_bits(self, family):
        rng = derived_rng(91)
        inputs = [
            EDGE_U,
            rng.uniform(0.0, 3.0, 4001),
            np.linspace(0.0, 1.0, 257),  # every u within the range
            np.linspace(1.0, 9.0, 257)[1:],  # every u past it
            # the (ranges x bins) quotients of the fit's profile
            np.linspace(0.05, 1.0, 15)[None, :] / np.exp(np.linspace(-3.0, 2.0, 41))[:, None],
            *(np.array(u) for u in EDGE_U),  # 0-d
        ]
        with np.errstate(all="ignore"):
            for u in inputs:
                ref = np.asarray(FRESH_CORR[family](u))
                arg = u.copy()
                out = fess.variogram._CORR[family](arg)
                assert out is arg
                assert out.shape == u.shape
                assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_scalar_distances_give_the_fresh_quotients_value(self, family):
        with np.errstate(all="ignore"):
            for range_km in (1.0, 186.8):
                m = TraceCovModel(family, 1.7, range_km, nugget=0.3)
                for h in EDGE_U[~np.isnan(EDGE_U)] * range_km:
                    for arg in (float(h), np.array(h)):
                        value = model_trace_cov(m, arg)
                        assert type(value) is float
                        assert np.float64(value).tobytes() == np.float64(
                            fresh_model_trace_cov(m, arg)
                        ).tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_scalar_distance_gives_its_value_within_an_array(self, family):
        m = TraceCovModel(family, 2.3, 40.0, nugget=0.7)
        h = derived_rng(92).uniform(0.0, 80.0, 2000)
        on_array = model_trace_cov(m, h)
        on_scalars = [model_trace_cov(m, float(x)) for x in h]
        assert np.asarray(on_scalars).tobytes() == on_array.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("free_nugget", [False, True])
    def test_profile_residuals_keep_their_bits(self, family, free_nugget):
        rng = derived_rng(93)
        hn = np.sort(rng.uniform(0.05, 1.0, 12))
        hn[-1] = 1.0
        gn = 0.2 + (1.0 - FRESH_CORR[family](hn / 0.3)) + rng.normal(0.0, 0.02, hn.size)
        log_range = np.linspace(-4.0, 2.0, 61)
        sill, nugget, sse = fess.variogram._profile(family, hn, gn, log_range, free_nugget)
        f = 1.0 - FRESH_CORR[family](hn[None, :] / np.exp(log_range)[:, None])
        resid = gn - nugget[:, None] - sill[:, None] * f
        assert sse.tobytes() == np.einsum("rb,rb->r", resid, resid).tobytes()
        assert np.any(nugget > 0) == free_nugget


class TestEmpiricalVariogram:
    def test_identical_curves_give_zero(self):
        X = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        ds = make_dataset(X, xy=[[0, 0], [1, 0], [2, 0], [5, 0]])
        ev = empirical_trace_variogram(ds, LagBins([0.0, 3.0, 6.0]))
        assert np.all(ev.gamma[ev.occupied] == 0.0)
        assert ev.sigma0 == 0.0

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 9, 22, 23, 41])
    def test_repeated_curves_give_exactly_zero(self, m):
        # each curve is repeated at its own site, far from the others, so
        # the first bin holds only pairs of equal curves; 9 and 23 levels
        # end the lane kernel's groups of 8 in an odd last level
        rng = derived_rng(31)
        k = 12
        curves = 1e3 * rng.standard_normal((k, m)) + rng.uniform(-5e4, 5e4, size=m)
        xy = np.column_stack([1000.0 * np.arange(k), np.zeros(k)])
        grid = EvalGrid(np.cumsum(rng.uniform(0.1, 1.0, m)))
        ds = make_dataset(np.repeat(curves, 3, axis=0), xy=np.repeat(xy, 3, axis=0), grid=grid)
        ev = empirical_trace_variogram(ds, LagBins([0.0, 1.0, 20000.0]))
        assert ev.counts[0] == 3 * k
        assert ev.gamma[0] == 0.0
        assert ev.gamma[1] > 0.0

    def test_opposite_pair_value(self):
        grid = EvalGrid(np.linspace(0.0, 1.0, 11))
        a = np.sin(np.linspace(0.0, 3.0, 11))
        ds = make_dataset(np.vstack([a, -a]), xy=[[0, 0], [2, 0]], grid=grid)
        ev = empirical_trace_variogram(ds, LagBins([0.0, 4.0]))
        expected = 2.0 * trapz_inner(a, a, grid)
        assert ev.gamma[0] == pytest.approx(expected, rel=1e-12)
        assert ev.counts[0] == 1
        # occupied bin reports the actual pair distance
        assert ev.centers[0] == 2.0

    def test_covariogram_opposite_pair(self):
        grid = EvalGrid(np.linspace(0.0, 1.0, 11))
        a = np.cos(np.linspace(0.0, 2.0, 11))
        ds = make_dataset(np.vstack([a, -a]), xy=[[0, 0], [2, 0]], grid=grid)
        ec = empirical_trace_covariogram(ds, LagBins([0.0, 4.0]))
        assert ec.gamma[0] == pytest.approx(-trapz_inner(a, a, grid), rel=1e-12)

    def test_covariogram_identical_two_curves(self):
        X = np.tile(np.array([1.0, -2.0, 0.5]), (2, 1))
        ds = make_dataset(X, xy=[[0, 0], [1, 0]])
        ec = empirical_trace_covariogram(ds, LagBins([0.0, 2.0]))
        assert ec.gamma[0] == 0.0 and ec.sigma0 == 0.0

    def test_sigma0_matches_between_estimators(self):
        rng = derived_rng(22)
        ds = random_dataset(rng, 12, 7)
        bins = default_lag_bins(ds)
        ev = empirical_trace_variogram(ds, bins)
        ec = empirical_trace_covariogram(ds, bins)
        assert ev.sigma0 == ec.sigma0

    def test_sigma0_is_the_mean_squared_norm_of_the_centred_curves(self):
        rng = derived_rng(25)
        cases = [random_dataset(rng, 40, 9), tied_dataset(rng, 31, 4), tied_dataset(rng, 60, 22)]
        for ds in cases:
            dev = ds.curves - ds.curves.mean(axis=0)
            expected = np.sum(np.sort((dev**2) @ ds.grid.quad_weights)) / ds.n_curves
            bins = default_lag_bins(ds)
            for estimator in (empirical_trace_variogram, empirical_trace_covariogram):
                assert estimator(ds, bins).sigma0 == pytest.approx(expected, rel=1e-12, abs=0.0)
        # one curve repeated at every site: the centred curves are exactly 0
        curve = rng.integers(-500, 500, 7) / 64.0
        ds = make_dataset(np.tile(curve, (13, 1)), xy=rng.uniform(0.0, 100.0, (13, 2)))
        assert empirical_trace_variogram(ds, default_lag_bins(ds)).sigma0 == 0.0

    @pytest.mark.parametrize("threads", [True, False, 2.0, 0])
    def test_thread_count_must_be_a_positive_integer(self, threads):
        ds = random_dataset(derived_rng(26), 10, 3)
        with pytest.raises(ValidationError, match="threads must be a positive integer"):
            empirical_trace_variogram(ds, default_lag_bins(ds), threads=threads)

    def test_gamma_nonnegative(self):
        rng = derived_rng(23)
        for _ in range(20):
            ds = random_dataset(rng, 10, 5)
            ev = empirical_trace_variogram(
                ds, default_lag_bins(ds, 5)
            )
            assert np.all(ev.gamma[ev.occupied] >= 0.0)

    def test_permutation_invariance_bitwise(self):
        rng = derived_rng(24)
        ds = random_dataset(rng, 15, 6)
        perm = rng.permutation(15)
        # duplicate sites and fully duplicated rows tie in the canonical order
        cases = [(ds, perm)] + [
            (tied, rng.permutation(tied.n_curves))
            for tied in (tied_dataset(rng, 15, 6), tied_dataset(rng, 31, 4))
        ]
        for ds, perm in cases:
            ds_p = ds.subset(perm)
            bins = default_lag_bins(ds, 6)
            for estimator in (empirical_trace_variogram, empirical_trace_covariogram):
                a = estimator(ds, bins)
                b = estimator(ds_p, bins)
                assert np.array_equal(a.gamma, b.gamma, equal_nan=True)
                assert np.array_equal(a.counts, b.counts)
                assert np.array_equal(a.centers, b.centers)
                assert a.sigma0 == b.sigma0

    def test_no_pairs_in_any_bin_raises(self):
        ds = make_dataset(np.zeros((3, 2)), xy=[[0, 0], [1, 0], [2, 0]])
        with pytest.raises(EstimationError, match="occupancy"):
            empirical_trace_variogram(ds, LagBins([10.0, 20.0]))

    def test_duplicate_stations_fall_in_first_bin(self):
        ds = make_dataset(
            np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]),
            xy=[[0, 0], [0, 0], [3, 0]],
        )
        ev = empirical_trace_variogram(ds, LagBins([0.0, 1.0, 4.0]))
        assert ev.counts[0] == 1  # the duplicated pair, at h = 0
        assert ev.centers[0] == 0.0

    def test_iid_curves_flatten_near_sigma0(self):
        # Monte Carlo: iid curves with per-level variance v on 22 uniform
        # levels over [10, 220]; the trace-variogram of independent
        # curves is flat at v * span (the trace variance) for every
        # positive lag. 200 replicates, per-bin 3-standard-error bands.
        rng = derived_rng(25)
        v = 0.7
        grid = EvalGrid(np.linspace(10.0, 220.0, 22))
        bins = LagBins(np.linspace(0.0, 50.0, 6))
        n = 24
        reps = 200
        per_bin = np.full((reps, len(bins)), np.nan)
        sigma0s = np.empty(reps)
        for r in range(reps):
            xy = rng.uniform(0.0, 100.0, size=(n, 2))
            curves = np.sqrt(v) * rng.standard_normal((n, 22))
            ds = make_dataset(curves, xy=xy, grid=grid)
            ev = empirical_trace_variogram(ds, bins)
            per_bin[r, ev.occupied] = ev.gamma[ev.occupied]
            sigma0s[r] = ev.sigma0
        lvl = v * (220.0 - 10.0)
        for l in range(len(bins)):
            vals = per_bin[~np.isnan(per_bin[:, l]), l]
            assert vals.size > 100
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean() - lvl) < 3.0 * se
        # sigma0 estimates the same level (up to its 1/n mean-removal bias)
        se0 = sigma0s.std(ddof=1) / np.sqrt(reps)
        assert abs(sigma0s.mean() - (1.0 - 1.0 / n) * lvl) < 3.0 * se0

    def test_csv_round_trip(self, tmp_path):
        rng = derived_rng(26)
        ds = random_dataset(rng, 10, 4)
        ev = empirical_trace_variogram(ds, default_lag_bins(ds, 5))
        path = tmp_path / "emp.csv"
        ev.to_csv(path)
        back = EmpiricalVariogram.from_csv(path)
        assert np.array_equal(back.centers, ev.centers)
        assert np.array_equal(back.gamma, ev.gamma, equal_nan=True)
        assert np.array_equal(back.counts, ev.counts)
        assert back.sigma0 is None


class TestLaneKernel:
    """The variogram's Gram kernel sums each of numpy's two einsum lanes
    level by level, which gives einsum's dot product bit for bit."""

    def test_lane_levels(self):
        lanes = fess.variogram._lane_levels
        assert lanes(2) == ([0], [1])
        assert lanes(3) == ([0, 2], [1])
        assert lanes(9) == ([6, 4, 2, 0, 8], [7, 5, 3, 1])
        assert lanes(22) == (
            [6, 4, 2, 0, 14, 12, 10, 8, 16, 18, 20], [7, 5, 3, 1, 15, 13, 11, 9, 17, 19, 21]
        )
        for m in range(2, 42):
            lane0, lane1 = lanes(m)
            assert sorted(lane0 + lane1) == list(range(m))
            assert len(lane0) - len(lane1) == m % 2

    @pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
    def test_lane_kernel_is_einsum_bit_for_bit(self, scale):
        rng = derived_rng(32)
        for m in range(2, 42):
            a = scale * (rng.standard_normal((40, m)) + rng.uniform(-50.0, 50.0, size=m))
            w = EvalGrid(np.cumsum(rng.uniform(0.1, 1.0, m))).quad_weights
            lane0, lane1 = fess.variogram._lane_levels(m)
            levels = lane0 + lane1
            # level-major and C-ordered, as the pair blocks read them
            a_w = np.ascontiguousarray((a * w)[:, levels].T)
            a_t = np.ascontiguousarray(a[:, levels].T)
            kernel = fess.variogram._lane_dot("mk,mc->kc", a_w[:, 5:17], a_t[:, 5:33], len(lane0))
            ref = np.einsum("km,cm->kc", a[5:17] * w, a[5:33])
            assert kernel.tobytes() == ref.tobytes(), m
            norms = fess.variogram._lane_dot("mk,mk->k", a_w, a_t, len(lane0))
            assert norms.tobytes() == np.einsum("km,km->k", a * w, a).tobytes(), m
            # the norms are the kernel's self-products
            assert norms[5:17].tobytes() == np.diag(kernel).copy().tobytes(), m


class TestCutBlockTails:
    """A kept block holds its bin slots over row tiles, each from an even
    column at or left of its first pair to its last column with a pair in a
    bin; pair values are computed on the tiles only, and every estimate
    equals a per-block sequential sum over the canonical pairs."""

    @staticmethod
    def brute_force(ds, bins, covariogram):
        """``(centers, gamma, counts, sigma0)`` from each canonical block's
        pairs summed one by one in row-major order, the blocks in order."""
        sites = fess.dataset._site_record(ds.xy.tobytes())
        order = fess.dataset._canonical_order(ds, sites)
        dev = ds.curves[order] - fess.dataset._column_means(ds.curves)
        w = ds.grid.quad_weights
        g = np.einsum("km,cm->kc", dev * w, dev)
        norms = np.einsum("km,km->k", dev * w, dev)
        d = pairwise_distances(ds.xy[order])
        slot = bins.index_of(d)
        n, n_bins = ds.n_curves, len(bins)
        sums, hsums, counts = [0.0] * n_bins, [0.0] * n_bins, [0] * n_bins
        for i0, i1 in fess.dataset._pair_spans(n, ds.n_levels):
            block, hblock = [0.0] * n_bins, [0.0] * n_bins
            for k in range(i0, i1):
                for c in range(k + 1, n):
                    b = slot[k, c]
                    if b < 0:
                        continue
                    gkc = float(g[k, c])
                    block[b] += gkc if covariogram else max(-2.0 * gkc + norms[k] + norms[c], 0.0)
                    hblock[b] += float(d[k, c])
                    counts[b] += 1
            sums = [s + v for s, v in zip(sums, block)]
            hsums = [s + v for s, v in zip(hsums, hblock)]
        counts = np.array(counts)
        occ = counts > 0
        centers = np.array(bins.centers)
        centers[occ] = np.array(hsums)[occ] / counts[occ]
        gamma = np.full(n_bins, np.nan)
        gamma[occ] = np.array(sums)[occ] / ((1 if covariogram else 2.0) * counts[occ])
        return centers, gamma, counts, np.sum(np.sort(norms)) / n

    @staticmethod
    def tiles(ds, bins):
        """Each kept block's tiles ``(r0, r1, c0, c1)``, checked against its
        distances: rows in order in tiles of ``_PAIR_TILE_ROWS``; columns from
        an even one (counted over all rows) at or left of the tile's first
        pair to its last column with a pair in a bin, or one past it (the
        unused last column at an odd n) to an even width; no pair in a bin
        outside the tiles; and the slots of the tiles, concatenated, as the
        kept slots, 0 in the unused column."""
        sites = fess.dataset._site_record(ds.xy.tobytes())
        xy = ds.xy[fess.dataset._canonical_order(ds, sites)]
        key, table = sites.kept["slots"]
        height = fess.dataset._PAIR_TILE_ROWS
        n = ds.n_curves
        tiles = []
        for (i0, i1), (slots, block_tiles, _, _) in zip(key[0], table):
            d = fess.dataset._block_distances(xy, i0, i1)
            binned = bins.index_of(d) >= 0
            b, w = d.shape
            assert [t[:2] for t in block_tiles] == [
                (r0, min(r0 + height, b)) for r0 in range(0, b, height)
            ]
            covered = np.zeros_like(binned)
            for r0, r1, c0, c1 in block_tiles:
                assert (i0 + c0) % 2 == 0 and r0 <= c0 <= r0 + 1
                cols = np.flatnonzero(np.any(binned[r0:r1], axis=0))
                last = cols[-1] + 1 if cols.size else c0
                assert (c1 - c0) % 2 == 0 and c1 - last in (0, 1) and c1 <= w + n % 2
                covered[r0:r1, c0:c1] = True
            assert not np.any(binned & ~covered)
            padded = np.pad(bins._slots(d), ((0, 0), (0, n % 2)))
            assert np.array_equal(slots, np.concatenate(
                [padded[r0:r1, c0:c1].ravel() for r0, r1, c0, c1 in block_tiles]
            ))
            tiles += block_tiles
        return tiles

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cut_blocks_sum_like_brute_force(self, threads, monkeypatch):
        self.check_sums(150, 3, threads, monkeypatch)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tall_blocks_at_odd_n_sum_like_brute_force(self, threads, monkeypatch):
        # blocks of 41-64 rows, taller than a tile
        self.check_sums(151, 45, threads, monkeypatch)

    def check_sums(self, n, rows, threads, monkeypatch):
        """Cold, filling and warm variograms and covariograms of n sites in
        blocks of about ``rows`` rows on ``threads`` workers, against
        :meth:`brute_force`, with their tiles checked."""
        m = 9
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", rows * n * m)
        # both estimators on ``threads`` workers, whatever the cores
        monkeypatch.setattr(fess.dataset, "_MIN_BLOCKS_PER_WORKER", 1)
        worker_count = fess.dataset._worker_count
        monkeypatch.setattr(
            fess.dataset, "_worker_count", lambda t, n_blocks: worker_count(threads, n_blocks)
        )
        spans = fess.dataset._pair_spans(n, m)
        assert worker_count(threads, len(spans)) == threads
        tall = max(i1 - i0 for i0, i1 in spans) > fess.dataset._PAIR_TILE_ROWS
        assert tall == (rows > fess.dataset._PAIR_TILE_ROWS)
        rng = derived_rng(33)
        xy = rng.uniform(0.0, 1000.0, size=(n, 2))
        xy[100:110] = xy[:10]  # coincident pairs, below the first edge of one bin set
        curves = rng.standard_normal((n, m)) + np.sin(xy[:, :1] / 200.0)
        ds = make_dataset(curves, xy=xy, grid=EvalGrid(np.cumsum(rng.uniform(0.1, 1.0, m))))
        # short bins (arithmetic slots from 0, searchsorted slots from 5 km)
        # and bins past most pairs
        for bins in (LagBins.equal_width(40.0, 3), LagBins([5.0, 25.0, 60.0]),
                     LagBins.equal_width(900.0, 6)):
            expected = {
                covariogram: self.brute_force(ds, bins, covariogram)
                for covariogram in (False, True)
            }
            for first, second in [(False, True), (True, False)]:
                fess.dataset._site_record.cache_clear()
                # cold, filling, then warm passes of the first; warm of the second
                for covariogram in (first, first, first, second):
                    if covariogram:
                        ev = empirical_trace_covariogram(ds, bins)
                    else:
                        ev = empirical_trace_variogram(ds, bins, threads)
                    centers, gamma, counts, sigma0 = expected[covariogram]
                    assert ev.centers.tobytes() == centers.tobytes()
                    assert ev.gamma.tobytes() == gamma.tobytes()
                    assert np.array_equal(ev.counts, counts)
                    assert ev.sigma0 == sigma0
            tiles = self.tiles(ds, bins)
            widths = [c1 - c0 for _, _, c0, c1 in tiles]
            if not tall and bins.edges[-1] < 100.0:
                # some tiles keep no column, none keeps the whole block
                assert 0 in widths and max(widths) > 0
            area = sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in tiles)
            # the tiles compute fewer entries than whole blocks would
            assert area < sum((i1 - i0) * (n - i0) for i0, i1 in spans)


def large_curve_dataset(scale):
    """6-level N(0, 1) curves times ``scale`` at 80 uniform sites in a 500 km square."""
    rng = derived_rng(79)
    xy = rng.uniform(0.0, 500.0, size=(80, 2))
    return make_dataset(scale * rng.standard_normal((80, 6)), xy=xy,
                        grid=EvalGrid(np.linspace(0.0, 1.0, 6)))


_ESTIMATES = {
    "ess_plugin": lambda ds: ess_plugin(ds, "exponential"),
    "variogram": lambda ds: empirical_trace_variogram(ds, default_lag_bins(ds)),
    "covariogram": lambda ds: empirical_trace_covariogram(ds, default_lag_bins(ds)),
}


class TestCurvesTooLarge:
    """Curves whose pair sums leave the float range are refused by name,
    with no numpy warning on the way."""

    @pytest.mark.parametrize(
        "estimate,scale",
        [(e, s) for e in _ESTIMATES for s in (1e153, 1e155, 1e200, 1e300, 1e307)
         if (e, s) != ("covariogram", 1e153)],
    )
    def test_refused_by_name(self, estimate, scale):
        ds = large_curve_dataset(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^curves too large: their pair sums"):
                _ESTIMATES[estimate](ds)

    @pytest.mark.parametrize(
        "estimate,scale", [(e, 1e150) for e in _ESTIMATES] + [("covariogram", 1e153)]
    )
    def test_sums_in_range_are_estimated(self, estimate, scale):
        # at 1e153 the covariogram's signed inner products partly cancel in
        # each bin, so its sums stay in range: only the sums formed count
        ds = large_curve_dataset(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _ESTIMATES[estimate](ds)  # an infinite estimate is refused


def dense_pair_reference(ds, bins, kind):
    """Independent oracle: every pair from the full n x n arrays.

    Bins by searchsorted with the documented edge conventions and sums
    each bin exactly with math.fsum. Returns counts, per-bin values and
    mean pair distances (edge midpoints for empty bins).
    """
    D = pairwise_distances(ds.xy)
    iu, ju = np.triu_indices(ds.n_curves, k=1)
    h = D[iu, ju]
    edges = bins.edges
    idx = np.searchsorted(edges, h, side="right") - 1
    idx[h == edges[-1]] = len(bins) - 1
    idx[(h < edges[0]) | (h > edges[-1])] = -1
    w = ds.grid.quad_weights
    if kind == "variogram":
        vals = 0.5 * ((ds.curves[iu] - ds.curves[ju]) ** 2) @ w
    else:
        dev = ds.curves - ds.curves.mean(axis=0)
        vals = (dev[iu] * dev[ju]) @ w
    counts = np.array([np.count_nonzero(idx == l) for l in range(len(bins))])
    values = np.full(len(bins), np.nan)
    centers = np.array(bins.centers)
    for l in np.flatnonzero(counts):
        values[l] = math.fsum(vals[idx == l]) / counts[l]
        centers[l] = math.fsum(h[idx == l]) / counts[l]
    return counts, values, centers


class TestStreamedAgainstDense:
    def test_blocks_match_dense_reference(self, monkeypatch):
        # integer sites: many duplicates, and many pairs exactly on bin
        # edges, the last edge (5 = a 3-4-5 pair) included
        rng = derived_rng(29)
        n, m = 300, 5
        xy = rng.integers(0, 12, size=(n, 2)).astype(float)
        curves = np.sin(xy[:, :1] / 3.0 + np.arange(m)) + 0.3 * rng.standard_normal((n, m))
        ds = make_dataset(curves, xy=xy, grid=EvalGrid(np.linspace(0.0, 2.0, m)))
        bins = LagBins(np.linspace(0.0, 5.0, 6))
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 4 * n * m)
        assert len(fess.dataset._pair_spans(n, m)) >= 5
        D = pairwise_distances(ds.xy)
        assert np.any(D == 0.0) and np.any(D == 5.0)
        for estimator, kind in (
            (empirical_trace_variogram, "variogram"),
            (empirical_trace_covariogram, "covariogram"),
        ):
            ev = estimator(ds, bins)
            counts, values, centers = dense_pair_reference(ds, bins, kind)
            assert np.array_equal(ev.counts, counts)
            np.testing.assert_allclose(ev.centers, centers, rtol=1e-12, atol=0.0)
            # covariogram bin means can sit near zero: compare on the
            # scale of the trace variance
            atol = 0.0 if kind == "variogram" else 1e-12 * ev.sigma0
            np.testing.assert_allclose(ev.gamma, values, rtol=1e-12, atol=atol)


def exact_variogram_record(family, sill, rng_km, n_bins=15, h_max=300.0, nugget=0.0):
    bins = LagBins.equal_width(h_max, n_bins)
    model = TraceCovModel(family, sill, rng_km, nugget)
    gamma = model_trace_variogram(model, bins.centers)
    return EmpiricalVariogram(
        bins.centers, gamma, np.full(n_bins, 20, dtype=int), sigma0=sill + nugget
    )


def brute_force_sse(family, h, g, nugget, n_ranges=2001):
    """Least misfit over a dense log-range grid spanning the fit's range box.

    At each range the sill (and nugget) come from ``np.linalg.lstsq``; where
    the unconstrained solution leaves sill >= 0 (and nugget >= 0) the
    best point on the boundary is taken instead.
    """
    ranges = np.max(h) * np.logspace(-6.0, 3.0, n_ranges)
    unit = TraceCovModel(family, 1.0, 1.0)
    best = math.inf
    for f in model_trace_variogram(unit, h[None, :] / ranges[:, None]):
        sill = max(np.linalg.lstsq(f[:, None], g, rcond=None)[0][0], 0.0)
        candidates = [g - sill * f]
        if nugget == "free":
            candidates.append(g - np.mean(g))  # sill -> 0
            coef = np.linalg.lstsq(np.column_stack([np.ones_like(f), f]), g, rcond=None)[0]
            if coef[0] >= 0 and coef[1] >= 0:
                candidates.append(g - coef[0] - coef[1] * f)
        best = min([best] + [float(np.dot(r, r)) for r in candidates])
    return best


class TestFitModel:
    def test_exact_exponential_recovery(self):
        ev = exact_variogram_record("exponential", 1.0, 100.0)
        res = fit_model(ev, "exponential")
        assert res.model.sill == pytest.approx(1.0, rel=1e-6)
        assert res.model.range_km == pytest.approx(100.0, rel=1e-6)
        assert res.model.nugget == 0.0

    @pytest.mark.parametrize(
        "family,sill,rng_km",
        [
            ("exponential", 1.985e-10, 104.4),
            ("spherical", 1.769e-10, 186.8),
            ("gaussian", 1.719e-10, 81.12),
        ],
    )
    def test_tiny_sill_recovery(self, family, sill, rng_km):
        # magnitudes matching real trace-variograms of velocity profiles
        ev = exact_variogram_record(family, sill, rng_km)
        res = fit_model(ev, family)
        assert res.model.sill == pytest.approx(sill, rel=1e-6)
        assert res.model.range_km == pytest.approx(rng_km, rel=1e-6)

    def test_freed_nugget_estimated_zero_on_nugget_free_data(self):
        ev = exact_variogram_record("exponential", 1.0, 100.0)
        res = fit_model(ev, "exponential", nugget="free")
        assert res.model.nugget == 0.0
        # the tie rule returns the zero-nugget fit itself
        assert res == fit_model(ev, "exponential", nugget="zero")

    def test_freed_nugget_recovered_when_present(self):
        ev = exact_variogram_record("exponential", 1.0, 100.0, nugget=0.25)
        res = fit_model(ev, "exponential", nugget="free")
        assert res.model.nugget == pytest.approx(0.25, rel=1e-3)
        assert res.model.sill == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nugget", ["zero", "free"])
    def test_never_worse_than_brute_force(self, family, nugget):
        # the closed-form sill and nugget, searched over the range, reach
        # the least misfit of a dense range grid solved by np.linalg.lstsq;
        # at 100 sites some spherical misfits dip just past the first lag,
        # narrower than a search grid of 8 points per decade
        rng = derived_rng(27)
        for _ in range(10):
            ds = random_dataset(rng, 100, 6)
            ev = empirical_trace_variogram(ds, default_lag_bins(ds, 8))
            h = ev.centers[ev.occupied]
            g = ev.gamma[ev.occupied]
            res = fit_model(ev, family, nugget)
            assert res.sse <= brute_force_sse(family, h, g, nugget) * (1.0 + 1e-9)

    def test_flat_input_pins_range_with_warning(self):
        bins = LagBins.equal_width(100.0, 5)
        ev = EmpiricalVariogram(
            bins.centers, np.full(5, 2.0), np.full(5, 8, dtype=int), sigma0=2.0
        )
        res = fit_model(ev, "exponential")
        assert any("flat" in w for w in res.warnings)
        assert res.model.range_km <= 1e-4  # pinned near the lower bound
        assert res.model.sill == pytest.approx(2.0)

    def test_zero_input_raises(self):
        bins = LagBins.equal_width(100.0, 5)
        ev = EmpiricalVariogram(
            bins.centers, np.zeros(5), np.full(5, 8, dtype=int), sigma0=0.0
        )
        for nugget in ("zero", "free"):
            with pytest.raises(EstimationError, match="do not vary"):
                fit_model(ev, "exponential", nugget)

    def test_needs_three_occupied_bins(self):
        bins = LagBins.equal_width(10.0, 2)
        ev = EmpiricalVariogram(
            bins.centers, np.array([1.0, 1.1]), np.array([4, 4]), sigma0=1.0
        )
        with pytest.raises(ValidationError, match="3 occupied"):
            fit_model(ev, "exponential")

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nugget", ["zero", "free"])
    def test_bins_at_lag_zero_are_left_out(self, family, nugget):
        # coincident pairs alone put a bin at h = 0; the fit is that of the
        # other bins, with a warning giving the pair count
        ev = exact_variogram_record(family, 2.0, 90.0, nugget=0.3)
        with_zero = EmpiricalVariogram(
            np.append(0.0, ev.centers), np.append(0.7, ev.gamma),
            np.append(10, ev.counts), ev.sigma0,
        )
        res = fit_model(with_zero, family, nugget)
        ref = fit_model(ev, family, nugget)
        assert (res.model, res.sse) == (ref.model, ref.sse)
        assert res.warnings == ("10 coincident pairs at lag 0 left out of the fit",) + ref.warnings
        flat = EmpiricalVariogram([0.0, 10.0, 20.0, 30.0], [0.5, 2.0, 2.0, 2.0], [4, 8, 8, 8], None)
        assert fit_model(flat, family, nugget).warnings == (
            "4 coincident pairs at lag 0 left out of the fit",
            "flat empirical variogram: range pinned at lower bound",
        )

    def test_lag_zero_bins_do_not_count_as_occupied(self):
        ev = EmpiricalVariogram([0.0, 10.0, 20.0], [0.5, 1.0, 1.5], [4, 8, 8], None)
        with pytest.raises(ValidationError, match="3 occupied"):
            fit_model(ev, "exponential")

    def test_negative_centers_rejected(self):
        ev = EmpiricalVariogram([-1.0, 10.0, 20.0, 30.0], [0.5, 1.0, 1.5, 1.8], [4, 8, 8, 8], None)
        with pytest.raises(ValidationError, match="negative"):
            fit_model(ev, "exponential")

    def test_unknown_nugget_choice_rejected(self):
        ev = exact_variogram_record("exponential", 1.0, 100.0)
        with pytest.raises(ValidationError, match="nugget"):
            fit_model(ev, "exponential", "bogus")

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("free_nugget", [False, True])
    def test_zoom_narrows_to_tolerance_and_never_loses(self, monkeypatch, family, free_nugget):
        # the refinement's last round spans at most 1e-10 in log range, and
        # the fit's misfit is never above the one it reports without it, at
        # the grid point the zoom starts from
        runs = []
        minimize = fess.variogram.minimize

        def recorded(misfit, lo, hi):
            rounds = []
            run = minimize(lambda x: rounds.append(x) or misfit(x), lo, hi)
            runs.append((lo, hi, rounds, run))
            return run

        monkeypatch.setattr(fess.variogram, "minimize", recorded)
        grid = fess.variogram._LOG_RANGE_GRID
        rng = derived_rng(29)
        variograms = [exact_variogram_record(family, 1.0, 100.0, nugget=0.25)]
        for _ in range(6):
            ds = random_dataset(rng, 60, 5)
            variograms.append(empirical_trace_variogram(ds, default_lag_bins(ds, 8)))
        for ev in variograms:
            h = ev.centers[ev.occupied]
            g = ev.gamma[ev.occupied]
            h_scale, g_scale = float(np.max(h)), float(np.max(np.abs(g)))
            hn, gn = h / h_scale, g / g_scale
            sse = fess.variogram._fit_once(family, hn, gn, free_nugget)[3]
            (lo, hi, rounds, run), = runs
            runs.clear()
            inner = grid[(grid > lo) & (grid < hi)]
            start = inner[0] if inner.size else (lo if lo == grid[0] else hi)
            unrefined = fess.variogram._profile(family, hn, gn, np.array([start]), free_nugget)[2][0]
            assert sse <= unrefined
            assert rounds[0][0] == lo and rounds[0][-1] == hi
            for outer, x in zip(rounds, rounds[1:]):
                assert outer[0] <= x[0] < x[-1] <= outer[-1]
            assert rounds[-1][-1] - rounds[-1][0] <= 1e-10
            assert run.nfev == len(rounds) <= 7

    def test_empty_bins_are_skipped(self):
        bins = LagBins.equal_width(100.0, 6)
        gamma = np.array([0.5, np.nan, 0.8, 0.9, np.nan, 1.0])
        counts = np.array([5, 0, 5, 5, 0, 5])
        ev = EmpiricalVariogram(bins.centers, gamma, counts, sigma0=1.0)
        res = fit_model(ev, "exponential")
        assert np.isfinite(res.sse)

    def test_reported_sse_is_the_misfit_of_the_model(self):
        rng = derived_rng(28)
        ds = random_dataset(rng, 30, 6)
        ev = empirical_trace_variogram(ds, default_lag_bins(ds, 8))
        h = ev.centers[ev.occupied]
        g = ev.gamma[ev.occupied]
        for family in FAMILIES:
            for nugget in ("zero", "free"):
                res = fit_model(ev, family, nugget)
                resid = g - model_trace_variogram(res.model, h)
                assert res.sse == pytest.approx(float(np.dot(resid, resid)), rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nugget", ["zero", "free"])
    def test_no_rise_pins_the_smallest_range(self, family, nugget):
        # a variogram that does not rise at any occupied lag (spread well
        # above the flat-variogram threshold) is fitted equally well by
        # every range up to the first lag: the smallest one is returned
        bins = LagBins.equal_width(100.0, 8)
        gamma = 1.0 - 0.02 * np.linspace(0.0, 1.0, 8) + 0.01 * np.sin(np.arange(8.0))
        gamma = np.minimum.accumulate(gamma)
        ev = EmpiricalVariogram(bins.centers, gamma, np.full(8, 8, dtype=int), sigma0=1.0)
        res = fit_model(ev, family, nugget)
        assert res.warnings == ("range pinned at lower bound",)
        assert res.model.range_km == pytest.approx(1e-6 * float(np.max(bins.centers)))
        assert res.model.nugget == 0.0

    def test_iid_design_pins_the_range(self):
        # independent curves on the i.i.d. design of the ESS study (uniform
        # sites in a square of side 3500 sqrt(n / 5000) km, m = 22): this
        # variogram's misfit is least over every range below the first
        # lag, where earlier fits stopped at arbitrary ranges without a
        # warning and reported an ESS down to 0.55 n. Other draws of the
        # design still fit short ranges at a lower misfit (ESS 0.43-0.89 n).
        n = 2000
        rng = derived_rng(3)
        xy = rng.uniform(0.0, 3500.0 * math.sqrt(n / 5000), size=(n, 2))
        grid = EvalGrid(np.linspace(0.0, 1.0, 22))
        ds = make_dataset(rng.standard_normal((n, 22)), xy=xy, grid=grid)
        for family in FAMILIES:
            report = ess_plugin(ds, family)
            assert report.ess >= 0.99 * n
            assert "range pinned at lower bound" in report.warnings

    @pytest.mark.parametrize("family", ["exponential", "spherical"])
    def test_straight_line_pins_the_largest_range(self, family):
        # a variogram rising linearly through the origin is approached by
        # these families only as the range grows without bound
        bins = LagBins.equal_width(100.0, 8)
        ev = EmpiricalVariogram(
            bins.centers, bins.centers / 100.0, np.full(8, 8, dtype=int), sigma0=1.0
        )
        res = fit_model(ev, family)
        assert res.warnings == ("range pinned at upper bound",)
        assert res.model.range_km == pytest.approx(1e3 * float(np.max(bins.centers)))

    def test_iid_design_free_nugget_warns_at_upper_bound(self):
        # on this draw of the i.i.d. design the least-squares free-nugget
        # fit is a near-linear variogram: a large nugget under a slope,
        # whose sill is not identified, and an ESS far below n
        n = 500
        rng = derived_rng(2)
        xy = rng.uniform(0.0, 3500.0 * math.sqrt(n / 5000), size=(n, 2))
        grid = EvalGrid(np.linspace(0.0, 1.0, 22))
        ds = make_dataset(rng.standard_normal((n, 22)), xy=xy, grid=grid)
        for family in FAMILIES:
            report = ess_plugin(ds, family, nugget="free")
            assert "range pinned at upper bound" in report.warnings
            assert report.model.nugget > 0.0

    def test_one_minimize_call_per_search(self, monkeypatch):
        # the range search is one zoom of the module-global minimize; the
        # free nugget adds the zero-nugget fit it ties against
        calls = []
        minimize = fess.variogram.minimize

        def counted(*args, **kwargs):
            calls.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(fess.variogram, "minimize", counted)
        ev = exact_variogram_record("exponential", 1.0, 100.0, nugget=0.25)
        for family in FAMILIES:
            for nugget, expected in (("zero", 1), ("free", 2)):
                calls.clear()
                fit_model(ev, family, nugget)
                assert len(calls) == expected

    def test_model_json_round_trip(self, tmp_path):
        ev = exact_variogram_record("spherical", 2.0, 80.0)
        res = fit_model(ev, "spherical")
        path = tmp_path / "model.json"
        _write_json(res.to_dict(), path)
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        assert raw == {
            "family": "spherical",
            "sill": res.model.sill,
            "range": res.model.range_km,
            "nugget": res.model.nugget,
            "sse": res.sse,
        }
