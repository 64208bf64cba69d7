import itertools
import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import fess.dataset
import fess.ess
import fess.variogram
from fess import (
    EssReport,
    EstimationError,
    EvalGrid,
    FitResult,
    GaussFieldSpec,
    LagBins,
    TraceCovModel,
    ValidationError,
    ess_functional,
    ess_plugin,
    ess_scalar,
    empirical_trace_covariogram,
    empirical_trace_variogram,
    gauss_field_simulate,
    model_trace_cov,
    pairwise_distances,
    PlanarCoord,
    SpatialFunctionalDataset,
)
from fess.dataset import _write_json
from fess.rng import derived_rng

from conftest import (
    FRESH_CORR,
    make_dataset,
    random_dataset,
    repeated_lattice_dataset,
    tied_dataset,
)

FAMILIES = ("exponential", "spherical", "gaussian")


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_in_place_covariance_keeps_the_sums_bits(self, family):
        rng = derived_rng(34)
        xy = rng.uniform(0.0, 300.0, size=(60, 2))
        D = pairwise_distances(np.vstack([xy, xy[:10]]))  # coincident pairs off the diagonal
        for range_km, nugget in ((40.0, 0.0), (40.0, 0.6), (float(np.max(D)) * 0.9, 0.3)):
            m = TraceCovModel(family, 1.3, range_km, nugget=nugget)
            sill, nug = fess.ess._unit_parts(m)
            # the dense matrix on fresh arrays, 0.0 added off the zero distances
            cov = sill * FRESH_CORR[family](D / range_km) + np.where(D == 0.0, nug, 0.0)
            denom = fess.dataset._sorted_sum(cov)
            assert ess_functional(D, m) == fess.ess._ess_report(D.shape[0], m, denom)

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
        # every family's trace-covariogram lies in [0, cov_tr(0)] with
        # cov_tr(0) > 0, so n cov_tr(0) <= sum_ij cov_tr(d_ij) <= n^2 cov_tr(0)
        # and the ESS lies in [1, n] on any design, at any scale
        rng = derived_rng(33)
        for family, nugget, _ in itertools.product(FAMILIES, (False, True), range(30)):
            n = int(rng.integers(3, 40))
            xy = rng.uniform(0.0, 300.0, size=(n, 2))
            t = rng.uniform(-50.0, 50.0, n)
            designs = {
                "random": xy,
                "duplicated": np.vstack([xy, xy[: n // 2]]),
                "collinear": np.column_stack([t, 0.4 * t + 3.0]),
                "near-coincident": np.vstack([xy, xy + rng.uniform(-1e-9, 1e-9, size=xy.shape)]),
                "two sites": np.array([[0.0, 0.0], [rng.uniform(1e-3, 1e3), 0.0]]),
            }
            for name, sites in designs.items():
                sill = 10.0 ** rng.uniform(-300.0, 300.0)
                m = TraceCovModel(
                    family, sill, 10.0 ** rng.uniform(-8.0, 8.0),
                    sill * 10.0 ** rng.uniform(-3.0, 3.0) if nugget else 0.0,
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = ess_functional(pairwise_distances(sites), m)
                k = len(sites)
                assert 1.0 <= report.ess <= k, (name, m)
                assert report.recommended_subsample <= k, (name, m)
                assert report.warnings == (), (name, m)

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

    def test_uncorrelated_sites_give_n(self):
        # no pair correlates, so the ESS is n^2 C(0) / (n C(0)), which
        # rounds above n = 225 at this C(0); the report keeps it at n
        D = np.full((225, 225), 1e6)
        np.fill_diagonal(D, 0.0)
        report = ess_functional(D, TraceCovModel("spherical", 6136.2770719313, 1.0))
        assert (report.ess, report.ratio, report.recommended_subsample) == (225.0, 1.0, 225)

    def test_validates_distance_matrix(self):
        m = TraceCovModel("exponential", 1.0, 1.0)
        with pytest.raises(ValidationError):
            ess_functional(np.array([[0.0, 1.0], [2.0, 0.0]]), m)
        with pytest.raises(ValidationError):
            ess_functional(np.array([[1.0, 1.0], [1.0, 0.0]]), m)

    def test_report_json(self, tmp_path):
        rep = ess_functional(collinear_distances(), TraceCovModel("exponential", 1.0, 1.0))
        path = tmp_path / "ess.json"
        _write_json(rep.to_dict(), path)
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
        # curve i is 1/sqrt(w_i) at grid point i and 0 elsewhere, so every
        # pair is at squared L2 distance 2: a flat variogram of level 1
        grid = EvalGrid(np.linspace(0, 1, 6))
        curves = np.diag(1.0 / np.sqrt(grid.quad_weights))
        xy = [[x, 0.0] for x in (0, 1, 3, 6, 10, 15)]
        ds = make_dataset(curves, xy=xy, grid=grid)
        rep = ess_plugin(ds, "exponential")
        assert any("flat" in w for w in rep.warnings)
        assert rep.ess == pytest.approx(6.0)

    @pytest.mark.parametrize("nugget", ["zero", "free"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bounds_on_fitted_fields(self, family, nugget):
        # the ESS lies in [1, n] (see TestEssFunctional's bounds test) for
        # fits that pin the range at either bound, leave coincident pairs
        # out or fit freely
        rng = derived_rng(43)
        n = 40
        xy = rng.uniform(0.0, 300.0, size=(n, 2))
        t = rng.uniform(-150.0, 150.0, n)
        grid = EvalGrid(np.linspace(0.0, 1.0, 6))
        designs = {
            "random": xy,
            "duplicated": np.vstack([xy[:24], xy[:16]]),
            "collinear": np.column_stack([t, 0.4 * t + 3.0]),
        }
        for name, sites in designs.items():
            for scale in (60.0, 1e4):
                signal = np.sin(sites[:, :1] / scale + sites[:, 1:] / 90.0 + grid.points)
                ds = make_dataset(signal + 0.5 * rng.standard_normal((n, 6)), xy=sites,
                                  grid=grid)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = ess_plugin(ds, family, nugget=nugget)
                assert 1.0 <= report.ess <= n, (name, scale)
                assert report.recommended_subsample <= n, (name, scale)

    def test_identical_curves_raise(self):
        # no variation, no covariance: the ESS is undefined, not n
        rng = derived_rng(38)
        xy = rng.uniform(0, 100, size=(6, 2))
        curves = np.tile(rng.standard_normal(5), (6, 1))
        ds = make_dataset(curves, xy=xy, grid=EvalGrid(np.linspace(0, 1, 5)))
        with pytest.raises(EstimationError, match="do not vary"):
            ess_plugin(ds, "exponential")

    @pytest.mark.parametrize(
        "family,nugget,threads",
        [pytest.param("bogus", "zero", None, id="bogus-zero"),
         pytest.param("exponential", "bogus", None, id="exponential-bogus"),
         pytest.param("exponential", "zero", 0, id="threads-0"),
         pytest.param("exponential", "zero", -1, id="threads--1")],
    )
    def test_bad_choice_rejected_before_pair_passes(
        self, family, nugget, threads, monkeypatch
    ):
        def no_pass(*args, **kwargs):
            raise AssertionError("pair pass before argument validation")

        for module in (fess.dataset, fess.variogram, fess.ess):
            monkeypatch.setattr(module, "_pair_map", no_pass)
        ds = make_dataset(derived_rng(39).standard_normal((8, 4)))
        with pytest.raises(ValidationError, match="family|nugget|threads"):
            fess.ess._plugin_ess(ds, [family], nugget=nugget, threads=threads)

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
        rep = ess_plugin(ds, family, nugget=nugget)
        if nugget == "free":
            assert rep.model.nugget > 0.0
        dense = ess_functional(pairwise_distances(ds.xy), rep.model)
        assert rep.ess == pytest.approx(dense.ess, rel=1e-12)

    def test_permutation_invariance_bitwise(self):
        rng = derived_rng(41)
        for ds in (tied_dataset(rng, 45, 6, spread=300.0), tied_dataset(rng, 60, 5)):
            perm = rng.permutation(ds.n_curves)
            for nugget in ("zero", "free"):
                a = ess_plugin(ds, "exponential", nugget=nugget)
                b = ess_plugin(ds.subset(perm), "exponential", nugget=nugget)
                assert a.ess == b.ess
                assert a.model == b.model
                assert a.warnings == b.warnings

    def test_threads_bitwise_identical(self, monkeypatch):
        # one-row blocks: 1, 2 and 3 workers, each with a run of blocks
        rng = derived_rng(43)
        n, m = 60, 5
        ds = tied_dataset(rng, n, m)
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", m)
        worker_count = fess.dataset._worker_count
        blocks = len(fess.dataset._pair_spans(n, m))
        workers = [worker_count(t, blocks) for t in (1, 2, 8)]
        assert blocks == n - 1 and workers == [1, 2, 3]
        # wide bins, so the first holds pairs at positive distances too
        bins = fess.default_lag_bins(ds, n_bins=5)
        results = []
        # from 2 threads on, the passes read the tables the serial ones kept
        for threads in (1, 2, 8):
            # the covariogram's pair stage runs on the default thread count
            monkeypatch.setattr(
                fess.dataset, "_worker_count",
                lambda t, n_blocks, k=threads: worker_count(k if t is None else t, n_blocks),
            )
            evs = [
                fess.empirical_trace_variogram(ds, bins, threads=threads),
                fess.empirical_trace_covariogram(ds, bins),
            ]
            reports = [
                report
                for nugget in ("zero", "free")
                for report in fess.ess._plugin_ess(
                    ds, ["exponential", "spherical", "gaussian"], bins, nugget, threads
                )
            ]
            results.append((evs, reports))
        (evs1, reports1), *others = results
        for evs, reports in others:
            for a, b in zip(evs1, evs):
                for field in ("centers", "gamma", "counts"):
                    assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
                assert a.sigma0 == b.sigma0
            for a, b in zip(reports1, reports):
                assert a.ess == b.ess and a.model == b.model and a.warnings == b.warnings

    def test_pair_stages_never_form_an_n_by_n_array(self):
        # one n x n float64 array is 32 MB at n = 2000; the streamed pair
        # stages need O(n m) memory, and a one-shot estimate keeps no bin
        # slots and no distances (a repeated one would keep about n**2 / 2
        # and 4 n**2 bytes of them, 2 and 16 MB here)
        rng = derived_rng(42)
        n = 2000
        ds = make_dataset(
            rng.standard_normal((n, 22)),
            xy=rng.uniform(0.0, 1000.0, size=(n, 2)),
            grid=EvalGrid(np.linspace(0.0, 1.0, 22)),
        )
        tracemalloc.start()
        try:
            fess.ess._plugin_ess(ds, ["exponential"], threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestPairSlotMemo:
    """From the second pass at the same sites, the variogram pass keeps the
    bin slots and the ESS sum keeps the pair distances in the last site
    set's record; the slots are reused only at bitwise-equal sites, bin
    edges and block layout, the distances at bitwise-equal sites and
    block layout."""

    families = ["exponential", "spherical", "gaussian"]

    @pytest.fixture
    def binned(self, monkeypatch):
        calls = []
        slots = LagBins._slots

        def counted(bins, h):
            calls.append(h.size)
            return slots(bins, h)

        monkeypatch.setattr(LagBins, "_slots", counted)
        fess.dataset._site_record.cache_clear()
        return calls

    @pytest.fixture
    def measured(self, monkeypatch):
        """The spans of the pair blocks whose distances are computed."""
        calls = []
        block_distances = fess.dataset._block_distances

        def counted(xy, i0, i1):
            calls.append((i0, i1))
            return block_distances(xy, i0, i1)

        monkeypatch.setattr(fess.dataset, "_block_distances", counted)
        fess.dataset._site_record.cache_clear()
        return calls

    @classmethod
    def outputs(cls, ds, bins, cold=False):
        """Both estimators and the plug-in ESS (3 families, zero and free
        nugget) at ``bins``; with ``cold``, the site record is cleared before each."""
        out = []
        for estimator in (empirical_trace_variogram, empirical_trace_covariogram):
            if cold:
                fess.dataset._site_record.cache_clear()
            ev = estimator(ds, bins)
            out.append((ev.centers.tobytes(), ev.gamma.tobytes(), ev.counts.tobytes(), ev.sigma0))
        for nugget in ("zero", "free"):
            if cold:
                fess.dataset._site_record.cache_clear()
            reports = fess.ess._plugin_ess(ds, cls.families, bins, nugget)
            out += [(r.ess, r.model, r.warnings) for r in reports]
        return out

    @staticmethod
    def table(ds, bins):
        """The ``(slots, tiles, counts, hsums)`` of each block kept for ``ds``'s
        sites at ``bins``, None while only the key is kept."""
        spans = tuple(fess.dataset._pair_spans(ds.n_curves, ds.n_levels))
        kept = fess.dataset._site_record(ds.xy.tobytes()).kept
        key, table = kept["slots"]
        assert key == (bins.edges.tobytes(), spans)
        return table

    @staticmethod
    def distances(ds):
        """The ``(distances, coincident)`` of each block kept for ``ds``'s
        sites, None while only the key is kept."""
        spans = tuple(fess.dataset._pair_spans(ds.n_curves, ds.n_levels))
        key, table = fess.dataset._site_record(ds.xy.tobytes()).kept["distances"]
        assert key == spans
        return table

    def test_equal_sites_and_bins_bin_once(self, binned, measured, monkeypatch):
        n, m = 50, 5
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 4 * n * m)
        blocks = len(fess.dataset._pair_spans(n, m))
        assert blocks >= 5
        rng = derived_rng(60)
        xy = rng.uniform(0.0, 300.0, size=(n, 2))
        grid = EvalGrid(np.linspace(0.0, 1.0, m))
        ds = SpatialFunctionalDataset(grid, xy, rng.standard_normal((n, m)))
        bins = fess.default_lag_bins(ds)
        empirical_trace_variogram(ds, bins)
        # a one-shot pass keeps no slots
        assert len(binned) == blocks
        assert self.table(ds, bins) is None
        first = self.outputs(ds, bins)
        assert len(binned) == 2 * blocks  # the second pass bins and keeps
        # other curves at equal sites given another way; equal edges in new bins
        locs = [PlanarCoord(float(x), float(y)) for x, y in xy]
        other = SpatialFunctionalDataset(grid, locs, rng.standard_normal((n, m)))
        assert fess.default_lag_bins(other) is bins
        again = LagBins(np.array(bins.edges))
        warm = self.outputs(other, again)
        assert self.outputs(ds, bins) == first
        assert len(binned) == 2 * blocks
        # the first two variogram passes and the first two ESS sums compute
        # the distances; the four later sums read the kept ones
        assert len(measured) == 4 * blocks
        assert self.distances(ds) is not None
        assert warm == self.outputs(other, bins, cold=True)

    def test_a_one_shot_estimate_keeps_only_the_keys(self, measured, monkeypatch):
        n, m = 40, 4
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 4 * n * m)
        blocks = len(fess.dataset._pair_spans(n, m))
        ds = random_dataset(derived_rng(59), n, m)
        bins = fess.default_lag_bins(ds)
        fess.ess._plugin_ess(ds, self.families, bins)
        assert self.table(ds, bins) is None and self.distances(ds) is None
        assert set(fess.dataset._site_record(ds.xy.tobytes()).kept) == {"slots", "distances"}
        assert len(measured) == 2 * blocks

    def test_a_refused_pass_leaves_the_kept_key(self, binned):
        ds = random_dataset(derived_rng(70), 40, 4)
        bins = fess.default_lag_bins(ds)
        blocks = len(fess.dataset._pair_spans(40, 4))
        empirical_trace_variogram(ds, bins)
        # a bad thread count is refused before the kept key is read or replaced
        with pytest.raises(ValidationError, match="threads"):
            empirical_trace_variogram(ds, LagBins.equal_width(100.0, 4), threads=0)
        empirical_trace_variogram(ds, bins)
        assert self.table(ds, bins) is not None
        assert len(binned) == 2 * blocks

    def test_each_part_of_the_key_misses(self, binned, measured, monkeypatch):
        n, m = 40, 4
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 4 * n * m)
        spans = fess.dataset._pair_spans
        # the grid size enters through the block layout
        assert spans(n, m) != spans(n, m + 1)
        rng = derived_rng(61)
        xy = rng.uniform(0.0, 300.0, size=(n, 2))
        curves = rng.standard_normal((n, m + 1))
        last_bit = xy.copy()
        last_bit[7, 1] = np.nextafter(last_bit[7, 1], np.inf)
        swapped = xy.copy()
        swapped[[3, 11]] = swapped[[11, 3]]
        grid = EvalGrid(np.linspace(0.0, 1.0, m))
        base = SpatialFunctionalDataset(grid, xy, curves[:, :m])
        bins = LagBins.equal_width(150.0, 10)
        # (dataset, bins, block elements / (n m), whether the distances miss)
        changes = {
            "last bit of one site": (
                SpatialFunctionalDataset(grid, last_bit, curves[:, :m]), bins, 4, True,
            ),
            "site order": (SpatialFunctionalDataset(grid, swapped, curves[:, :m]), bins, 4, True),
            "edges": (base, LagBins(np.append(bins.edges[:-1], 151.0)), 4, False),
            "grid size": (
                SpatialFunctionalDataset(EvalGrid(np.linspace(0.0, 1.0, m + 1)), xy, curves),
                bins, 4, True,
            ),
            "block elements": (base, bins, 2, True),
        }
        for name, (ds, b, factor, sums_miss) in changes.items():
            for _ in range(2):  # the memo holds the filled base tables
                fess.ess._plugin_ess(base, ["exponential"], bins)
            monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", factor * n * m)
            before, measured_before = len(binned), len(measured)
            # a miss bins on the first two passes, then keeps the slots; the
            # ESS sum computes the distances on its first two passes too
            warm = self.outputs(ds, b)
            blocks = len(spans(ds.n_curves, ds.n_levels))
            assert len(binned) == before + 2 * blocks, name
            assert len(measured) == measured_before + (4 if sums_miss else 2) * blocks, name
            assert warm == self.outputs(ds, b, cold=True), name
            monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 4 * n * m)

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_warm_results_equal_cold_results(self, tied, measured, monkeypatch):
        n, m = 60, 5
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 4 * n * m)
        blocks = len(fess.dataset._pair_spans(n, m))
        rng = derived_rng(62)
        xy = (tied_dataset if tied else random_dataset)(rng, n, m).xy
        k = n // 3
        orders = set()
        draws = []
        for draw in range(3):
            curves = rng.standard_normal((n, m))
            if tied:  # rows i and i + 2k are equal in every value
                curves[2 * k:] = curves[:k]
            ds = make_dataset(curves, xy=xy)
            sites = fess.dataset._site_record(ds.xy.tobytes())
            orders.add(fess.dataset._canonical_order(ds, sites).tobytes())
            bins = fess.default_lag_bins(ds)
            # two ESS sums a draw: from the second draw on, every sum, of
            # either nugget, is the third or later at these sites
            draws.append((ds, bins, self.outputs(ds, bins)))
        assert len(measured) == 4 * blocks
        for ds, bins, warm in draws:
            assert warm == self.outputs(ds, bins, cold=True)
        # tied sites are ordered by their curves, so the one table serves
        # several row orders
        assert len(orders) == (3 if tied else 1)

    def test_kept_tables_are_read_only(self):
        ds = tied_dataset(derived_rng(63), 30, 4)
        bins = fess.default_lag_bins(ds)
        fess.dataset._site_record.cache_clear()
        for _ in range(2):
            empirical_trace_variogram(ds, bins)
        slots, tiles, counts, hsums = zip(*self.table(ds, bins))
        assert slots[0].dtype == np.uint8
        # each block's tile spans, a tuple of int tuples
        assert all(type(t) is tuple and all(type(s) is tuple for s in t) for t in tiles)
        for _ in range(2):
            fess.ess._plugin_ess(ds, ["exponential"], bins)
        distances, coincident = zip(*self.distances(ds))
        n = ds.n_curves
        assert [d.dtype for d in distances] == [np.float64] * len(distances)
        assert sum(d.size for d in distances) == n * (n - 1) // 2
        # each of the 10 sites is shared by 3 rows
        assert sum(coincident) == 30
        record = fess.dataset._site_record(ds.xy.tobytes())
        for a in [*slots, *counts, *hsums, *distances, record.order, record.tied, record.groups]:
            assert a.size and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize("n_bins,dtype", [(254, np.uint8), (255, np.uint16), (300, np.uint16)])
    def test_more_than_254_bins_widen_the_slots(self, n_bins, dtype):
        rng = derived_rng(64)
        ds = make_dataset(rng.standard_normal((80, 3)), xy=rng.uniform(0.0, 100.0, size=(80, 2)))
        # the farthest pair lies on the last edge, in the last bin
        bins = LagBins.equal_width(float(np.max(pairwise_distances(ds.xy))), n_bins)
        cold = self.outputs(ds, bins, cold=True)
        assert self.outputs(ds, bins) == cold
        assert self.table(ds, bins)[0][0].dtype == dtype
        assert empirical_trace_variogram(ds, bins).counts[-1] > 0

    def test_tables_over_the_size_bound_are_not_kept(self, binned, measured, monkeypatch):
        n = 40
        ds = random_dataset(derived_rng(66), n, 3)
        bins = fess.default_lag_bins(ds)
        spans = fess.dataset._pair_spans(n, 3)
        size = sum((i1 - i0) * (n - i0) for i0, i1 in spans)  # one byte a slot
        monkeypatch.setattr(fess.dataset, "_MAX_KEPT_TABLE_BYTES", size - 1)
        passes = [empirical_trace_variogram(ds, bins) for _ in range(3)]
        assert len(binned) == 3 * len(spans)
        assert self.table(ds, bins) is None
        monkeypatch.setattr(fess.dataset, "_MAX_KEPT_TABLE_BYTES", size)
        passes += [empirical_trace_variogram(ds, bins) for _ in range(2)]
        assert len(binned) == 4 * len(spans)
        assert self.table(ds, bins) is not None
        assert len({
            (ev.centers.tobytes(), ev.gamma.tobytes(), ev.counts.tobytes(), ev.sigma0)
            for ev in passes
        }) == 1
        # the ESS sum's distances, 8 bytes a pair, under the same bound
        fess.dataset._site_record.cache_clear()
        size = 4 * n * (n - 1)
        monkeypatch.setattr(fess.dataset, "_MAX_KEPT_TABLE_BYTES", size - 1)
        before = len(measured)
        sums = [fess.ess._plugin_ess(ds, self.families, bins) for _ in range(3)]
        # two variogram passes and three ESS sums compute the distances
        assert len(measured) == before + 5 * len(spans)
        assert self.distances(ds) is None and self.table(ds, bins) is not None
        monkeypatch.setattr(fess.dataset, "_MAX_KEPT_TABLE_BYTES", size)
        sums += [fess.ess._plugin_ess(ds, self.families, bins) for _ in range(2)]
        assert len(measured) == before + 6 * len(spans)
        assert self.distances(ds) is not None
        assert all(reports == sums[0] for reports in sums)

    def test_threads_alternating_two_site_sets_match_serial_results(self):
        rng = derived_rng(65)
        sites = [rng.uniform(0.0, 300.0, size=(40, 2)), rng.uniform(0.0, 300.0, size=(30, 2))]
        jobs = []
        for t in range(4):
            for r in range(6):
                xy = sites[(t + r) % 2]
                jobs.append(make_dataset(rng.standard_normal((len(xy), 4)), xy=xy))
        bins = LagBins.equal_width(150.0, 12)
        serial = [self.outputs(ds, bins, cold=True) for ds in jobs]
        results = {}

        def work(t):
            for r in range(6):
                results[6 * t + r] = self.outputs(jobs[6 * t + r], bins)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(i) for i in range(len(jobs))] == serial


class TestSiteRecord:
    """The simulator's factor, the variogram's slots and the ESS sum's
    distances live in one record per site set: they are kept together and
    dropped together."""

    grid = EvalGrid(np.linspace(0.0, 1.0, 5))
    spec = GaussFieldSpec(TraceCovModel("exponential", 1.0, 80.0), np.full(5, 0.2), grid)

    @pytest.fixture
    def work(self, monkeypatch):
        """Counts of factorizations, of binned blocks and of blocks whose
        distances are computed, from a cleared record."""
        calls = {"cholesky": 0, "binned": 0, "distances": 0}
        cholesky, slots = np.linalg.cholesky, LagBins._slots
        block_distances = fess.dataset._block_distances

        def factorize(a):
            calls["cholesky"] += 1
            return cholesky(a)

        def binned(bins, h):
            calls["binned"] += 1
            return slots(bins, h)

        def measured(xy, i0, i1):
            calls["distances"] += 1
            return block_distances(xy, i0, i1)

        monkeypatch.setattr(np.linalg, "cholesky", factorize)
        monkeypatch.setattr(LagBins, "_slots", binned)
        monkeypatch.setattr(fess.dataset, "_block_distances", measured)
        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 4 * 50 * 5)
        fess.dataset._site_record.cache_clear()
        return calls

    @staticmethod
    def kept(xy):
        return fess.dataset._site_record(np.ascontiguousarray(xy, dtype=float).tobytes()).kept

    def estimate(self, xy, seed):
        ds = gauss_field_simulate(self.spec, xy, seed)
        reports = [ess_plugin(ds, family) for family in ("exponential", "gaussian")]
        return ds.curves.tobytes(), [(r.ess, r.model, r.warnings) for r in reports]

    def test_oracle_replicates_factorize_once_and_bin_twice(self, work):
        xy = derived_rng(67).uniform(0.0, 300.0, size=(50, 2))
        blocks = len(fess.dataset._pair_spans(50, 5))
        assert blocks >= 5
        warm = [self.estimate(xy, seed) for seed in range(5)]
        assert work["cholesky"] == 1
        # the first estimate keeps the keys, the second fills the slots and
        # the distances: the variogram passes and the ESS sums of the later
        # estimates compute no distances
        assert work["binned"] == 2 * blocks
        assert work["distances"] == 4 * blocks
        assert set(self.kept(xy)) == {"factor", "slots", "distances"}
        cold = []
        for seed in range(5):
            fess.dataset._site_record.cache_clear()
            cold.append(self.estimate(xy, seed))
        assert warm == cold

    @pytest.mark.parametrize("stage", ["simulate", "variogram", "default_bins"])
    def test_a_call_at_other_sites_drops_factor_and_slots(self, work, stage):
        rng = derived_rng(68)
        xy, other = rng.uniform(0.0, 300.0, size=(2, 50, 2))
        blocks = len(fess.dataset._pair_spans(50, 5))
        for seed in range(3):
            self.estimate(xy, seed)
        record = fess.dataset._site_record(xy.tobytes())
        assert set(record.kept) == {"factor", "slots", "distances"}
        ds = SpatialFunctionalDataset(self.grid, other, rng.standard_normal((50, 5)))
        {
            "simulate": lambda: gauss_field_simulate(self.spec, other, 0),
            "variogram": lambda: empirical_trace_variogram(ds, LagBins.equal_width(150.0, 8)),
            "default_bins": lambda: fess.default_lag_bins(ds),
        }[stage]()
        before = dict(work)
        assert self.estimate(xy, 0) == self.estimate(xy, 0)
        again = fess.dataset._site_record(xy.tobytes())
        assert again is not record and set(again.kept) == {"factor", "slots", "distances"}
        # the factor again, and the first two variogram passes and ESS sums
        # compute the distances again
        assert work["cholesky"] == before["cholesky"] + 1
        assert work["binned"] == before["binned"] + 2 * blocks
        assert work["distances"] == before["distances"] + 4 * blocks

    def test_threads_simulating_and_estimating_at_one_site_set_match_serial_results(self):
        xy = derived_rng(69).uniform(0.0, 300.0, size=(40, 2))
        seeds = [100 * t + r for t in range(4) for r in range(5)]
        serial = []
        for seed in seeds:
            fess.dataset._site_record.cache_clear()
            serial.append(self.estimate(xy, seed))
        fess.dataset._site_record.cache_clear()
        results = {}

        def work(t):
            for r in range(5):
                results[5 * t + r] = self.estimate(xy, seeds[5 * t + r])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(i) for i in range(len(seeds))] == serial


@pytest.mark.parametrize("nugget", ["zero", "free"])
@pytest.mark.parametrize("family", ["exponential", "spherical", "gaussian"])
def test_coincident_sites_alone_in_the_first_bin(family, nugget):
    # the first default bin holds only coincident pairs, at lag 0: the fit
    # leaves it out and says so
    ds = repeated_lattice_dataset(seed=90)
    assert fess.default_lag_bins(ds).edges[1] < 100.0
    report = ess_plugin(ds, family, nugget=nugget)
    assert report.warnings[0] == "10 coincident pairs at lag 0 left out of the fit"
    assert 1.0 <= report.ess <= report.n
    if nugget == "zero":  # independent curves
        assert report.ratio > 0.8


class TestEssReportValidation:
    def test_requires_positive_ess(self):
        m = TraceCovModel("exponential", 1.0, 1.0)
        with pytest.raises(ValidationError):
            EssReport(n=3, ess=0.0, model=m)
        with pytest.raises(ValidationError):
            EssReport(n=0, ess=1.0, model=m)


class TestEssUnits:
    """The ESS does not depend on the units of the covariance: sill and
    nugget times a power of two give the same ESS bit for bit, on the dense
    and on the streamed sum, and sills near the float limit do not
    overflow."""

    @pytest.fixture(scope="class")
    def sites(self):
        return derived_rng(50).uniform(0.0, 500.0, size=(200, 2))

    @pytest.mark.parametrize("sill", [1e305, 1.7e308])
    def test_sill_near_the_float_limit(self, sites, sill):
        D = pairwise_distances(sites)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = ess_functional(D, TraceCovModel("exponential", sill, 50.0)).ess
        unit = ess_functional(D, TraceCovModel("exponential", 1.0, 50.0)).ess
        assert big == pytest.approx(unit, rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, -300, -1, 1, 300, 1000])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_power_of_two_units_are_bitwise(self, sites, monkeypatch, family, k):
        # the last 20 sites repeat the first 20, so the streamed sum adds
        # the nugget off the diagonal too
        xy = np.vstack([sites, sites[:20]])
        ds = make_dataset(derived_rng(51).standard_normal((len(xy), 3)), xy=xy)
        D = pairwise_distances(xy)

        def both(model):
            monkeypatch.setattr(fess.ess, "fit_model", lambda ev, fam, nugget: FitResult(model, 0.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return ess_functional(D, model).ess, ess_plugin(ds, family).ess

        unit = both(TraceCovModel(family, 1.3, 80.0, nugget=0.4))
        scaled = both(TraceCovModel(family, math.ldexp(1.3, k), 80.0, nugget=math.ldexp(0.4, k)))
        assert scaled == unit


def _metamorphic_field(seed, range_km=150.0):
    """A correlated field at 300 uniform sites in a 1000 km square.

    On i.i.d. curves the misfit is flat in the range, and the first-minimum
    rule of the fit may legitimately pick another grid point once the sites
    move by a rounding error; a correlated field has a well-defined optimum.
    """
    grid = EvalGrid(np.linspace(0.0, 1.0, 22))
    spec = GaussFieldSpec(TraceCovModel("exponential", 1.0, range_km), np.full(5, 0.2), grid)
    xy = derived_rng(seed).uniform(0.0, 1000.0, size=(300, 2))
    return gauss_field_simulate(spec, xy, seed=seed)


def _rotate(xy, angle):
    c, s = math.cos(angle), math.sin(angle)
    return xy @ np.array([[c, s], [-s, c]])


# (transform of the sites, factor on the curves, expected sill and range factors)
_METAMORPHIC = {
    "translate": (lambda xy: xy + np.array([1234.5, -987.6]), 1.0, 1.0, 1.0),
    "rotate": (lambda xy: _rotate(xy, 0.7), 1.0, 1.0, 1.0),
    "rotate_90": (lambda xy: _rotate(xy, math.pi / 2), 1.0, 1.0, 1.0),
    "scale_curves": (lambda xy: xy, 3.7, 3.7**2, 1.0),
    "scale_sites": (lambda xy: 2.5 * xy, 1.0, 1.0, 2.5),
}


class TestEssPluginMetamorphic:
    """The plug-in ESS is unchanged by rigid motions of the sites and by
    scaling the curves or the coordinates, which scale the fitted sill and
    range by known factors."""

    @pytest.fixture(scope="class")
    def field(self):
        return _metamorphic_field(seed=0)

    @pytest.mark.parametrize("transform", sorted(_METAMORPHIC))
    @pytest.mark.parametrize("nugget", ["zero", "free"])
    @pytest.mark.parametrize("family", ["exponential", "spherical", "gaussian"])
    def test_invariance(self, field, family, nugget, transform):
        move, curve_factor, sill_factor, range_factor = _METAMORPHIC[transform]
        moved = SpatialFunctionalDataset(
            field.grid, move(np.array(field.xy)), curve_factor * field.curves
        )
        base = ess_plugin(field, family, nugget=nugget)
        other = ess_plugin(moved, family, nugget=nugget)
        assert other.ess == pytest.approx(base.ess, rel=1e-6, abs=0.0)
        assert other.model.sill == pytest.approx(sill_factor * base.model.sill, rel=1e-6, abs=0.0)
        assert other.model.range_km == pytest.approx(
            range_factor * base.model.range_km, rel=1e-6, abs=0.0
        )
        assert other.warnings == base.warnings

    @pytest.fixture(scope="class")
    def field_120(self):
        return _metamorphic_field(seed=0, range_km=120.0)

    @pytest.mark.parametrize(
        "scaled,k",
        [("curves", k) for k in (-400, -20, 20, 300, 505)]
        + [("sites", k) for k in (-30, 10, 40)],
    )
    @pytest.mark.parametrize("nugget", ["zero", "free"])
    @pytest.mark.parametrize("family", ["exponential", "spherical", "gaussian"])
    def test_power_of_two_scaling_is_bitwise(self, field_120, family, nugget, scaled, k):
        # Scaling by a power of two is exact, and the fit works in
        # normalized units, so the ESS keeps its bits: the curves scale the
        # variogram by 2**(2k), to about 1e-241 and 1e304 at the ends, and
        # the sites scale the lags.
        xy, curves = np.array(field_120.xy), field_120.curves
        if scaled == "curves":
            curves = np.ldexp(curves, k)
        else:
            xy = np.ldexp(xy, k)
        base = ess_plugin(field_120, family, nugget=nugget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            other = ess_plugin(SpatialFunctionalDataset(field_120.grid, xy, curves), family,
                               nugget=nugget)
        assert other.ess == base.ess
        assert other.warnings == base.warnings
