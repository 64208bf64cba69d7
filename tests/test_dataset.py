import math
import os
import re
import warnings

import numpy as np
import pytest

from fess import (
    CsvSchema,
    EvalGrid,
    GeoCoord,
    PlanarCoord,
    SpatialFunctionalDataset,
    ValidationError,
    ess_plugin,
    load_wide_csv,
    pairwise_distances,
    project_sinusoidal,
    trapz_inner,
    write_wide_csv,
)
import fess.dataset
from fess.dataset import EARTH_RADIUS_KM, _as_xy, _sinusoidal_xy, _write_csv
from fess.variogram import EmpiricalVariogram, default_lag_bins, empirical_trace_variogram
from fess.rng import derived_rng

from conftest import make_dataset


class TestEvalGrid:
    def test_needs_two_increasing_points(self):
        with pytest.raises(ValidationError):
            EvalGrid([1.0])
        with pytest.raises(ValidationError):
            EvalGrid([1.0, 1.0])
        with pytest.raises(ValidationError):
            EvalGrid([2.0, 1.0])
        with pytest.raises(ValidationError):
            EvalGrid([0.0, np.nan])

    def test_weights_sum_to_span(self):
        grid = EvalGrid([0.0, 0.3, 1.0, 2.5])
        assert np.isclose(grid.quad_weights.sum(), grid.span, rtol=1e-14)

    def test_immutable(self):
        grid = EvalGrid([0.0, 1.0])
        with pytest.raises(ValueError):
            grid.points[0] = 5.0


class TestCoords:
    def test_geo_bounds(self):
        GeoCoord(-180.0, 90.0)
        with pytest.raises(ValidationError):
            GeoCoord(181.0, 0.0)
        with pytest.raises(ValidationError):
            GeoCoord(0.0, -91.0)

    def test_planar_finite(self):
        with pytest.raises(ValidationError):
            PlanarCoord(float("inf"), 0.0)


class TestProjection:
    def test_origin_maps_to_zero(self):
        p = project_sinusoidal(GeoCoord(-145.0, 0.0), lon0=-145.0)
        assert p.x == 0.0 and p.y == 0.0

    def test_pole_y_is_quarter_meridian(self):
        # R * pi / 2, hand-evaluated
        p = project_sinusoidal(GeoCoord(12.0, 90.0), lon0=12.0)
        assert abs(p.y - 10007.557) < 1e-3
        assert abs(p.y - EARTH_RADIUS_KM * math.pi / 2.0) < 1e-9
        assert p.x == 0.0

    def test_one_degree_at_equator(self):
        # R * pi / 180, hand-evaluated
        p = project_sinusoidal(GeoCoord(13.0, 0.0), lon0=12.0)
        assert abs(p.x - 111.195) < 1e-3
        assert abs(p.y) == 0.0

    def test_offset_wraps_across_the_antimeridian(self):
        # 179 W seen from a central meridian at 179 E is 2 degrees east
        p = project_sinusoidal(GeoCoord(-179.0, 0.0), lon0=179.0)
        assert p.x == pytest.approx(2.0 * EARTH_RADIUS_KM * math.pi / 180.0, rel=1e-12)

    def test_antimeridian_projects_to_one_x_for_every_lon0(self):
        # 180 - lon0 and -180 - lon0 round apart for about 5% of lon0
        lon0 = np.concatenate([derived_rng(45).uniform(-720.0, 720.0, 5000), [176.67043694469768]])
        lon, lat = np.array([180.0, -180.0]), np.array([40.0, 40.0])
        for a in lon0.tolist():
            x = _sinusoidal_xy(lon, lat, a)[:, 0]
            assert x[0] == x[1], a

    @pytest.mark.parametrize(
        "lon0", [-145.0, 0.0, 179.0, 180.0, -180.0, -179.5, 12.25, 359.75, -725.3, 1e4]
    )
    def test_projection_is_the_closed_form_bitwise(self, lon0):
        # the reference is the formula per site with math.remainder and
        # math.cos; the offsets include +-180 exactly, wraps of either sign,
        # sites on both sides of the dateline and the poles
        rng = derived_rng(44)
        lon = np.concatenate([
            rng.uniform(-180.0, 180.0, 20_000),
            [-180.0, 180.0, 0.0, -0.0, 90.0, -90.0, 179.99, -179.99],
            np.remainder(np.array([lon0 + 180.0, lon0 - 180.0, lon0]) + 180.0, 360.0) - 180.0,
        ])
        lat = np.concatenate([
            rng.uniform(-90.0, 90.0, 20_000),
            [90.0, -90.0, 0.0, -0.0, 45.0, -45.0, 90.0, -90.0, 1.0, 2.0, 3.0],
        ])

        def closed_form(lon, lat):
            # 180 and -180 are one meridian
            dlon = math.remainder((-180.0 if lon == 180.0 else lon) - lon0, 360.0)
            if dlon == 180.0:
                dlon = -180.0
            lam, phi = math.radians(dlon), math.radians(lat)
            return EARTH_RADIUS_KM * lam * math.cos(phi), EARTH_RADIUS_KM * phi

        sites = list(zip(lon.tolist(), lat.tolist()))
        ref = np.array([closed_form(a, b) for a, b in sites])
        assert _sinusoidal_xy(lon, lat, lon0).tobytes() == ref.tobytes()
        # the scalar projection on the special sites and a sample of the rest
        for (a, b), (x, y) in list(zip(sites, ref.tolist()))[::97] + list(
            zip(sites[20_000:], ref[20_000:].tolist())
        ):
            p = project_sinusoidal(GeoCoord(a, b), lon0)
            assert (p.x, p.y) == (x, y) and math.copysign(1.0, p.x) == math.copysign(1.0, x)

    def test_array_projection_maps_half_turn_offsets_to_minus_180(self):
        # math.remainder gives +180 for an offset of 180 or -540 and -180
        # for -180 or 540; the projection takes -180 for all four
        lon = np.array([180.0, -180.0, 180.0, -180.0])
        for lon0 in (0.0, 360.0, -360.0):
            xy = _sinusoidal_xy(lon, np.zeros(4), lon0)
            assert np.all(xy[:, 0] == -EARTH_RADIUS_KM * math.pi)

    def test_injective_on_study_box(self):
        rng = derived_rng(42)
        pts = [
            GeoCoord(float(lon), float(lat))
            for lon, lat in zip(rng.uniform(-155, -135, 50), rng.uniform(35, 45, 50))
        ]
        projected = {
            (project_sinusoidal(p, -145.0).x, project_sinusoidal(p, -145.0).y)
            for p in pts
        }
        assert len(projected) == len(pts)


class TestPairwiseDistances:
    def test_single_point(self):
        D = pairwise_distances([PlanarCoord(3.0, 4.0)])
        assert D.shape == (1, 1) and D[0, 0] == 0.0

    def test_three_four_five(self):
        D = pairwise_distances([PlanarCoord(0, 0), PlanarCoord(3, 4)])
        assert D[0, 1] == 5.0 and D[1, 0] == 5.0

    def test_symmetric_zero_diagonal(self):
        rng = derived_rng(7)
        D = pairwise_distances(rng.uniform(-50, 50, size=(20, 2)))
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)

    def test_worker_count(self):
        from fess.dataset import _MIN_BLOCKS_PER_WORKER as per_worker
        from fess.dataset import _worker_count

        # capped at the number of blocks over the blocks each worker needs
        assert _worker_count(8, 3 * per_worker) == 3
        assert _worker_count(8, 3 * per_worker - 1) == 2
        assert _worker_count(2, 1000 * per_worker) == 2
        assert _worker_count(4, per_worker - 1) == 1
        assert _worker_count(4, 0) == 1
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
        assert _worker_count(None, 10**9) == cores
        assert _worker_count(None, 1) == 1
        for bad in (0, -1):
            with pytest.raises(ValidationError, match="threads"):
                _worker_count(bad, 10)

    def test_block_distances_mark_the_lower_triangle(self):
        from fess.dataset import _NOT_A_PAIR, _block_distances, _pair_spans

        rng = derived_rng(9)
        xy = rng.uniform(-50.0, 50.0, size=(300, 2))
        for i0, i1 in _pair_spans(300, 22) + ((0, 1), (5, 9), (298, 299)):
            d = _block_distances(xy, i0, i1)
            # the reference marks the not-a-pair entries through an index array
            ref = pairwise_distances(xy)[i0:i1, i0:]
            ref[np.tril_indices(i1 - i0)] = _NOT_A_PAIR
            assert d.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [40, 41])
    def test_pair_map_slices_the_gathered_rows(self, n, monkeypatch):
        # each block reads column slices of the rows gathered in canonical
        # order: head its own rows, tail every row from its first on
        from fess.dataset import _canonical_order, _pair_map, _pair_spans, _site_record

        monkeypatch.setattr(fess.dataset, "_PAIR_BLOCK_ELEMENTS", 5 * n * 3)
        rng = derived_rng(10)
        ds = make_dataset(rng.standard_normal((n, 3)), xy=rng.uniform(0.0, 100.0, size=(n, 2)))
        rows = rng.standard_normal((4, n))
        seen = []

        def fn(block, head, tail):
            seen.append((head, tail))
            return block

        spans = _pair_spans(n, 3)
        keep = ("slices", "key", 0, lambda d: d.shape)
        assert _pair_map(fn, ds, keep, rows, threads=1) == [(i1 - i0, n - i0) for i0, i1 in spans]
        X = rows[:, _canonical_order(ds, _site_record(ds.xy.tobytes()))]
        assert len(seen) == len(spans) > 1
        for (i0, i1), (head, tail) in zip(spans, seen):
            assert tail.shape == (4, n - i0)
            assert head.tobytes() == X[:, i0:i1].tobytes()
            assert tail.tobytes() == X[:, i0:].tobytes()

    def test_triangle_inequality(self):
        rng = derived_rng(8)
        D = pairwise_distances(rng.uniform(0, 10, size=(15, 2)))
        for _ in range(200):
            i, j, k = rng.integers(0, 15, size=3)
            assert D[i, j] <= D[i, k] + D[k, j] + 1e-9


class TestTrapzInner:
    @pytest.mark.parametrize("m", [2, 5, 22])
    def test_constant_ones(self, m):
        grid = EvalGrid(np.linspace(0.0, 1.0, m))
        ones = np.ones(m)
        assert np.isclose(trapz_inner(ones, ones, grid), 1.0, rtol=1e-12)

    def test_linear_times_one_two_points(self):
        grid = EvalGrid([0.0, 1.0])
        assert trapz_inner([0.0, 1.0], [1.0, 1.0], grid) == 0.5

    def test_zero_function(self):
        grid = EvalGrid([0.0, 0.5, 1.0])
        assert trapz_inner([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], grid) == 0.0

    def test_symmetric_and_bilinear(self):
        rng = derived_rng(9)
        grid = EvalGrid(np.sort(rng.uniform(0, 2, size=9)))
        a, b, c = rng.standard_normal((3, 9))
        assert trapz_inner(a, b, grid) == trapz_inner(b, a, grid)
        lhs = trapz_inner(2.5 * a + c, b, grid)
        rhs = 2.5 * trapz_inner(a, b, grid) + trapz_inner(c, b, grid)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_exact_for_piecewise_linear_product(self):
        # constant times the linear interpolant of b: the product is
        # piecewise linear, where the trapezoid rule is exact.
        rng = derived_rng(10)
        t = np.sort(rng.uniform(0, 3, size=7))
        grid = EvalGrid(t)
        b = rng.standard_normal(7)
        exact = 4.0 * np.sum((b[:-1] + b[1:]) / 2.0 * np.diff(t))
        assert np.isclose(trapz_inner(np.full(7, 4.0), b, grid), exact, rtol=1e-12)


class TestDataset:
    def test_row_and_grid_alignment(self):
        with pytest.raises(ValidationError):
            make_dataset(np.zeros((2, 3)), grid=EvalGrid([0.0, 1.0]))

    def test_rejects_non_finite(self):
        X = np.zeros((2, 3))
        X[1, 2] = np.inf
        with pytest.raises(ValidationError, match="row 1"):
            make_dataset(X)

    def test_planar_coords_read_like_an_array(self):
        rng = derived_rng(12)
        xy = rng.uniform(-1e4, 1e4, size=(25, 2))
        ref = _as_xy(xy)
        locs = [PlanarCoord(x, y) for x, y in xy.tolist()]
        # float, numpy float and int coordinates; a list, a tuple and a generator
        locs[3] = PlanarCoord(np.float64(xy[3, 0]), 7)
        expected = np.array(ref)
        expected[3, 1] = 7.0
        for given in (locs, tuple(locs), (p for p in locs)):
            out = _as_xy(given)
            assert out.dtype == np.float64 and out.shape == (25, 2)
            assert out.flags.c_contiguous and not out.flags.writeable
            assert out.tobytes() == expected.tobytes()
        with pytest.raises(ValidationError, match="^need at least one location$"):
            _as_xy([])
        with pytest.raises(ValidationError, match="or PlanarCoord instances$"):
            _as_xy(locs[:2] + [(1.0, 2.0)])

    def test_curves_read_only(self):
        ds = make_dataset(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ds.curves[0, 0] = 1.0

    def test_subset_keeps_alignment(self):
        rng = derived_rng(11)
        ds = make_dataset(rng.standard_normal((5, 3)))
        sub = ds.subset([3, 0])
        assert np.array_equal(sub.curves[0], ds.curves[3])
        assert np.array_equal(sub.xy[0], ds.xy[3])
        with pytest.raises(ValidationError):
            ds.subset([7])

    def test_subset_is_the_dataset_of_its_rows(self):
        # subset builds a dataset of the rows through the constructor: the
        # grid and lon0 carry over, the warnings do not
        rng = derived_rng(13)
        ds = SpatialFunctionalDataset(
            EvalGrid(np.arange(4.0)), rng.uniform(0.0, 50.0, size=(6, 2)),
            np.asfortranarray(rng.standard_normal((6, 4))),
            warnings=("a repeated site",), lon0=-160.0,
        )
        for idx in ([5, 0, 5, 2], [3], np.arange(6)[::-1], np.array([[1, 4]]).ravel()):
            sub = ds.subset(idx)
            built = SpatialFunctionalDataset(ds.grid, ds.xy[idx], ds.curves[idx], lon0=-160.0)
            for name in ("xy", "curves"):
                got, want = getattr(sub, name), getattr(built, name)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                assert got.flags.c_contiguous and not got.flags.writeable
            assert sub.grid is ds.grid and sub.lon0 == -160.0 and sub.warnings == ()
        assert ds.subset([1, 2]).subset([1]).curves.tobytes() == ds.curves[2].tobytes()
        for bad in ([6], [-1], [], [[0, 1]], [True, False, True, False], [1.9, 2.2]):
            with pytest.raises(ValidationError):
                ds.subset(bad)

    @pytest.mark.parametrize("family", ["exponential", "spherical", "gaussian"])
    def test_array_and_planar_coords_agree(self, family):
        rng = derived_rng(12)
        xy = rng.uniform(0.0, 200.0, size=(40, 2))
        curves = rng.standard_normal((40, 6))
        grid = EvalGrid(np.arange(6.0))
        from_array = SpatialFunctionalDataset(grid, xy, curves)
        from_coords = SpatialFunctionalDataset(
            grid, [PlanarCoord(float(x), float(y)) for x, y in xy], curves
        )
        assert np.array_equal(from_array.xy, from_coords.xy)
        assert from_array.xy.shape == (40, 2) and not from_array.xy.flags.writeable
        a = ess_plugin(from_array, family)
        b = ess_plugin(from_coords, family)
        assert (a.ess, a.model, a.warnings) == (b.ess, b.model, b.warnings)

    @pytest.mark.parametrize(
        "xy",
        [
            np.array([[0.0, 1.0], [np.nan, 2.0]]),
            np.array([[0.0, 1.0], [np.inf, 2.0]]),
            np.zeros((2, 3)),
            np.zeros(4),
            np.zeros((0, 2)),
        ],
        ids=["nan", "inf", "three-columns", "one-dimensional", "zero-rows"],
    )
    def test_bad_coordinate_arrays_rejected(self, xy):
        with pytest.raises(ValidationError):
            SpatialFunctionalDataset(EvalGrid([0.0, 1.0]), xy, np.zeros((len(xy), 2)))
        with pytest.raises(ValidationError):
            pairwise_distances(xy)

    def test_layout_of_the_given_arrays_does_not_change_results(self):
        # the constructor copies in C order, so Fortran-ordered curves and
        # sites give the same bits in every pair stage and column mean
        rng = derived_rng(13)
        xy = rng.uniform(0.0, 1500.0, size=(300, 2))
        curves = rng.standard_normal((300, 22)) + np.linspace(0.0, 3.0, 22)
        grid = EvalGrid(np.linspace(0.0, 1.0, 22))
        c_order = SpatialFunctionalDataset(grid, xy, curves)
        f_order = SpatialFunctionalDataset(grid, np.asfortranarray(xy), np.asfortranarray(curves))
        assert f_order.curves.flags.c_contiguous and f_order.xy.flags.c_contiguous
        bins = default_lag_bins(c_order)
        a = empirical_trace_variogram(c_order, bins)
        b = empirical_trace_variogram(f_order, bins)
        assert (a.gamma.tobytes(), a.sigma0) == (b.gamma.tobytes(), b.sigma0)
        for family in ("exponential", "spherical", "gaussian"):
            a = ess_plugin(c_order, family)
            b = ess_plugin(f_order, family)
            assert (a.ess, a.model, a.warnings) == (b.ess, b.model, b.warnings)

    def test_xy_is_a_copy(self):
        xy = np.array([[0.0, 0.0], [3.0, 4.0]])
        ds = SpatialFunctionalDataset(EvalGrid([0.0, 1.0]), xy, np.zeros((2, 2)))
        xy[1] = 9.0
        assert ds.xy.tolist() == [[0.0, 0.0], [3.0, 4.0]]


class TestLoadWideCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_load(self, tmp_path):
        path = self.write(
            tmp_path,
            "lon,lat,10,20\n-145.0,40.0,1.0,2.0\n-144.0,40.5,3.0,4.0\n-146.0,39.5,5.0,6.0\n",
        )
        ds = load_wide_csv(path)
        assert ds.n_curves == 3 and ds.n_levels == 2
        assert np.array_equal(ds.grid.points, [10.0, 20.0])
        assert ds.warnings == ()
        assert ds.lon0 == pytest.approx(-145.0)

    def test_mean_longitude_is_projection_center(self, tmp_path):
        path = self.write(
            tmp_path, "lon,lat,1,2\n-140.0,40.0,0,0\n-150.0,40.0,0,0\n"
        )
        ds = load_wide_csv(path)
        # sites sit symmetrically about the central meridian
        assert ds.xy[0, 0] == pytest.approx(-ds.xy[1, 0])

    def test_missing_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "lon,lat,10,20\n-145.0,40.0,1.0,\n")
        with pytest.raises(ValidationError, match=r"row 1, column '20'"):
            load_wide_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "lon,lat,10,20\n-145.0,40.0,x,2.0\n")
        with pytest.raises(ValidationError, match=r"column '10'"):
            load_wide_csv(path)

    def test_fewer_than_two_value_columns(self, tmp_path):
        path = self.write(tmp_path, "lon,lat,10\n-145.0,40.0,1.0\n")
        with pytest.raises(ValidationError, match="value columns"):
            load_wide_csv(path)

    def test_duplicate_location_kept_with_warning(self, tmp_path):
        path = self.write(
            tmp_path,
            "lon,lat,10,20\n-145.0,40.0,1.0,2.0\n-145.0,40.0,3.0,4.0\n",
        )
        ds = load_wide_csv(path)
        assert ds.n_curves == 2
        assert len(ds.warnings) == 1 and "duplicate" in ds.warnings[0]

    @pytest.mark.parametrize("lon0", [None, 0.0, 180.0, -150.0])
    def test_duplicate_across_the_antimeridian_kept_with_warning(self, tmp_path, lon0):
        # 180 and -180 at one latitude project to one site, which the pair
        # stages tie; the warning names the later row as read
        path = self.write(tmp_path, "lon,lat,10,20\n180,40,1,2\n-180,40,3,4\n")
        ds = load_wide_csv(path, CsvSchema(lon0=lon0))
        assert ds.xy[0].tolist() == ds.xy[1].tolist()
        assert fess.dataset._site_record(ds.xy.tobytes()).tied.size == 2
        assert ds.warnings == ("duplicate location (-180.0, 40.0) at rows 1 and 2 (both kept)",)

    def test_duplicates_named_by_group_in_file_order(self, tmp_path):
        # three interleaved groups, 0.0 and -0.0 alike: each later row, in
        # file order, beside its group's first row, as read
        rows = ["0.0,1", "5,5", "-0.0,1", "5,5", "2,2", "0.0,1.0", "2,2", "5,5"]
        path = self.write(tmp_path, "x,y,1,2\n" + "".join(f"{r},0,0\n" for r in rows))
        assert load_wide_csv(path).warnings == tuple(
            f"duplicate location {c} at rows {a} and {b} (both kept)"
            for c, a, b in [("(-0.0, 1.0)", 1, 3), ("(5.0, 5.0)", 2, 4), ("(0.0, 1.0)", 1, 6),
                            ("(2.0, 2.0)", 5, 7), ("(5.0, 5.0)", 2, 8)]
        )

    def test_antimeridian_rows_are_one_site_at_the_files_own_lon0(self, tmp_path):
        # this file's circular-mean lon0 rounds 180 - lon0 and -180 - lon0
        # apart, which made two sites 2e-12 km apart without a warning
        path = self.write(tmp_path, "lon,lat,10,20\n180,40,1,2\n170,-5,3,4\n-180,40,5,6\n")
        ds = load_wide_csv(path)
        assert ds.xy[0].tolist() == ds.xy[2].tolist()
        assert fess.dataset._site_record(ds.xy.tobytes()).tied.size == 2
        assert ds.warnings == ("duplicate location (-180.0, 40.0) at rows 1 and 3 (both kept)",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_wide_csv(tmp_path / "absent.csv")

    def test_schema_lon0_override(self, tmp_path):
        path = self.write(tmp_path, "lon,lat,1,2\n-140.0,0.0,0,0\n")
        ds = load_wide_csv(path, CsvSchema(lon0=-141.0))
        assert ds.xy[0, 0] == pytest.approx(EARTH_RADIUS_KM * math.pi / 180.0)

    def test_lon_in_0_360_convention_wrapped(self, tmp_path):
        # 215 E == -145; wrapped with a warning, as ocean reanalysis
        # exports commonly use the 0..360 convention
        path = self.write(
            tmp_path, "lon,lat,1,2\n215.0,40.0,0,0\n216.0,40.0,0,0\n"
        )
        ds = load_wide_csv(path)
        assert ds.lon0 == pytest.approx(-144.5)
        assert any("wrapped" in w for w in ds.warnings)

    @pytest.mark.parametrize(
        "lons,lon0",
        [
            ((179.0, -179.0), None),
            ((179.0, 181.0), None),
            ((179.0, -179.0, 181.0), None),
            ((179.0, -179.0), 179.0),
            ((179.0, 181.0), -150.0),
        ],
    )
    def test_sites_across_the_antimeridian_stay_neighbours(self, tmp_path, lons, lon0):
        # equator sites 2 degrees of longitude apart: R * 2 pi / 180 = 222.4 km
        rows = "".join(f"{lon},0.0,0,0\n" for lon in lons)
        path = self.write(tmp_path, "lon,lat,1,2\n" + rows)
        ds = load_wide_csv(path, CsvSchema(lon0=lon0))
        D = pairwise_distances(ds.xy)
        assert np.max(D) == pytest.approx(2.0 * EARTH_RADIUS_KM * math.pi / 180.0, rel=1e-9)
        assert abs(np.max(D) - 222.4) < 0.05

    def test_out_of_range_latitude_names_row(self, tmp_path):
        path = self.write(
            tmp_path, "lon,lat,1,2\n-145.0,40.0,0,0\n-144.0,95.0,0,0\n"
        )
        with pytest.raises(ValidationError, match="row 2"):
            load_wide_csv(path)

    @pytest.mark.parametrize(
        "rows,message",
        [
            (["-145,40", "-144,-90.5", "-181,40"], "row 2: latitude -90.5 outside [-90, 90]"),
            (["-145,40", "-181,40", "-144,95"], "row 2: longitude -181.0 outside [-180, 180]"),
            (["360.5,91", "-144,95"], "row 1: longitude 360.5 outside [-180, 180]"),
            (["-145,90", "-145,-90", "180,0", "-180,0", "360,0", "200,1e3"],
             "row 6: latitude 1000.0 outside [-90, 90]"),
        ],
    )
    def test_first_site_out_of_range_names_its_row(self, tmp_path, rows, message):
        # rows in file order, and in a row its longitude, then its latitude
        body = "".join(f"{r},0,0\n" for r in rows)
        path = self.write(tmp_path, "lon,lat,1,2\n" + body)
        with pytest.raises(ValidationError) as info:
            load_wide_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("lon0", [None, 179.5, -179.5, 180.0, 540.0])
    def test_sites_are_the_scalar_projection_bitwise(self, tmp_path, lon0):
        # 0..360 longitudes around the antimeridian, repeated sites warned
        # in row order against their first row
        rng = derived_rng(45)
        lon = np.round(rng.uniform(170.0, 190.0, 200), 3)
        lat = np.round(rng.uniform(-60.0, 60.0, 200), 3)
        for site in (lon, lat):
            site[[50, 120]] = site[3]
            site[121] = site[50]
        lon[7] = 180.0
        body = "".join(f"{a!r},{b!r},0,1\n" for a, b in zip(lon.tolist(), lat.tolist()))
        path = self.write(tmp_path, "lon,lat,1,2\n" + body)
        ds = load_wide_csv(path, CsvSchema(lon0=lon0))
        wrapped = np.where(lon > 180.0, lon - 360.0, lon)
        center = ds.lon0 if lon0 is None else lon0
        ref = [
            project_sinusoidal(GeoCoord(a, b), center)
            for a, b in zip(wrapped.tolist(), lat.tolist())
        ]
        assert ds.xy.tobytes() == np.array([(p.x, p.y) for p in ref]).tobytes()
        site = lambda r: (float(wrapped[r]), float(lat[r]))
        assert ds.warnings[1:] == (
            f"duplicate location {site(3)} at rows 4 and 51 (both kept)",
            f"duplicate location {site(3)} at rows 4 and 121 (both kept)",
            f"duplicate location {site(3)} at rows 4 and 122 (both kept)",
        )
        assert ds.warnings[0].startswith("wrapped ")

    def test_schema_from_json_rejects_unknown_keys(self, tmp_path):
        sidecar = tmp_path / "schema.json"
        sidecar.write_text('{"lon_column": "longitude", "bogus": 1}')
        with pytest.raises(ValidationError, match="bogus"):
            CsvSchema.from_json(sidecar)

    def test_schema_refuses_lon0_with_planar(self, tmp_path):
        # planar coordinates are not projected, so a central meridian would
        # be ignored without a word
        match = "'lon0' and 'planar'"
        with pytest.raises(ValidationError, match=match):
            CsvSchema(lon0=-141.0, planar=True)
        sidecar = tmp_path / "schema.json"
        sidecar.write_text('{"planar": true, "lon0": 0}')
        with pytest.raises(ValidationError, match=f"schema.json: .*{match}"):
            CsvSchema.from_json(sidecar)
        assert CsvSchema(lon0=-141.0).lon0 == -141.0 and CsvSchema(planar=True).planar

    def test_center_levels_flag(self, tmp_path):
        path = self.write(
            tmp_path, "lon,lat,1,2\n-145.0,40.0,1.0,2.0\n-144.0,40.0,3.0,6.0\n"
        )
        ds = load_wide_csv(path, CsvSchema(center_levels=True))
        assert np.allclose(ds.curves.mean(axis=0), 0.0)

    def test_planar_round_trip(self, tmp_path):
        rng = derived_rng(12)
        ds = make_dataset(rng.standard_normal((4, 3)), xy=rng.uniform(0, 10, (4, 2)))
        out = tmp_path / "planar.csv"
        write_wide_csv(ds, out)
        back = load_wide_csv(out)
        assert np.array_equal(back.curves, ds.curves)
        assert np.array_equal(back.xy, ds.xy)
        assert back.lon0 is None


def _wide_text(rows, header="lon,lat,10,20", newline="\n"):
    return newline.join([header] + [",".join(r) for r in rows]) + newline


_GOOD_ROWS = [["-145.0", "40.0", "1.0", "2.0"], ["-144.0", "40.5", "3.0", "4.0"],
              ["-146.0", "39.5", "5.0", "6.0"]]


class TestWideCsvReader:
    """``load_wide_csv`` reads every number in one ``np.loadtxt`` call; a cell
    by cell scan runs only to name the first bad cell after that read fails."""

    def load(self, tmp_path, text, schema=None, name="data.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return load_wide_csv(path, schema)

    def assert_same(self, a, b):
        for name in ("xy", "curves"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            # C order, as the reductions over the curves assume
            assert getattr(a, name).flags.c_contiguous
        assert a.grid.points.tobytes() == b.grid.points.tobytes()
        assert (a.lon0, a.warnings) == (b.lon0, b.warnings)

    @pytest.mark.parametrize(
        "text",
        [
            # quoted cells, with spaces inside and after the quotes
            'lon,lat,10,20\n"-145.0",40.0," 1.0 ","2.0" \n-144.0,"40.5",3.0,4.0\n'
            '-146.0,39.5,5.0," 6.0"\n',
            _wide_text(_GOOD_ROWS, newline="\r\n"),
            # blank lines before the header, between the rows and at the end
            "\n" + _wide_text(_GOOD_ROWS).replace("2.0\n", "2.0\n\n\r\n") + "\n\n",
        ],
        ids=["quoted", "crlf", "blank-lines"],
    )
    def test_layouts_read_as_the_plain_file(self, tmp_path, text):
        plain = self.load(tmp_path, _wide_text(_GOOD_ROWS))
        self.assert_same(self.load(tmp_path, text, name="layout.csv"), plain)

    def test_unused_columns_may_hold_text(self, tmp_path):
        text = (
            "station,lon,lat,10,note,20\n"
            'Alpha,-145.0,40.0,1.0,"calm, clear",2.0\n'
            '"Beta ""B""",-144.0,40.5,3.0,,4.0\n'
            'Gamma,-146.0,39.5,5.0,"two\nlines",6.0\n'
        )
        ds = self.load(tmp_path, text, CsvSchema(value_columns=["10", "20"]), "text.csv")
        self.assert_same(ds, self.load(tmp_path, _wide_text(_GOOD_ROWS)))
        # longer than the cells csv.reader takes
        long_note = text.replace("calm, clear", "x" * 200_000)
        ds = self.load(tmp_path, long_note, CsvSchema(value_columns=["10", "20"]), "long.csv")
        self.assert_same(ds, self.load(tmp_path, _wide_text(_GOOD_ROWS)))

    def test_longitudes_wrap_from_above_180_up_to_360(self, tmp_path):
        wrapped = self.load(tmp_path, "lon,lat,1,2\n180.0,0,0,1\n180.5,0,0,1\n360,1,0,1\n",
                            name="east.csv")
        plain = self.load(tmp_path, "lon,lat,1,2\n180.0,0,0,1\n-179.5,0,0,1\n0,1,0,1\n")
        assert wrapped.warnings == ("wrapped 2 longitudes from (180, 360] to [-180, 180]",)
        assert plain.warnings == ()
        assert (wrapped.xy.tobytes(), wrapped.lon0) == (plain.xy.tobytes(), plain.lon0)

    @pytest.mark.parametrize(
        "text", ["lon,lat,10,20\n", "lon,lat,10,20", "\nlon,lat,10,20\r\n\r\n\n"]
    )
    def test_header_only_has_no_data_rows(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on an empty body
            with pytest.raises(ValidationError, match="no data rows"):
                self.load(tmp_path, text)

    @pytest.mark.parametrize("cell", ["nan", "-NaN", "inf", "-Infinity", "1e400", '"1e400"'])
    @pytest.mark.parametrize("column", ["lon", "lat", "10", "20"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, column):
        rows = [list(r) for r in _GOOD_ROWS]
        rows[1][["lon", "lat", "10", "20"].index(column)] = cell
        with pytest.raises(
            ValidationError, match=rf"^row 2, column '{column}': non-finite value$"
        ):
            self.load(tmp_path, _wide_text(rows))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({(1, 3): "x", (2, 2): "nan"}, "row 1, column '20': cannot parse 'x'"),
            ({(1, 3): "nan", (2, 0): "x"}, "row 1, column '20': non-finite value"),
            ({(1, 0): "", (1, 2): "x"}, "row 1, column 'lon': missing value"),
            ({(2, 1): "1e400", (3, 3): "x"}, "row 2, column 'lat': non-finite value"),
            ({(1, 4): "7", (2, 2): "x"}, "row 1: expected 4 cells, found 5"),
            ({(1, 4): "7", (2, 4): "7", (3, 4): "7"}, "row 1: expected 4 cells, found 5"),
            ({(2, 2): "x", (3, 4): "7"}, "row 2, column '10': cannot parse 'x'"),
        ],
    )
    def test_first_bad_cell_in_row_order_is_named(self, tmp_path, bad, message):
        rows = [list(r) for r in _GOOD_ROWS]
        for (r, k), cell in bad.items():
            if k < 4:
                rows[r - 1][k] = cell
            else:
                rows[r - 1].append(cell)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            self.load(tmp_path, _wide_text(rows))

    def test_cells_are_scanned_only_after_a_failed_read(self, tmp_path, monkeypatch):
        import fess.dataset

        calls = []
        parse = fess.dataset._parse_cell

        def counted(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(fess.dataset, "_parse_cell", counted)
        self.load(tmp_path, _wide_text(_GOOD_ROWS))
        self.load(tmp_path, "x,y,1,2\n0.0,0.0,1.0,2.0\n", name="planar.csv")
        assert calls == []
        rows = [list(r) for r in _GOOD_ROWS]
        rows[1][2] = "x"
        with pytest.raises(ValidationError, match="row 2, column '10': cannot parse"):
            self.load(tmp_path, _wide_text(rows), name="bad.csv")
        assert calls[-1] == ("x", 2, "10")

    def test_failed_read_without_a_bad_cell_names_its_reason(self, tmp_path, monkeypatch):
        # both routes take the same cells, so the scan finds none to name
        # only when the read failed for another reason
        def refuse(*args, **kwargs):
            raise ValueError("read refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
        path = tmp_path / "data.csv"
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: read refused$"):
            self.load(tmp_path, _wide_text(_GOOD_ROWS))

    def test_values_are_float_of_the_text_bitwise(self, tmp_path):
        rng = derived_rng(31)
        # uniform bit patterns reach every exponent, subnormals included
        bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
        doubles = np.concatenate([
            bits[np.isfinite(bits)],
            rng.uniform(-1.0, 1.0, 200) * 2.0**-1060,  # subnormal
            [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0],
        ])
        texts = [repr(float(v)) for v in doubles]
        texts += [f"{v:.16e}" for v in doubles[:500]]  # 17-digit mantissas
        # 17- to 19-digit mantissas that are no double's shortest repr
        texts += [f"{m}e{e}" for m, e in zip(rng.integers(10**16, 9 * 10**18, 500),
                                             rng.integers(-342, 290, 500))]
        texts += ["-0.0", "0e-999", "1e-400", "-4.9e-324", "2.4703282292062328e-324"]
        m = 8
        texts += ["0.5"] * (-len(texts) % (m + 2))
        cells = np.array(texts, dtype=object).reshape(-1, m + 2)
        header = ",".join(["x", "y"] + [str(k) for k in range(m)])
        path = tmp_path / "doubles.csv"
        path.write_text(_wide_text(cells.tolist(), header=header), encoding="utf-8")
        ds = load_wide_csv(path)
        expected = np.array([[float(t) for t in row] for row in cells.tolist()])
        assert ds.xy.tobytes() == np.ascontiguousarray(expected[:, :2]).tobytes()
        assert ds.curves.tobytes() == np.ascontiguousarray(expected[:, 2:]).tobytes()
        assert ds.xy.flags.c_contiguous and ds.curves.flags.c_contiguous

    @pytest.mark.parametrize("cell", ["1_000", "1_0e5", "١", "１.5", "2٠"])
    def test_digits_only_float_takes_are_refused_by_both_readers(self, tmp_path, cell):
        # float() alone takes digit-group underscores and non-ASCII digits
        assert math.isfinite(float(cell))
        rows = [list(r) for r in _GOOD_ROWS]
        rows[0][3] = cell
        with pytest.raises(ValidationError, match=r"^row 1, column '20': cannot parse"):
            self.load(tmp_path, _wide_text(rows))
        emp = tmp_path / "emp.csv"
        emp.write_text(f"h,gamma,count\n10,1,8\n{cell},2,8\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"^row 2, column 'h': cannot parse"):
            EmpiricalVariogram.from_csv(emp)

    @pytest.mark.parametrize("cell", [" 2.0\t", " 2.0", "2.0 ", "\x1c2.0\x1f"])
    def test_surrounding_whitespace_is_read_by_both_readers(self, tmp_path, cell):
        rows = [list(r) for r in _GOOD_ROWS]
        rows[0][3] = cell
        self.assert_same(self.load(tmp_path, _wide_text(rows), name="spaced.csv"),
                         self.load(tmp_path, _wide_text(_GOOD_ROWS)))
        emp = tmp_path / "emp.csv"
        emp.write_text(f"h,gamma,count\n10,{cell},8\n", encoding="utf-8")
        assert EmpiricalVariogram.from_csv(emp).gamma.tolist() == [2.0]


_BOM = "\ufeff"


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte-order mark (as spreadsheet
    "CSV UTF-8" exports write) reads exactly like the same file without it."""

    def pair(self, tmp_path, text, name):
        plain = tmp_path / name
        marked = tmp_path / f"bom_{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(_BOM + text, encoding="utf-8")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        return plain, marked

    @pytest.mark.parametrize(
        "text",
        [
            "lon,lat,10,20\n-145.0,40.0,1.0,2.0\n-144.0,40.5,3.0,4.0\n",
            "x,y,10,20\n0.0,0.0,1.0,2.0\n3.5,-1.25,3.0,4.0\n",
        ],
        ids=["lonlat", "planar"],
    )
    def test_wide_csv(self, tmp_path, text):
        plain, marked = self.pair(tmp_path, text, "data.csv")
        a, b = load_wide_csv(plain), load_wide_csv(marked)
        for name in ("xy", "curves"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.grid.points.tobytes() == b.grid.points.tobytes()
        assert (a.lon0, a.warnings) == (b.lon0, b.warnings)

    def test_variogram_csv(self, tmp_path):
        plain, marked = self.pair(
            tmp_path, "h,gamma,count\n10.5,1.25,8\n20,nan,0\n30,2.5,3\n", "emp.csv"
        )
        a, b = EmpiricalVariogram.from_csv(plain), EmpiricalVariogram.from_csv(marked)
        for name in ("centers", "gamma", "counts"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_schema_json(self, tmp_path):
        plain, marked = self.pair(
            tmp_path, '{"lon_column": "x", "lat_column": "y", "planar": true}\n', "schema.json"
        )
        assert CsvSchema.from_json(marked) == CsvSchema.from_json(plain)


class TestWriteCsv:
    def test_cells_round_trip(self, tmp_path):
        rng = derived_rng(13)
        floats = np.concatenate([rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50),
                                 [math.pi, 0.1, 1e-320, -1.0 / 3.0, 2.0**53 + 1.0]])
        rows = [(3, np.int64(-7), float(v), np.float64(v)) for v in floats]
        rows.append((0, np.int64(2**62), math.nan, -0.0))
        path = tmp_path / "table.csv"
        _write_csv(path, ["n", " Count", "a b", "t"], zip(*rows))
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines[0] == "n, Count,a b,t" and lines[-1] == ""
        body = [line.split(",") for line in lines[1:-1]]
        assert len(body) == len(rows)
        for cells, (i, j, x, y) in zip(body[:-1], rows):
            assert cells[:2] == [str(i), str(int(j))]
            assert cells[2:] == [repr(x), repr(float(y))]
            for cell in cells[2:]:
                assert np.float64(cell).tobytes() == np.float64(x).tobytes()
        assert body[-1] == ["0", str(2**62), "nan", "-0.0"]
