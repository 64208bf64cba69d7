import math

import numpy as np
import pytest

from fess import (
    CsvSchema,
    EvalGrid,
    GeoCoord,
    PlanarCoord,
    ValidationError,
    load_wide_csv,
    pairwise_distances,
    project_sinusoidal,
    trapz_inner,
    write_wide_csv,
)
from fess.dataset import EARTH_RADIUS_KM
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

    def test_curves_read_only(self):
        ds = make_dataset(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ds.curves[0, 0] = 1.0

    def test_subset_keeps_alignment(self):
        rng = derived_rng(11)
        ds = make_dataset(rng.standard_normal((5, 3)))
        sub = ds.subset([3, 0])
        assert np.array_equal(sub.curves[0], ds.curves[3])
        assert sub.locations[0] == ds.locations[3]
        with pytest.raises(ValidationError):
            ds.subset([7])


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
        assert ds.locations[0].x == pytest.approx(-ds.locations[1].x)

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_wide_csv(tmp_path / "absent.csv")

    def test_schema_lon0_override(self, tmp_path):
        path = self.write(tmp_path, "lon,lat,1,2\n-140.0,0.0,0,0\n")
        ds = load_wide_csv(path, CsvSchema(lon0=-141.0))
        assert ds.locations[0].x == pytest.approx(EARTH_RADIUS_KM * math.pi / 180.0)

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

    def test_schema_from_json_rejects_unknown_keys(self, tmp_path):
        sidecar = tmp_path / "schema.json"
        sidecar.write_text('{"lon_column": "longitude", "bogus": 1}')
        with pytest.raises(ValidationError, match="bogus"):
            CsvSchema.from_json(sidecar)

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
