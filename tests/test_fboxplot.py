import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import fess.fboxplot
from fess import (
    SpatialFunctionalDataset,
    FidelityMetrics,
    ValidationError,
    fidelity_metrics,
    functional_boxplot,
    mbd,
    subsample_experiment,
)
from fess.fboxplot import _band_depths, _dense_ranks
from fess.rng import derived_rng

from conftest import make_dataset, random_dataset, tied_dataset


def brute_force_mbd(X):
    """Independent oracle: enumerate all pair bands, integer counts."""
    n, m = X.shape
    j, k = np.array(list(itertools.combinations(range(n), 2))).T
    lo = np.minimum(X[j], X[k])
    hi = np.maximum(X[j], X[k])
    counts = [int(np.count_nonzero((x >= lo) & (x <= hi))) for x in X]
    return np.array(counts, dtype=np.int64) / (len(j) * m)


class TestMbd:
    def test_identical_curves_all_depth_one(self):
        X = np.tile(np.array([0.5, 1.5, -1.0]), (5, 1))
        assert np.all(mbd(make_dataset(X)) == 1.0)

    def test_three_ordered_curves(self):
        X = np.vstack([np.zeros(6), np.ones(6), 2.0 * np.ones(6)])
        assert np.array_equal(mbd(make_dataset(X)), [2.0 / 3.0, 1.0, 2.0 / 3.0])

    def test_matches_brute_force_exactly(self):
        rng = derived_rng(51)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(2, 9))
            X = rng.standard_normal((n, m))
            assert np.array_equal(mbd(make_dataset(X)), brute_force_mbd(X))

    def test_matches_brute_force_with_ties(self):
        rng = derived_rng(52)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, 7))
            X = rng.integers(-1, 2, size=(n, m)).astype(float)  # heavy ties
            assert np.array_equal(mbd(make_dataset(X)), brute_force_mbd(X))

    def test_invariant_under_common_shift_and_scaling(self):
        rng = derived_rng(53)
        X = rng.standard_normal((7, 6))
        base = mbd(make_dataset(X))
        shift = rng.standard_normal(6)
        assert np.array_equal(base, mbd(make_dataset(X + shift)))
        assert np.array_equal(base, mbd(make_dataset(3.0 * X)))

    def test_depths_in_unit_interval(self):
        rng = derived_rng(54)
        depths = mbd(random_dataset(rng, 20, 9))
        assert np.all(depths >= 0.0) and np.all(depths <= 1.0)

    def test_needs_two_curves(self):
        with pytest.raises(ValidationError):
            mbd(make_dataset(np.zeros((1, 4))))


class TestRankKernel:
    """``_band_depths`` reads ranks; ``_dense_ranks`` makes them."""

    def test_dense_ranks_tie_equal_values(self):
        values = np.array([[3.5, -1.0, 3.5, 2.0, -1.0, 7.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        ranks = _dense_ranks(values)
        assert ranks.dtype == np.uint8
        assert ranks.tolist() == [[2, 0, 2, 1, 0, 3], [0, 0, 0, 0, 0, 0]]

    def test_dense_ranks_tie_signed_zeros(self):
        values = np.array([0.0, -0.0, -1e-300, -0.0, 5e-324, 0.0, -3.0])
        assert _dense_ranks(values).tolist() == [2, 2, 1, 2, 3, 2, 0]

    def test_dense_ranks_width_follows_the_count(self):
        assert _dense_ranks(np.zeros(256)).dtype == np.uint8
        ranks = _dense_ranks(-np.arange(257.0))
        assert ranks.dtype == np.uint16 and ranks.tolist() == list(range(256, -1, -1))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_random_tied_stacks_match_brute_force(self, dtype):
        # any unsigned ranks that order and tie as the values do, dense or
        # not, up to the largest of their type; uint32 ranks make 64-bit keys
        rng = derived_rng(55)
        top = int(np.iinfo(dtype).max)
        for _ in range(40):
            B, m, s = (int(v) for v in rng.integers((1, 1, 2), (4, 5, 14)))
            levels = int(rng.integers(1, 5))
            ranks = rng.integers(0, levels, size=(B, m, s)) * (top // max(1, levels - 1))
            depths = _band_depths(ranks.astype(dtype))
            assert depths.shape == (B, s)
            for R, d in zip(ranks, depths):
                assert np.array_equal(d, brute_force_mbd(R.T.astype(float)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32])
    def test_all_equal_rows_have_depth_one(self, dtype):
        for s in (2, 3, 300):
            assert np.all(_band_depths(np.full((2, 3, s), 7, dtype=dtype)) == 1.0)

    def test_two_curves(self):
        ranks = np.array([[[0, 1], [1, 0], [4, 4]]], dtype=np.uint16)
        assert np.array_equal(_band_depths(ranks), [[1.0, 1.0]])
        X = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 4.0]])
        assert np.array_equal(mbd(make_dataset(X)), brute_force_mbd(X))

    @pytest.mark.parametrize("s", [257, 300])
    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_more_curves_than_an_8_bit_position(self, s, dtype):
        # the position field of the key passes 8 bits at s >= 257
        rng = derived_rng(56)
        ranks = rng.integers(0, 40, size=(2, 3, s)) * (int(np.iinfo(dtype).max) // 39)
        ranks[1, 0] = 5  # one all-equal row
        depths = _band_depths(ranks.astype(dtype))
        for R, d in zip(ranks, depths):
            assert np.array_equal(d, brute_force_mbd(R.T.astype(float)))


class TestFunctionalBoxplot:
    def test_two_curves_no_outliers(self):
        X = np.vstack([np.zeros(5), np.ones(5)])
        fb = functional_boxplot(make_dataset(X))
        assert fb.outliers.size == 0
        # equal depths: both curves sit in the central region
        assert np.array_equal(fb.central_lower, np.zeros(5))
        assert np.array_equal(fb.central_upper, np.ones(5))

    def test_spike_curve_flagged_outlier(self):
        rng = derived_rng(55)
        X = rng.uniform(-1.0, 1.0, size=(20, 8))
        spike = np.full((1, 8), 100.0)
        fb = functional_boxplot(make_dataset(np.vstack([X, spike])))
        assert list(fb.outliers) == [20]

    @pytest.mark.parametrize("which", ["tied", "signed_zero", "nonnegative_signed_zero"])
    def test_central_band_is_the_value_envelope(self, which):
        # independent oracle: the central region from brute-force depths,
        # its envelope from the values; bitwise, so the signs of zeros too.
        # The non-negative set has zero lower edges over 20 central curves,
        # where np.minimum.reduceat would take the other zero at some.
        if which == "nonnegative_signed_zero":
            X = signed_zero_dataset(39, 6).curves
            X = np.where(X < 0.0, -X, X)  # zeros keep their signs
        else:
            X = BATCH_DATASETS[which]().curves
        fb = functional_boxplot(make_dataset(X))
        depths = brute_force_mbd(X)
        central = (depths >= np.sort(depths)[len(X) - math.ceil(len(X) / 2)])[:, None]
        lower = np.where(central, X, np.inf).min(axis=0)
        upper = np.where(central, X, -np.inf).max(axis=0)
        for got, want in ((fb.central_lower, lower), (fb.central_upper, upper)):
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))
        if which != "tied":  # the band has zeros of both signs
            zeros = np.concatenate([lower, upper])[np.concatenate([lower, upper]) == 0.0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    def test_median_inside_central_band(self):
        rng = derived_rng(56)
        for _ in range(20):
            ds = random_dataset(rng, int(rng.integers(2, 25)), 6)
            fb = functional_boxplot(ds)
            med = ds.curves[fb.median_index]
            assert np.all(med >= fb.central_lower - 1e-15)
            assert np.all(med <= fb.central_upper + 1e-15)

    def test_band_nesting(self):
        rng = derived_rng(57)
        for _ in range(20):
            ds = random_dataset(rng, 15, 7)
            fb = functional_boxplot(ds)
            assert np.all(fb.central_lower <= fb.central_upper)
            assert np.all(fb.nonout_lower <= fb.central_lower)
            assert np.all(fb.nonout_upper >= fb.central_upper)
            assert np.all(fb.fence_lower <= fb.central_lower)
            assert np.all(fb.fence_upper >= fb.central_upper)

    def test_central_region_holds_at_least_half(self):
        rng = derived_rng(58)
        ds = random_dataset(rng, 21, 5)
        fb = functional_boxplot(ds)
        inside = np.all(
            (ds.curves >= fb.central_lower) & (ds.curves <= fb.central_upper), axis=1
        )
        assert inside.sum() >= 11  # ceil(21 / 2)

    def test_median_is_first_argmax(self):
        X = np.tile(np.array([1.0, 2.0]), (4, 1))  # all tied at depth 1
        fb = functional_boxplot(make_dataset(X))
        assert fb.median_index == 0


class TestFidelityMetrics:
    def test_self_comparison_is_zero(self):
        rng = derived_rng(59)
        for _ in range(20):
            ds = random_dataset(rng, int(rng.integers(4, 20)), 6)
            m = fidelity_metrics(ds, ds)
            assert m.md_l2 == 0.0
            assert m.md_sup == 0.0
            assert m.crd_mean == 0.0
            assert m.crd_sup == 0.0
            assert m.cip >= 0.5

    def test_constant_shift_moves_median_by_c(self):
        rng = derived_rng(60)
        ds = random_dataset(rng, 12, 8)
        c = 0.37
        shifted = make_dataset(ds.curves + c, xy=ds.xy, grid=ds.grid)
        m = fidelity_metrics(ds, shifted)
        assert m.md_sup == pytest.approx(c, rel=1e-12)
        assert m.md_l2 == pytest.approx(c, rel=1e-12)
        assert m.crd_mean == pytest.approx(0.0, abs=1e-12)
        assert m.crd_sup == pytest.approx(0.0, abs=1e-12)

    def test_sup_dominates_rms(self):
        rng = derived_rng(61)
        full = random_dataset(rng, 18, 7)
        sub = full.subset(rng.choice(18, size=9, replace=False))
        m = fidelity_metrics(full, sub)
        assert m.md_sup >= m.md_l2
        assert m.crd_sup >= m.crd_mean
        assert 0.0 <= m.cip <= 1.0

    def test_row_permutation_invariance(self):
        rng = derived_rng(62)
        full = random_dataset(rng, 14, 6)
        sub = full.subset(rng.choice(14, size=7, replace=False))
        a = fidelity_metrics(full, sub)
        b = fidelity_metrics(
            full.subset(rng.permutation(14)), sub.subset(rng.permutation(7))
        )
        assert a.as_tuple() == b.as_tuple()

    @pytest.mark.parametrize("which", ["tied", "signed_zero"])
    def test_rank_space_scoring_is_the_value_definition(self, which):
        # the metrics from the two boxplots' values, bit for bit, also for
        # a subsample whose curves are not among the full sample's
        full = BATCH_DATASETS[which]()
        summary = functional_boxplot(full)
        rng = derived_rng(68)
        subs = [full.subset(rng.choice(full.n_curves, size=k, replace=False))
                for k in (2, 3, 7, full.n_curves)]
        subs.append(make_dataset(-full.curves[:6], grid=full.grid))
        for sub in subs:
            own = functional_boxplot(sub)
            diff = full.curves[summary.median_index] - sub.curves[own.median_index]
            width = np.abs(summary.central_width - own.central_width)
            inside = np.all(
                (sub.curves >= summary.central_lower) & (sub.curves <= summary.central_upper),
                axis=1,
            )
            expected = (np.sqrt(np.mean(diff**2)), np.max(np.abs(diff)), np.mean(width),
                        np.max(width), np.mean(inside))
            assert fidelity_metrics(full, sub).as_tuple() == tuple(map(float, expected))

    def test_grid_mismatch_rejected(self):
        rng = derived_rng(63)
        a = random_dataset(rng, 5, 4)
        b = make_dataset(
            rng.standard_normal((5, 4)),
            grid=type(a.grid)([0.0, 0.5, 1.0, 2.0]),
        )
        with pytest.raises(ValidationError, match="grid"):
            fidelity_metrics(a, b)


class TestSubsampleExperiment:
    def test_single_rep_equals_direct_call(self):
        rng = derived_rng(64)
        full = random_dataset(rng, 20, 6)
        exp = subsample_experiment(full, size=10, reps=1, seed=5)
        idx = derived_rng(5, 0).choice(20, size=10, replace=False)
        direct = fidelity_metrics(full, full.subset(idx))
        assert tuple(exp.replicates[0]) == direct.as_tuple()
        assert exp.means.as_tuple() == direct.as_tuple()

    def test_deterministic(self):
        rng = derived_rng(65)
        full = random_dataset(rng, 25, 5)
        a = subsample_experiment(full, size=8, reps=5, seed=11)
        b = subsample_experiment(full, size=8, reps=5, seed=11)
        assert np.array_equal(a.replicates, b.replicates)
        assert a.median_band_halfwidth == b.median_band_halfwidth

    def test_means_are_arithmetic(self):
        rng = derived_rng(66)
        full = random_dataset(rng, 22, 5)
        exp = subsample_experiment(full, size=9, reps=7, seed=3)
        assert exp.means.as_tuple() == tuple(exp.replicates.mean(axis=0))

    def test_band_halfwidth_is_mean_median_mad(self):
        rng = derived_rng(67)
        full = random_dataset(rng, 18, 6)
        exp = subsample_experiment(full, size=9, reps=4, seed=21)
        fb = functional_boxplot(full)
        med_full = full.curves[fb.median_index]
        mads = []
        for r in range(4):
            idx = derived_rng(21, r).choice(18, size=9, replace=False)
            sub = full.subset(idx)
            med_sub = sub.curves[functional_boxplot(sub).median_index]
            mads.append(np.mean(np.abs(med_full - med_sub)))
        assert exp.median_band_halfwidth == pytest.approx(np.mean(mads), rel=1e-14)

    def test_size_bounds(self):
        rng = derived_rng(68)
        full = random_dataset(rng, 10, 4)
        with pytest.raises(ValidationError):
            subsample_experiment(full, size=1, reps=2, seed=0)
        with pytest.raises(ValidationError):
            subsample_experiment(full, size=11, reps=2, seed=0)
        with pytest.raises(ValidationError, match=r"must lie in \[2, 10\], got -3"):
            subsample_experiment(full, size=-3, reps=2, seed=0)
        with pytest.raises(ValidationError, match="reps must be a positive integer"):
            subsample_experiment(full, size=5, reps=0, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 2.5},
            {"size": "5"},
            {"size": True},
            {"reps": 2.7},
            {"reps": True},
            {"seed": 1.9},
            {"seed": False},
            {"size": 5.0},
            {"size": float("inf")},
            {"size": float("nan")},
            {"reps": 3.0},
            {"reps": float("inf")},
            {"reps": float("nan")},
            {"seed": 1.0},
            {"seed": float("inf")},
            {"seed": float("nan")},
        ],
    )
    def test_non_integer_arguments_rejected(self, kwargs):
        full = random_dataset(derived_rng(69), 10, 4)
        args = {"size": 5, "reps": 3, "seed": 1} | kwargs
        with pytest.raises(ValidationError, match="integer"):
            subsample_experiment(full, **args)


@pytest.mark.parametrize("seed", [0, 5, 2024, np.uint64(2**63 + 11)])
def test_replicate_draws_are_derived_rng_draws(monkeypatch, seed):
    # subsample_experiment checks the seed once and draws replicate r as
    # derived_rng(seed, r) would, index for index; a batch gathers its
    # curve rows from the full sample and builds no subset
    drawn = []
    choices = fess.fboxplot._replicate_choices

    def recording(*args):
        rows = choices(*args)
        drawn.append(rows.ravel().copy())
        return rows

    def refused(self, idx):
        raise AssertionError("subsample_experiment called subset")

    monkeypatch.setattr(fess.fboxplot, "_replicate_choices", recording)
    monkeypatch.setattr(SpatialFunctionalDataset, "subset", refused)
    full = random_dataset(derived_rng(69), 40, 4)
    for size, reps in ((2, 30), (9, 7), (40, 3)):
        drawn.clear()
        subsample_experiment(full, size=size, reps=reps, seed=seed)
        ref = [derived_rng(seed, r).choice(40, size, replace=False) for r in range(reps)]
        assert np.array_equal(np.concatenate(drawn), np.concatenate(ref))


@pytest.mark.parametrize(
    "keys",
    [(1.9,), (True,), (3, 2.0), (3, False), (-1,), (3, -2), (float("inf"),), (3, float("nan"))],
)
def test_derived_rng_takes_non_negative_integers_only(keys):
    with pytest.raises(ValidationError, match="non-negative integers"):
        derived_rng(*keys)


def signed_zero_dataset(n=13, m=5):
    """Integer-valued curves, many of them ``0.0`` or ``-0.0``."""
    rng = derived_rng(70)
    X = rng.integers(-2, 3, size=(n, m)).astype(float)
    zeros = X == 0.0
    X[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return make_dataset(X)


BATCH_DATASETS = {
    "tied": lambda: tied_dataset(derived_rng(71), 15, 6),
    "signed_zero": signed_zero_dataset,
}


def run_in_batches(monkeypatch, full, size, reps, seed, per_batch):
    monkeypatch.setattr(
        fess.fboxplot, "_BATCH_ELEMENTS", per_batch * size * full.curves.shape[1]
    )
    return subsample_experiment(full, size=size, reps=reps, seed=seed)


@functools.cache
def per_replicate_definition(which, size, reps, seed):
    """Each replicate's ``fidelity_metrics`` tuple, and the mean absolute
    median discrepancy over the replicates, scored one replicate at a time."""
    full = BATCH_DATASETS[which]()
    n = full.n_curves
    med_full = full.curves[functional_boxplot(full).median_index]
    ref, mads = [], []
    for r in range(reps):
        sub = full.subset(derived_rng(seed, r).choice(n, size=size, replace=False))
        ref.append(fidelity_metrics(full, sub).as_tuple())
        med_sub = sub.curves[functional_boxplot(sub).median_index]
        mads.append(np.mean(np.abs(med_full - med_sub)))
    return ref, np.mean(mads)


def assert_per_replicate_definition(exp, which, size, reps, seed):
    ref, mad = per_replicate_definition(which, size, reps, seed)
    assert np.array_equal(exp.replicates, ref)
    assert exp.means.as_tuple() == tuple(np.array(ref).mean(axis=0))
    assert exp.median_band_halfwidth == mad


class TestSubsampleBatches:
    """Batched scoring equals scoring each replicate on its own, bit for bit."""

    @pytest.mark.parametrize("per_batch", [1, 2, 7])
    @pytest.mark.parametrize("which", ["tied", "signed_zero"])
    @pytest.mark.parametrize("at_n", [False, True])
    def test_batches_equal_per_replicate_definition(self, monkeypatch, per_batch, which, at_n):
        full = BATCH_DATASETS[which]()
        size, reps, seed = (full.n_curves if at_n else 2), 9, 31
        exp = run_in_batches(monkeypatch, full, size, reps, seed, per_batch)
        assert_per_replicate_definition(exp, which, size, reps, seed)

    def test_draw_chunks_equal_per_replicate_definition(self, monkeypatch):
        # chunks of two 3-replicate batches: 100 replicates make 34 batches,
        # and the run ends in a short chunk
        full = BATCH_DATASETS["tied"]()
        size, reps, seed = 5, 100, 33
        monkeypatch.setattr(fess.fboxplot, "_DRAW_BYTES", 6 * (full.n_curves + 64 * size))
        runs = []
        choices = fess.fboxplot._replicate_choices

        def recording(seed, start, stop, n, size):
            runs.append((start, stop))
            return choices(seed, start, stop, n, size)

        monkeypatch.setattr(fess.fboxplot, "_replicate_choices", recording)
        exp = run_in_batches(monkeypatch, full, size, reps, seed, 3)
        assert runs == [(a, min(a + 6, reps)) for a in range(0, reps, 6)]
        assert_per_replicate_definition(exp, "tied", size, reps, seed)

    @pytest.mark.parametrize("which", ["tied", "signed_zero"])
    def test_stacked_depths_equal_mbd_of_each_sample(self, which):
        full = BATCH_DATASETS[which]()
        rng = derived_rng(72)
        stack = np.stack([full.curves[rng.permutation(full.n_curves)[:9]] for _ in range(4)])
        depths = _band_depths(_dense_ranks(stack.transpose(0, 2, 1)))
        assert depths.shape == (4, 9)
        for X, d in zip(stack, depths):
            assert np.array_equal(d, mbd(make_dataset(X)))
            assert np.array_equal(d, brute_force_mbd(X))

    @pytest.mark.parametrize("per_batch", [1, 3, None])
    def test_leading_replicates_do_not_depend_on_reps(self, monkeypatch, per_batch):
        # README "Determinism": replicates can be evaluated in any order or
        # in parallel without changing output.
        full = tied_dataset(derived_rng(73), 24, 5)
        if per_batch is None:
            run = lambda reps: subsample_experiment(full, size=8, reps=reps, seed=4)
        else:
            run = lambda reps: run_in_batches(monkeypatch, full, 8, reps, 4, per_batch)
        long = run(11).replicates
        for k in (1, 2, 5, 7):
            assert np.array_equal(run(k).replicates, long[:k])

    def test_batches_bound_peak_memory(self):
        # Scoring all 1000 replicates in one stack peaks near 150 MB.
        full = random_dataset(derived_rng(74), 600, 22)
        tracemalloc.start()
        try:
            # 72 batches, one alive at a time
            subsample_experiment(full, size=106, reps=1000, seed=2024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def scaled_design(k):
    """22-level N(0, 1) curves times 2**k at 60 uniform sites in a 300 km square."""
    rng = derived_rng(76)
    xy = rng.uniform(0.0, 300.0, size=(60, 2))
    return make_dataset(np.ldexp(rng.standard_normal((60, 22)), k), xy=xy)


SCALES = (-900, -600, -20, 20, 520, 1000, 1018)


class TestCurveScaling:
    """Scaling the curves by 2**k scales every band and every discrepancy
    by 2**k exactly, at any k whose curves are normal floats."""

    @pytest.fixture(scope="class")
    def unscaled(self):
        full = scaled_design(0)
        return functional_boxplot(full), subsample_experiment(full, size=15, reps=40, seed=3)

    @pytest.mark.parametrize("k", SCALES)
    def test_power_of_two_scaling_is_bitwise(self, unscaled, k):
        summary, exp = unscaled
        full = scaled_design(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = functional_boxplot(full)
            scaled_exp = subsample_experiment(full, size=15, reps=40, seed=3)
        for name in ("central_lower", "central_upper", "fence_lower", "fence_upper",
                     "nonout_lower", "nonout_upper"):
            assert np.ldexp(getattr(summary, name), k).tobytes() == getattr(scaled, name).tobytes()
        table = scaled_exp.replicates
        assert np.ldexp(exp.replicates[:, :4], k).tobytes() == table[:, :4].tobytes()
        assert exp.replicates[:, 4].tobytes() == table[:, 4].tobytes()
        assert math.ldexp(exp.median_band_halfwidth, k) == scaled_exp.median_band_halfwidth
        means = exp.means.as_tuple()
        assert (*(math.ldexp(v, k) for v in means[:4]), means[4]) == scaled_exp.means.as_tuple()


def constant_dataset():
    """20 copies of one curve: every subsample's boxplot is the full one's."""
    return make_dataset(np.tile([1.5, -0.5, 2.0], (20, 1)))


REPLICATE_DESIGNS = {
    **{name: (make, 5) for name, make in BATCH_DATASETS.items()},
    "constant": (constant_dataset, 5),
    **{f"scaled_{k}": (functools.partial(scaled_design, k), 15) for k in SCALES},
}


@pytest.mark.parametrize("which", list(REPLICATE_DESIGNS))
def test_replicate_table_rows_are_fidelity_metrics(which):
    make, size = REPLICATE_DESIGNS[which]
    exp = subsample_experiment(make(), size=size, reps=40, seed=3)
    assert exp.replicates.shape == (40, 5) and exp.replicates.dtype == np.float64
    assert not exp.replicates.flags.writeable
    for row in exp.replicates.tolist():
        FidelityMetrics(*row)
    if which == "constant":
        assert exp.replicates.tolist() == [[0.0, 0.0, 0.0, 0.0, 1.0]] * 40


def test_non_finite_replicate_stops_the_experiment(monkeypatch):
    rows = fess.fboxplot._fidelity_rows

    def one_infinite(*args):
        table, mads = rows(*args)
        table[0, 1] = np.inf
        return table, mads

    monkeypatch.setattr(fess.fboxplot, "_fidelity_rows", one_infinite)
    full = random_dataset(derived_rng(77), 20, 6)
    with pytest.raises(ValidationError, match="^metrics must be non-negative and finite$"):
        subsample_experiment(full, size=8, reps=5, seed=1)
