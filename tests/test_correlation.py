import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mecoff.correlation import (
    FilterAction,
    dedup,
    filter_multi,
    filter_single,
    merge_shared_source,
    pearson,
)
from mecoff.errors import DegenerateSignalError, InvalidParameterError
from mecoff.methods import _atomic_tasks
from mecoff.model import Unit
from mecoff.scenario import synthesize_frames
from oracles import (
    reference_atomic_tasks,
    reference_dedup,
    reference_filter,
    reference_merge_shared_source,
)

FULL = FilterAction.PROCESS_FULL
DIFF = FilterAction.PROCESS_DIFF
SKIP = FilterAction.SKIP


@pytest.fixture
def no_warning_escapes():
    """Fails the test if the library lets any warning reach its caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert [str(w.message) for w in caught] == []


def correlated_partner(rng, x, rho):
    """Vector with sample correlation exactly rho against x."""
    xc = x - x.mean()
    xn = xc / np.linalg.norm(xc)
    z = rng.standard_normal(len(x))
    zc = z - z.mean()
    zc -= (zc @ xn) * xn
    zn = zc / np.linalg.norm(zc)
    return rho * xn + np.sqrt(1 - rho * rho) * zn


class TestPearson:
    def test_self_correlation(self):
        x = [1.0, 2.0, 5.0, 3.0]
        assert pearson(x, x) == 1.0

    def test_anti_correlation(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert pearson(x, -x) == -1.0

    def test_hand_computed(self):
        assert pearson([1, 2, 3], [1, 2, 3.5]) == pytest.approx(0.993399, abs=1e-6)

    def test_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("scale", [1e-100, 1e150])
    def test_variance_product_out_of_range(self, scale):
        # sx * sy underflows to 0 or overflows to inf; r is scale-free
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        assert pearson(scale * x, scale * y) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_matches_numpy_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 64))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    @given(
        arrays(np.float64, 16, elements=st.floats(-100, 100)),
        arrays(np.float64, 16, elements=st.floats(-100, 100)),
        st.floats(0.1, 50.0),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_symmetric_scale_invariant_bounded(self, x, y, a, b):
        # near-constant signals amplify cancellation error beyond the
        # tolerance without testing anything new; keep them out
        if np.std(x) < 1e-3 * (1 + np.abs(x).max()):
            return
        if np.std(y) < 1e-3 * (1 + np.abs(y).max()):
            return
        r = pearson(x, y)
        assert -1.0 <= r <= 1.0
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)
        assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-9)
        assert pearson(-a * x + b, y) == pytest.approx(-r, abs=1e-9)


class TestFilterSingle:
    def test_reference_trace(self):
        # running-reference r-values [-, 0.95, 0.85, 0.95] around alpha=0.9
        rng = np.random.default_rng(3)
        a1 = rng.standard_normal(128)
        a2 = correlated_partner(rng, a1, 0.95)
        a3 = correlated_partner(rng, a1, 0.85)
        a4 = correlated_partner(rng, a3, 0.95)
        decisions = filter_single(np.array((a1, a2, a3, a4)), alpha=0.9)
        assert [d.action for d in decisions] == [FULL, SKIP, FULL, SKIP]
        assert [d.epoch for d in decisions] == [0, 1, 2, 3]
        assert [d.reference_epoch for d in decisions] == [0, 0, 0, 2]

    def test_single_frame(self):
        decisions = filter_single([[1.0, 2.0, 3.0]], alpha=0.9)
        assert [d.action for d in decisions] == [FULL]
        assert decisions[0].reference_epoch == 0

    def test_identical_frames_processed_once(self):
        rows = [[1.0, 5.0, 2.0, 4.0]] * 5
        decisions = filter_single(rows, alpha=0.9)
        assert [d.action for d in decisions] == [FULL, SKIP, SKIP, SKIP, SKIP]

    def test_degenerate_frame_processed(self):
        frames = [[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]]
        decisions = filter_single(frames, alpha=0.5)
        assert [d.action for d in decisions] == [FULL, FULL]

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            filter_single([[1.0, 2.0]], alpha=1.0)


class TestFilterMulti:
    def make(self, rhos, seed=11):
        rng = np.random.default_rng(seed)
        rows = [rng.standard_normal(128)]
        for rho in rhos:
            rows.append(correlated_partner(rng, rows[-1], rho))
        return np.array(rows)

    def test_skip_branch(self):
        decisions = filter_multi(self.make([0.95]), alpha=0.9, beta=0.5)
        assert decisions[1].action is SKIP
        assert decisions[1].kept_fraction == 0.0

    def test_diff_branch(self):
        decisions = filter_multi(self.make([0.7]), alpha=0.9, beta=0.5)
        assert decisions[1].action is DIFF
        assert decisions[1].kept_fraction == pytest.approx(0.3, abs=1e-9)
        assert decisions[1].reference_epoch == 0

    def test_full_branch(self):
        decisions = filter_multi(self.make([0.2]), alpha=0.9, beta=0.5)
        assert decisions[1].action is FULL

    def test_diff_updates_reference(self):
        decisions = filter_multi(self.make([0.7, 0.95]), alpha=0.9, beta=0.5)
        assert [d.action for d in decisions] == [FULL, DIFF, SKIP]
        assert decisions[2].reference_epoch == 1

    def test_threshold_ordering_required(self):
        with pytest.raises(InvalidParameterError):
            filter_multi(self.make([0.5]), alpha=0.5, beta=0.9)

    @pytest.mark.parametrize("rows", [
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]],
        [[1.0, 2.0, 3.0], [1.0, 2.0]],
        [[[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 5.0]]],
        [1.0, 2.0, 3.0],
        np.array([[1.0], [2.0], [3.0]]),
        [np.arange(3.0), np.arange(3.0), np.arange(4.0)],
        2.0,
        [[1.0, 2.0], ["a", "b"]],
    ], ids=["longer", "shorter", "2-D", "1-D", "one-sample", "ragged", "scalar", "not-numbers"])
    def test_frames_of_another_shape_rejected(self, rows):
        # InvalidParameterError is a ValueError: pytest.raises pins the
        # subclass, so numpy's own ValueError for ragged rows fails here
        with pytest.raises(InvalidParameterError):
            filter_multi(rows, alpha=0.9, beta=0.5)
        with pytest.raises(InvalidParameterError):
            filter_single(rows, alpha=0.9)

    @pytest.mark.parametrize("frames", [[], (), np.empty((0, 8))], ids=["list", "tuple", "array"])
    def test_zero_frames_give_no_decisions(self, frames):
        assert filter_multi(frames, alpha=0.9, beta=0.5) == []
        assert filter_single(frames, alpha=0.9) == []

    @given(st.lists(st.floats(-0.5, 0.999), min_size=1, max_size=8), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_never_keeps_more_than_single(self, rhos, seed):
        frames = self.make(rhos, seed=seed)
        multi = filter_multi(frames, alpha=0.9, beta=0.5)
        single = filter_single(frames, alpha=0.9)
        assert sum(d.kept_fraction for d in multi) <= sum(d.kept_fraction for d in single) + 1e-12


NON_FINITE_ROWS = {
    "nan": [np.nan, 1.0, 2.0],
    "inf": [np.inf, 1.0, 2.0],
    "-inf": [1.0, -np.inf, 2.0],
    "overflow": [1e200, -1e200, 0.0],  # finite samples, squared norm overflows
}


@pytest.mark.usefixtures("no_warning_escapes")
class TestNonFiniteFrames:
    @pytest.mark.parametrize("row", NON_FINITE_ROWS.values(), ids=NON_FINITE_ROWS)
    def test_pearson_rejects(self, row):
        with pytest.raises(InvalidParameterError):
            pearson(row, [1.0, 2.0, 3.0])
        with pytest.raises(InvalidParameterError):
            pearson([1.0, 2.0, 3.0], row)

    @pytest.mark.parametrize("row", NON_FINITE_ROWS.values(), ids=NON_FINITE_ROWS)
    @pytest.mark.parametrize("position", [0, 1])
    def test_filters_reject(self, row, position):
        rows = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.5]]
        rows[position] = row
        with pytest.raises(InvalidParameterError):
            filter_multi(rows, alpha=0.9, beta=0.5)
        with pytest.raises(InvalidParameterError):
            filter_single(rows, alpha=0.9)

    def test_constant_frame_is_still_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        decisions = filter_multi([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]], 0.9, 0.5)
        assert [d.action for d in decisions] == [FULL, FULL]


CONSTANTS = pytest.mark.parametrize("c", [0.1, 1 / 3, 1.1])
LENGTHS = pytest.mark.parametrize("n", [3, 7, 256])


class TestConstantFrames:
    """A frame whose samples are all equal has zero variance, also when its
    mean does not round back to the sample value and centring leaves
    residues of a few ulps."""

    @CONSTANTS
    @LENGTHS
    def test_pearson_raises(self, c, n):
        with pytest.raises(DegenerateSignalError):
            pearson([c] * n, [c] * n)
        with pytest.raises(DegenerateSignalError):
            pearson(np.arange(n, dtype=float), [c] * n)

    @CONSTANTS
    @LENGTHS
    def test_filters_process_the_second_frame_fully(self, c, n):
        frames = [[c] * n, [c] * n]
        assert [d.action for d in filter_multi(frames, 0.9, 0.5)] == [FULL, FULL]
        assert [d.action for d in filter_single(frames, 0.9)] == [FULL, FULL]

    @pytest.mark.parametrize("c", [0.1, 1 / 3, 1.1, 4.0])
    @LENGTHS
    def test_one_sample_one_ulp_away_is_not_degenerate(self, c, n):
        x = np.full(n, c)
        x[n // 2] = np.nextafter(c, np.inf)
        assert pearson(x, x) == pytest.approx(1.0)

    @pytest.mark.usefixtures("no_warning_escapes")  # the sum overflows
    @pytest.mark.parametrize("c", [1e308, -1e308])
    @pytest.mark.parametrize("n", [3, 256])
    def test_huge_constant_is_degenerate_not_non_finite(self, c, n):
        with pytest.raises(DegenerateSignalError):
            pearson([c] * n, np.arange(n, dtype=float))
        with pytest.raises(DegenerateSignalError):
            pearson(np.arange(n, dtype=float), [c] * n)
        frames = [[c] * n, [c] * n]
        assert [d.action for d in filter_multi(frames, 0.9, 0.5)] == [FULL, FULL]
        assert [d.action for d in filter_single(frames, 0.9)] == [FULL, FULL]

    @pytest.mark.usefixtures("no_warning_escapes")
    @pytest.mark.parametrize("c", [np.inf, -np.inf])
    def test_infinite_constant_is_still_non_finite(self, c):
        with pytest.raises(InvalidParameterError):
            pearson([c] * 3, [1.0, 2.0, 3.0])


@st.composite
def frame_sequences(draw):
    """A synthesized frame array, some rows replaced by constant or repeated
    rows."""
    length = draw(st.integers(3, 512))
    rho = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    rho_lo, rho_hi = sorted((draw(rho), draw(rho)))
    n = draw(st.integers(1, 8))
    rows, _ = synthesize_frames(np.random.default_rng(draw(st.integers(0, 2**32))), n, length,
                                rho_lo, rho_hi)
    for i in range(n):
        kind = draw(st.sampled_from(["synth", "synth", "constant", "repeat"]))
        if kind == "constant":
            rows[i] = np.full(length, draw(st.floats(-10.0, 10.0)))
        elif kind == "repeat" and i:
            rows[i] = rows[i - 1]
    return rows


class TestFilterMatchesReference:
    """Centring each frame once gives the decisions of recomputing `pearson`
    for every pair, kept fractions included, bit for bit."""

    @given(frame_sequences(), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_multi_and_single(self, frames, a, b):
        beta, alpha = sorted((a, b))
        if beta < alpha:
            assert filter_multi(frames, alpha, beta) == reference_filter(frames, alpha, beta)
        assert filter_single(frames, alpha) == reference_filter(frames, alpha, alpha)


def make_unit(uid, type_id, source_id, d=1e6, w=2e8, deadline=0.1, user=0, task=0):
    return Unit(id=uid, user=user, task_id=task, type_id=type_id, source_id=source_id,
                d=d, w=w, deadline=deadline)


class TestDedup:
    def test_min_deadline_representative(self):
        units = [make_unit(0, 1, 1, deadline=0.05), make_unit(1, 1, 1, deadline=0.1)]
        kept, share = dedup(units)
        assert len(kept) == 1
        assert kept[0].id == 0
        assert kept[0].deadline == 0.05
        assert share == {1: 0}

    def test_distinct_untouched(self):
        units = [make_unit(0, 1, 1), make_unit(1, 2, 2)]
        kept, share = dedup(units)
        assert kept == tuple(units)
        assert share == {}

    def test_three_way_class(self):
        units = [make_unit(i, 1, 1) for i in range(3)]
        kept, share = dedup(units)
        assert len(kept) == 1
        assert share == {1: 0, 2: 0}

    def test_idempotent(self):
        units = [make_unit(0, 1, 1), make_unit(1, 1, 1), make_unit(2, 2, 2)]
        once, _ = dedup(units)
        twice, share = dedup(once)
        assert twice == once
        assert share == {}

    def test_users_kept_separate(self):
        units = [make_unit(0, 1, 1, user=0), make_unit(1, 1, 1, user=1)]
        kept, share = dedup(units)
        assert len(kept) == 2
        assert share == {}


class TestMergeSharedSource:
    def test_merge_rules(self):
        units = [
            make_unit(0, 1, 7, d=1e6, w=2e8, deadline=0.1),
            make_unit(1, 2, 7, d=1e6, w=3e8, deadline=0.05),
        ]
        merged, members = merge_shared_source(units)
        assert len(merged) == 1
        su = merged[0]
        assert su.d == 1e6
        assert su.w == 5e8
        assert su.deadline == 0.05
        assert members == {0: (0, 1)}

    def test_no_shared_groups_noop(self):
        units = [make_unit(0, 1, 1), make_unit(1, 2, 2)]
        merged, members = merge_shared_source(units)
        assert merged == tuple(units)
        assert members == {}

    def test_reduction_never_grows_work(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            units = [
                make_unit(
                    i,
                    type_id=int(rng.integers(0, 4)),
                    source_id=int(rng.integers(0, 4)),
                    d=float(rng.integers(1, 100)),
                    w=float(rng.integers(1, 100)),
                )
                for i in range(int(rng.integers(1, 10)))
            ]
            deduped, _ = dedup(units)
            reduced, _ = merge_shared_source(deduped)
            assert sum(u.d for u in reduced) <= sum(u.d for u in units)
            assert sum(u.w for u in reduced) <= sum(u.w for u in units)


@st.composite
def unit_lists(draw):
    """Units of 1-3 users in shuffled order. Ids restart per user; type,
    source and task ids collide often; deadlines tie and differ."""
    units = []
    for user in range(draw(st.integers(1, 3))):
        for uid in range(draw(st.integers(1, 8))):
            units.append(Unit(
                id=uid, user=user, task_id=draw(st.integers(0, 2)),
                type_id=draw(st.integers(0, 2)), source_id=draw(st.integers(0, 2)),
                d=draw(st.floats(1.0, 1e7)), w=draw(st.floats(1.0, 1e9)),
                deadline=draw(st.sampled_from([0.05, 0.1, 0.2])),
            ))
    return draw(st.permutations(units))


class TestReductionsMatchReference:
    """The three reductions, each a call of `fold_units`, return what their
    hand-written loops in tests/oracles.py return."""

    @given(unit_lists())
    @settings(max_examples=200, deadline=None)
    def test_dedup_merge_and_task_atoms(self, units):
        assert dedup(units) == reference_dedup(units)
        assert merge_shared_source(units) == reference_merge_shared_source(units)
        deduped, _ = dedup(units)
        assert merge_shared_source(deduped) == reference_merge_shared_source(deduped)
        for user in {u.user for u in units}:
            own = tuple(u for u in units if u.user == user)
            # the reference sums in input order; run_method passes id order
            in_id_order = tuple(sorted(own, key=lambda u: u.id))
            assert sorted(_atomic_tasks(own), key=lambda u: u.id) == sorted(
                reference_atomic_tasks(in_id_order), key=lambda u: u.id
            )
