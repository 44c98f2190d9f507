import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspec import uniqueness
from fracspec.cli import ExperimentConfig, run
from fracspec.errors import DomainError
from fracspec.inverse import random_head
from fracspec.sl_core import PotentialSpec, RobinPair, eigen_system, split_spectra
from fracspec.uniqueness import (
    MATCH_TOL,
    CountedSet,
    classify_region,
    complement_inclusion_check,
    counting,
    counting_bound_check,
    density_criterion,
    free_lambda_set,
    lambda_set,
    region_map,
)

FREE = RobinPair(0.0, 0.0)


def squares(n_count, factor=1.0):
    n = np.arange(n_count, dtype=float)
    return CountedSet(factor * (n * np.pi) ** 2, "full-spectrum")


def record_split_calls(monkeypatch):
    """Record (n_max, grid_size) of every split_spectra call the check makes."""
    asked = []

    def recorded(q, x0, robin, n_max, **kwargs):
        asked.append((n_max, kwargs["grid_size"]))
        return split_spectra(q, x0, robin, n_max, **kwargs)
    monkeypatch.setattr(uniqueness, "split_spectra", recorded)
    return asked


def split_depth(q, x0, robin, lam_top, n_cells):
    """(n_max, split spectra) of the check's split solve when lam_top is the
    complement's top plus its match margin; the spectra run one mode past n_max.

    lambda_set is replaced, so the system needs only its grid_size and an
    n_max that never caps the depth."""
    asked, top = [], (lam_top - MATCH_TOL) / (1.0 + MATCH_TOL)

    def deeper(q, x0, robin, n_max, **kwargs):
        asked.append((n_max, split_spectra(q, x0, robin, n_max + 1, **kwargs)))
        return asked[-1][1]
    split = SimpleNamespace(complement=SimpleNamespace(values=np.array([top])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniqueness, "lambda_set", lambda es, x0: split)
        mp.setattr(uniqueness, "split_spectra", deeper)
        complement_inclusion_check(SimpleNamespace(grid_size=n_cells, n_max=10 ** 6),
                                   x0, robin, q)
    [(n_max, spectra)] = asked
    return n_max, spectra


@pytest.fixture(scope="module")
def es_free():
    return eigen_system(PotentialSpec.constant(0.0, 1024), FREE, 30, grid_size=1024)


class TestCounting:
    def test_reference_count(self):
        assert counting(squares(50), 100.0) == 4

    def test_below_minimum(self):
        s = CountedSet(np.array([2.0, 3.0]), "lambda-set")
        assert counting(s, 1.0) == 0

    def test_weyl_slope(self):
        cs = squares(2000)
        for s in np.geomspace(1e3, 1e6, 7):
            ratio = counting(cs, s) / np.sqrt(s)
            assert abs(ratio - 1.0 / np.pi) < 0.05 * (1.0 / np.pi) + 1.0 / np.sqrt(s)

    def test_nondecreasing_and_total(self):
        cs = squares(40)
        vals = [counting(cs, s) for s in np.linspace(0, cs.values[-1], 200)]
        assert np.all(np.diff(vals) >= 0)
        assert counting(cs, float(cs.values[-1])) == len(cs)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=30, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_counting_matches_enumeration(self, raw):
        vals = np.sort(np.asarray(raw))
        cs = CountedSet(vals, "full-spectrum")
        for s in (0.0, float(vals[len(vals) // 2]), float(vals[-1]), 1e7):
            assert counting(cs, s) == int(np.sum(vals <= s))

    def test_validation(self):
        with pytest.raises(DomainError):
            CountedSet(np.array([3.0, 2.0]), "full-spectrum")
        with pytest.raises(DomainError):
            CountedSet(np.array([1.0]), "bad-label")

    def test_repeated_value_rejected(self):
        with pytest.raises(DomainError):
            CountedSet(np.array([1.0, 1.0]), "full-spectrum")


class TestLambdaSet:
    def test_half_point_split(self, es_free):
        lam, comp = lambda_set(es_free, 0.5)
        even = (np.arange(0, 31, 2) * np.pi) ** 2
        odd = (np.arange(1, 31, 2) * np.pi) ** 2
        assert lam.values.size == even.size
        assert np.allclose(lam.values, even, atol=1e-8)
        assert np.allclose(comp.values, odd, rtol=1e-10)

    def test_irrational_point_full(self, es_free):
        lam, comp = lambda_set(es_free, 1.0 / np.sqrt(2.0))
        assert comp.values.size == 0
        assert lam.values.size == 31

    def test_third_point_full(self, es_free):
        lam, comp = lambda_set(es_free, 1.0 / 3.0)
        assert comp.values.size == 0

    def test_partition_disjoint_union(self, es_free):
        for tau in (1e-4, 1e-6, 1e-8):
            split = lambda_set(es_free, 0.5, tau)
            merged = np.sort(np.concatenate([split.lambda_set.values,
                                             split.complement.values]))
            assert np.array_equal(merged, np.sort(es_free.lambdas))

    def test_tau_halving_stable(self, es_free):
        for x0 in (0.5, 1.0 / np.sqrt(2.0)):
            a = lambda_set(es_free, x0, 1e-6)
            b = lambda_set(es_free, x0, 5e-7)
            assert np.array_equal(a.lambda_set.values, b.lambda_set.values)
            assert not a.near_threshold and not b.near_threshold

    def test_negative_eigenvalue_named(self):
        es = eigen_system(PotentialSpec.constant(5.0, 256), RobinPair(0.0, 0.0), 6,
                          allow_inadmissible=True)
        with pytest.raises(DomainError, match=r"^mode 0 has eigenvalue -5; the counting "
                                              r"split needs every lambda >= 0$"):
            lambda_set(es, 0.3)

    def test_zero_tau_rejected(self, es_free):
        with pytest.raises(DomainError):
            lambda_set(es_free, 0.5, 0.0)

    def test_threshold_and_audit_window_edges(self, es_free):
        # traces set on the node x0 = 1/2 of every row of 2s, so the relative
        # trace is the set value exactly: at tau (vanishing, flagged), at
        # tau/10 and 10 tau (outside the open audit window), inside it
        tau = 1e-6
        rel = {1: tau, 2: tau / 10, 3: tau * 10, 4: 5e-6, 5: 5e-7}
        efuncs = np.full_like(es_free.efuncs, 2.0)
        for n, r in rel.items():
            efuncs[n, 512] = 2.0 * r
        split = lambda_set(dataclasses.replace(es_free, efuncs=efuncs), 0.5, tau)
        assert split.relative_traces[1:6].tolist() == [rel[n] for n in range(1, 6)]
        assert np.flatnonzero(~split.kept).tolist() == [1, 2, 5]
        assert split.near_threshold == [1, 4, 5]

    @pytest.mark.parametrize("x0", [0.5, 0.25])
    def test_free_lambda_set_matches_the_computed_split(self, es_free, x0):
        computed = lambda_set(es_free, x0).lambda_set.values
        closed = free_lambda_set(es_free.n_max + 1, x0).values
        assert computed.size == closed.size
        assert np.allclose(computed, closed, rtol=1e-10, atol=1e-8)


class TestInclusion:
    def test_reference_exact(self, es_free):
        rep = complement_inclusion_check(
            es_free, 0.5, FREE, PotentialSpec.constant(0.0, 1024))
        assert rep.passed
        assert len(rep.entries) == 15  # odd modes up to n = 29

    def test_vacuous_for_irrational(self, es_free):
        rep = complement_inclusion_check(
            es_free, 1.0 / np.sqrt(2.0), FREE, PotentialSpec.constant(0.0, 1024))
        assert rep.passed and not rep.entries

    def test_shifted_potential(self):
        q = PotentialSpec.constant(-0.3, 1024)
        es = eigen_system(q, FREE, 16, grid_size=1024)
        rep = complement_inclusion_check(es, 0.5, FREE, q)
        assert rep.passed
        assert all(max(dm, dp) < 1e-6 * (1 + lam) for lam, dm, dp in rep.entries)

    @pytest.mark.parametrize("shift, passed", [(5e-7, True), (3e-6, False)])
    def test_match_tolerance_is_relative_to_one_plus_lambda(self, es_free, monkeypatch,
                                                            shift, passed):
        # split spectra that miss each eigenvalue by shift * lambda: inside
        # MATCH_TOL (1 + lambda) at 5e-7, outside it at 3e-6
        def shifted(q, x0, robin, n_max, **kwargs):
            return es_free.lambdas * (1 + shift), es_free.lambdas * (1 + shift)
        monkeypatch.setattr(uniqueness, "split_spectra", shifted)
        rep = complement_inclusion_check(es_free, 0.5, FREE, PotentialSpec.constant(0.0, 1024))
        assert rep.passed is passed
        assert len(rep.entries) == 15
        assert rep.violations == ([] if passed else [e[0] for e in rep.entries])

    @pytest.mark.parametrize("x0, n_modes, asked", [(0.25, 41, (29, 768)),
                                                    (1.0 / 6.0, 31, (23, 854))])
    def test_split_solve_stops_past_the_complement(self, monkeypatch, x0, n_modes, asked):
        # the free split spectra are ((k + 1/2) pi / x0)^2 on the left and
        # ((k + 1/2) pi / (1 - x0))^2 on the right.  x0 = 1/4: the complement
        # n = 2 (mod 4) tops out at (38 pi)^2, first passed by right mode 29;
        # x0 = 1/6 (off the grid): n = 3 (mod 6) up to (27 pi)^2, first
        # passed by right mode 23.  ceil((1 - x0) 1024) cells give the longer
        # side the system's cell width
        q = PotentialSpec.constant(0.0, 1024)
        es = eigen_system(q, FREE, n_modes - 1, grid_size=1024)
        recorded = record_split_calls(monkeypatch)
        rep = complement_inclusion_check(es, x0, FREE, q)
        assert recorded == [asked]
        assert rep.passed
        n = np.arange(n_modes)
        n = n[np.abs(np.cos(n * np.pi * x0)) <= 1e-6]
        lam = np.array([e[0] for e in rep.entries])
        assert np.allclose(lam, (n * np.pi) ** 2, rtol=1e-13, atol=0.0)
        k = np.arange(60)
        mu_minus, mu_plus = ((k + 0.5) * np.pi / x0) ** 2, ((k + 0.5) * np.pi / (1 - x0)) ** 2
        for lam, dm, dp in rep.entries:
            assert abs(dm - np.min(np.abs(mu_minus - lam))) <= 1e-12 * (1 + lam)
            assert abs(dp - np.min(np.abs(mu_plus - lam))) <= 1e-12 * (1 + lam)

    def test_entries_match_a_full_split_solve(self):
        # reference: both split spectra to es.n_max on es.grid_size cells
        x = np.linspace(0.0, 1.0, 1025)
        q = PotentialSpec(-2.0 * np.cos(2.0 * np.pi * (x - 0.5)) ** 2, 1024)
        robin = RobinPair(0.7, 0.7)
        es = eigen_system(q, robin, 48, grid_size=1024)
        rep = complement_inclusion_check(es, 0.5, robin, q)
        assert rep.passed and len(rep.entries) == 24
        mu_minus, mu_plus = split_spectra(q, 0.5, robin, es.n_max, grid_size=1024,
                                          allow_inadmissible=True)
        for lam, dm, dp in rep.entries:
            assert abs(dm - np.min(np.abs(mu_minus - lam))) <= 1e-12 * (1 + lam)
            assert abs(dp - np.min(np.abs(mu_plus - lam))) <= 1e-12 * (1 + lam)

    def test_split_solve_never_deeper_than_the_system(self, es_free, monkeypatch):
        # nine times the free eigenvalues put the complement's top at
        # (87 pi)^2, whose first split eigenvalue above is mode 44 of each side
        asked = record_split_calls(monkeypatch)
        fake = dataclasses.replace(es_free, lambdas=9.0 * es_free.lambdas)
        complement_inclusion_check(fake, 0.5, FREE, PotentialSpec.constant(0.0, 1024))
        assert asked == [(es_free.n_max, 512)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["head", "well", "bump"]), seed=st.integers(0, 2 ** 32 - 1),
           depth=st.floats(0.0, 50.0), h=st.floats(0.0, 5.0), H=st.floats(0.0, 5.0),
           x0=st.one_of(st.integers(7, 121).map(lambda i: i / 128), st.floats(0.05, 0.95)),
           reach=st.floats(0.0, 1.0))
    def test_split_solve_depth_is_never_too_shallow(self, kind, seed, depth, h, H, x0,
                                                    reach):
        # the depth must cover every split eigenvalue at or below lam_top on
        # both sides; lam_top runs from below mu_0 up to 100 modes of a unit
        # interval, within the 128-cell grid's reach.  Kills the depth's
        # - 1/2 -> - 3/2 and every mutant that shrinks it
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, 1.0, 129)
        if kind == "head":
            q = random_head(rng, rng.uniform(0.1, 1.0), 128)
        else:  # cos^2 wells, or the same shape as an inadmissible q > 0
            shape = depth * np.cos(2.0 * np.pi * (x - rng.uniform())) ** 2
            q = PotentialSpec(-shape if kind == "well" else shape, 128)
        lam_top = (100.0 * np.pi * reach) ** 2
        n_max, spectra = split_depth(q, x0, RobinPair(h, H), lam_top, 128)
        assert all(np.count_nonzero(mu <= lam_top) <= n_max for mu in spectra)

    @pytest.mark.parametrize("x0, k, c", [(0.3, 7, 2.0), (0.5, 0, -1.0), (0.8125, 20, 0.0),
                                          (0.1, 3, 25.0)])
    def test_split_solve_depth_is_tight_for_a_constant_potential(self, x0, k, c):
        # q = c, h = H = 0: the longer side's mu_k = ((k + 1/2) pi / l)^2 - c
        # exactly, so lam_top just below it needs modes 0..k - 1 and the
        # first above (depth k), just above it one more.  Kills the depth's
        # - 1/2 -> + 1/2, and + q_max -> - q_max
        q, length = PotentialSpec.constant(c, 128), max(x0, 1.0 - x0)
        exact = ((k + 0.5) * np.pi / length) ** 2
        for shift, depth in ((-1e-9, k), (1e-9, k + 1)):
            lam_top = exact * (1.0 + shift) - c
            n_max, (mu_minus, mu_plus) = split_depth(q, x0, FREE, lam_top, 128)
            assert n_max == depth
            mu_long = mu_minus if x0 > 0.5 else mu_plus
            assert abs(mu_long[k] - (exact - c)) <= 1e-11 * exact


class TestCountingBound:
    @pytest.mark.parametrize("x0", [0.5, 1.0 / 3.0, 1.0 / np.sqrt(2.0)])
    def test_reference_bounds(self, x0):
        s_grid = np.geomspace(10.0, 1e6, 41)
        assert counting_bound_check(free_lambda_set(3000, x0), x0, s_grid).passed

    def test_upper_half_only(self):
        lam = CountedSet((np.arange(1, 400) * 2 * np.pi) ** 2, "lambda-set")
        s_grid = np.geomspace(1.0, 1e5, 21)  # lower half below first member
        rep = counting_bound_check(lam, 0.5, s_grid)
        assert rep.s_values[0] >= s_grid[10]

    def test_upper_half_starts_at_the_middle_point(self):
        s_grid = np.geomspace(1.0, 1e5, 21)
        rep = counting_bound_check(free_lambda_set(200, 0.5), 0.5, s_grid)
        assert rep.s_values.tolist() == s_grid[10:].tolist()

    def test_sparse_set_fails_the_bound(self):
        # N(s) ~ sqrt(s)/(2 pi) against the bound 0.75 sqrt(s)/pi at x0 = 3/4
        lam = CountedSet((np.arange(1, 400) * 2 * np.pi) ** 2, "lambda-set")
        assert not counting_bound_check(lam, 0.75, np.geomspace(1e2, 1e6, 21)).passed

    def test_count_equal_to_the_bound_passes(self):
        # at s = (2 pi k)^2 with x0 = 1/2 both N(s) and the bound are k; keep
        # the k whose bound rounds to k exactly
        k = np.arange(1, 40)
        s = (2 * np.pi * k) ** 2
        s_grid = s[0.5 * np.sqrt(s) / np.pi == k]
        rep = counting_bound_check(CountedSet(s, "lambda-set"), 0.5, s_grid)
        assert rep.counts.tolist() == rep.bounds.tolist()
        assert rep.passed

    def test_s_grid_validated(self):
        lam = free_lambda_set(100, 0.5)
        assert counting_bound_check(lam, 0.5, [1.0, 2.0, 3.0, 4.0]).s_values.size == 2
        for bad in ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0]):
            with pytest.raises(DomainError):
                counting_bound_check(lam, 0.5, bad)

    def test_window_matches_pointwise_counting(self):
        # the batched window counts as counting() does one s at a time,
        # members hit exactly included
        lam = free_lambda_set(500, 0.3)
        s_grid = np.concatenate([np.geomspace(1.0, 1e5, 20), lam.values[100:103]])
        s_grid.sort()
        rep = counting_bound_check(lam, 0.3, s_grid)
        counts = [counting(lam, s) for s in rep.s_values]
        assert rep.counts.tolist() == counts
        dens = density_criterion(lam, 0.5, s_grid)
        assert dens.liminf_estimate == min(c / np.sqrt(s) for c, s in
                                           zip(counts, rep.s_values))


class TestDensity:
    def test_case_full_spectrum(self):
        lam = CountedSet((np.arange(0, 2000) * np.pi) ** 2, "lambda-set")
        rep = density_criterion(lam, 0.99, np.geomspace(1e3, 1e6, 31))
        assert rep.passed
        assert abs(rep.implied_d_max - 0.495) < 1e-12
        assert abs(rep.liminf_estimate - 1.0 / np.pi) < 0.02

    def test_case_even_modes_pass(self):
        lam = CountedSet((np.arange(0, 2000) * 2 * np.pi) ** 2, "lambda-set")
        rep = density_criterion(lam, 0.49, np.geomspace(1e3, 1e6, 31))
        assert rep.passed
        assert abs(rep.implied_d_max - 0.245) < 1e-12

    def test_case_even_modes_fail(self):
        lam = CountedSet((np.arange(0, 2000) * 2 * np.pi) ** 2, "lambda-set")
        rep = density_criterion(lam, 0.6, np.geomspace(1e3, 1e6, 31))
        assert not rep.passed

    def test_estimate_at_the_threshold_fails(self):
        # N(m^2) / m = 1 exactly, and A = pi puts the threshold A/pi at 1
        lam = CountedSet(np.arange(1.0, 100.0) ** 2, "lambda-set")
        rep = density_criterion(lam, np.pi, np.arange(1.0, 11.0) ** 2)
        assert rep.liminf_estimate == 1.0 and rep.threshold == 1.0
        assert not rep.passed

    def test_zero_A_rejected(self):
        with pytest.raises(DomainError):
            density_criterion(free_lambda_set(100, 0.5), 0.0, np.geomspace(1.0, 1e4, 8))


class TestClassify:
    def test_case_i(self):
        assert classify_region(0.6, 0.7).verdict == "theorem1-case-i"

    def test_case_ii(self):
        assert classify_region(0.4, 0.1).verdict == "theorem1-case-ii"

    def test_conditional_with_certificate(self):
        v = classify_region(0.4, 0.3, certificate=(0.9, 0.2))
        assert v.verdict == "theorem2-conditional"
        assert "B=0.2" in v.condition_note

    def test_conditional_without_certificate(self):
        assert classify_region(0.4, 0.3).verdict == "unknown"

    def test_weak_certificate_rejected(self):
        assert classify_region(0.4, 0.3, certificate=(0.7, 0.2)).verdict == "unknown"
        assert classify_region(0.4, 0.3, certificate=(0.9, 0.05)).verdict == "unknown"

    def test_certificate_at_its_bounds(self):
        # A = 2d and B = 1/2 - d exactly (d = 3/8)
        v = classify_region(0.375, 0.3, certificate=(0.75, 0.125))
        assert v.verdict == "theorem2-conditional"
        assert "2d=0.75," in v.condition_note and "-1/4-d=-0.625)" in v.condition_note

    def test_region_edges_are_open(self):
        # x0 = 1 - 2d (d = 3/8) lies in neither case ii nor the conditional
        # region, and d = 1/2 leaves the conditional region
        assert classify_region(0.375, 0.25, certificate=(1.0, 1.0)).verdict == "unknown"
        assert classify_region(0.5, 0.25, certificate=(2.0, 1.0)).verdict == "unknown"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classify_region(0.0, 0.5)
        with pytest.raises(DomainError):
            classify_region(0.5, 1.5)

    def test_d_of_one_rejected(self):
        with pytest.raises(DomainError):
            classify_region(1.0, 0.5)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_verdict_consistent_with_set_definitions(self, d, x0):
        v = classify_region(d, x0, certificate=(0.9, 0.2))
        assert v.verdict in ("theorem1-case-i", "theorem1-case-ii",
                             "theorem2-conditional", "unknown")
        if v.verdict == "theorem1-case-i":
            assert d <= x0
        elif v.verdict == "theorem1-case-ii":
            assert x0 < min(d, 1 - 2 * d) and d < 0.5
        elif v.verdict == "theorem2-conditional":
            assert 1 - 2 * d < x0 < d and 1.0 / 3.0 < d < 0.5
            assert 0.9 >= 2 * d and 0.2 >= 0.5 - d


class TestRegionMap:
    def test_diagonal_case_i(self):
        verdicts = {(v.d, v.x0): v.verdict for v in region_map(20)}
        for i in range(20):
            c = (i + 0.5) / 20
            assert verdicts[(c, c)] == "theorem1-case-i"

    def test_large_d_unknown_without_certificate(self):
        for v in region_map(10):
            if v.d >= 0.5 and v.x0 < v.d:
                assert v.verdict == "unknown"

    def test_conditional_cells_present(self):
        vs = region_map(100, certificate=(0.9, 0.2))
        n_cond = sum(1 for v in vs if v.verdict == "theorem2-conditional")
        assert n_cond > 0
        assert len(vs) == 10000

    def test_csv_row_count(self, tmp_path):
        # the CLI's region.csv has a header and one row per cell
        run(ExperimentConfig("region-map", {"resolution": 15}, tmp_path))
        lines = (tmp_path / "region.csv").read_text().splitlines()
        assert lines[0] == "d,x0,verdict"
        assert len(lines) == 1 + 225

    def test_resolution_validated(self):
        with pytest.raises(DomainError):
            region_map(5)
