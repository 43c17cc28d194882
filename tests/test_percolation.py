import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import omega_from_values
from landscape_lab.cli import _cluster_sample
from landscape_lab.disorder import (UndrawnOmega, bernoulli, discrete_atoms, sample_omega,
                                    uniform01)
from landscape_lab.errors import ConfigurationError, LawValidationError
from landscape_lab.percolation import (CoarseGraph, anchoring_experiment_1d,
                                       chemical_distance, choose_k,
                                       cluster_analysis, coarse_grain,
                                       edge_cube_site_count, gap_statistic_1d,
                                       kesten_tail_experiment, wilson_interval,
                                       _kesten_sample)


def make_graph(xi_arrays, k=1, gamma=0.5):
    nc = xi_arrays[-1].shape[0] if xi_arrays else 0
    return CoarseGraph(k=k, gamma=gamma, nc=nc, d=len(xi_arrays),
                       xi=tuple(np.asarray(a, dtype=bool) for a in xi_arrays))


def random_graph(nc, d, p_open, rng):
    xi = []
    for ax in range(d):
        shape = tuple(nc - 1 if j == ax else nc for j in range(d))
        xi.append(rng.uniform(size=shape) < p_open)
    return make_graph(xi)


def bellman_ford_distances(g, origin):
    """All-pairs relaxation oracle, independent of the deque search."""
    shape = (g.nc,) * g.d
    dist = np.full(shape, np.inf)
    dist[origin] = 0.0
    changed = True
    while changed:
        changed = False
        for idx in np.ndindex(shape):
            for ax in range(g.d):
                up = list(idx)
                up[ax] += 1
                if up[ax] >= g.nc:
                    continue
                up = tuple(up)
                w = 1.0 if g.xi[ax][idx] else 0.0
                if dist[idx] + w < dist[up]:
                    dist[up] = dist[idx] + w
                    changed = True
                if dist[up] + w < dist[idx]:
                    dist[idx] = dist[up] + w
                    changed = True
    return dist


def edge_cube_max_oracle(values, k, ax, idx):
    """Max amplitude over fine sites n with |n - center| < 2^(k-1)/2 per axis."""
    s = 1 << k
    half = (1 << (k - 1)) / 2.0
    sites = []
    for j, i in enumerate(idx):
        center = i * s + (s / 2.0 if j == ax else 0.0)
        sites.append([n for n in range(values.shape[j]) if abs(n - center) < half])
    return values[np.ix_(*sites)].max()


def closed_diameters_oracle(g):
    """Flood fill of vertices touched by no open edge, in C order of first vertex."""
    shape = (g.nc,) * g.d
    touched = np.zeros(shape, dtype=bool)
    for ax in range(g.d):
        for idx, open_ in np.ndenumerate(g.xi[ax]):
            if open_:
                up = tuple(idx[j] + (1 if j == ax else 0) for j in range(g.d))
                touched[idx] = touched[up] = True
    seen = np.zeros(shape, dtype=bool)
    diameters = []
    for start in np.ndindex(shape):
        if touched[start] or seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], [start]
        while stack:
            cur = stack.pop()
            for ax in range(g.d):
                for step in (-1, 1):
                    nb = list(cur)
                    nb[ax] += step
                    nb = tuple(nb)
                    if 0 <= nb[ax] < g.nc and not touched[nb] and not seen[nb]:
                        seen[nb] = True
                        stack.append(nb)
                        comp.append(nb)
        pts = np.asarray(comp)
        diameters.append(int((pts.max(axis=0) - pts.min(axis=0)).max()))
    return diameters


def serpentine_path_graph(nc):
    """2-d graph whose closed edges form one boustrophedon path over rows
    0..nc-2 (nc*(nc-1) - 1 edges long); every other edge, the last row's
    too, is open."""
    vertical = np.ones((nc - 1, nc), dtype=bool)
    horizontal = np.ones((nc, nc - 1), dtype=bool)
    horizontal[:-1] = False
    for r in range(nc - 2):
        vertical[r, nc - 1 if r % 2 == 0 else 0] = False
    return make_graph([vertical, horizontal])


def serpentine_closed_sites(nc):
    """2-d graph whose closed vertices (touched by no open edge) form one
    serpentine: the even rows, joined through one vertex of each odd row at
    alternate ends.  An edge is open when neither end is on the serpentine."""
    snake = np.zeros((nc, nc), dtype=bool)
    snake[0::2] = True
    snake[1::4, -1] = True
    snake[3::4, 0] = True
    return make_graph([~snake[:-1] & ~snake[1:], ~snake[:, :-1] & ~snake[:, 1:]])


# (d, L, k): k = 1-4 in every dimension, with L = 1 (mod 2^k) and L != 1 (mod 2^k)
ORACLE_CASES = [(1, 33, 1), (1, 30, 2), (1, 41, 3), (1, 70, 4),
                (2, 9, 1), (2, 14, 2), (2, 33, 3), (2, 53, 4),
                (3, 9, 1), (3, 14, 2), (3, 25, 3), (3, 50, 4)]


class TestChooseK:
    def test_defining_inequality_tight(self):
        law = bernoulli(0.5)
        k = choose_k(law, 0.5, d=1)
        p_lt = 1.0 - law.prob_ge(0.5)
        assert p_lt ** edge_cube_site_count(k, 1) < 0.5
        if k > 1:
            assert p_lt ** edge_cube_site_count(k - 1, 1) >= 0.5

    def test_unreachable_threshold_rejected(self):
        with pytest.raises(LawValidationError):
            choose_k(bernoulli(0.5), 1.5, d=1)

    def test_monotone_in_gamma(self):
        law = uniform01()
        ks = [choose_k(law, g, d=2) for g in (0.9, 0.5, 0.1)]
        assert ks == sorted(ks, reverse=True)

    def test_edge_cube_site_counts(self):
        # open cube of side 2^(k-1): k=1,2 catch a single site per axis,
        # k=3 catches three
        assert edge_cube_site_count(1, 1) == 1
        assert edge_cube_site_count(2, 1) == 1
        assert edge_cube_site_count(3, 1) == 3
        assert edge_cube_site_count(3, 2) == 9


class TestCoarseGrain:
    def test_all_high_amplitudes_open(self):
        omega = omega_from_values(np.ones((9, 9)))
        g = coarse_grain(omega, 1, 0.5)
        assert all(a.all() for a in g.xi)

    def test_all_zero_amplitudes_closed(self):
        omega = omega_from_values(np.zeros((9, 9)))
        g = coarse_grain(omega, 1, 0.5)
        assert not any(a.any() for a in g.xi)

    def test_edge_probability_matches_binomial(self):
        q = 0.5
        k = 3
        count = edge_cube_site_count(k, 1)
        L = 8 * 1250 + 1
        omega = sample_omega(bernoulli(q), (L,), 31, 0)
        g = coarse_grain(omega, k, 0.5)
        closed = 1.0 - g.xi[0].mean()
        n_edges = g.xi[0].size
        expect = (1 - q) ** count
        sd = np.sqrt(expect * (1 - expect) / n_edges)
        assert abs(closed - expect) < 3 * sd

    @pytest.mark.parametrize("d,L,k", ORACLE_CASES)
    def test_matches_brute_force_edge_cube_max(self, d, L, k):
        omega = sample_omega(uniform01(), (L,) * d, 71, k)
        for p_closed in (0.3, 0.7):
            gamma = p_closed ** (1.0 / edge_cube_site_count(k, d))
            g = coarse_grain(omega, k, gamma)
            for ax in range(d):
                want = np.zeros(g.xi[ax].shape, dtype=bool)
                for idx in np.ndindex(want.shape):
                    want[idx] = edge_cube_max_oracle(omega.values, k, ax, idx) >= gamma
                assert np.array_equal(g.xi[ax], want)

    def test_small_box_rejected(self):
        omega = omega_from_values(np.ones((5, 5)))
        with pytest.raises(ConfigurationError):
            coarse_grain(omega, 1, 0.5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_scale_rejected(self, k):
        omega = omega_from_values(np.ones((33, 33)))
        with pytest.raises(ConfigurationError):
            coarse_grain(omega, k, 0.5)
        with pytest.raises(ConfigurationError):
            kesten_tail_experiment(uniform01(), 1, 65, 0.5, [1], 0.5, 1, 0, k=k)

    def test_deterministic(self):
        omega = sample_omega(bernoulli(0.5), (17, 17), 3, 0)
        a = coarse_grain(omega, 2, 0.5)
        b = coarse_grain(omega, 2, 0.5)
        assert all(np.array_equal(x, y) for x, y in zip(a.xi, b.xi))

    # (d, L): per k, L = 2^k j + 1 (windows end on the box) and L one or two
    # sites past or short of that (clipped windows on the far side)
    @pytest.mark.parametrize("d, spans", [(1, (5, 8)), (2, (4, 5)), (3, (4,))])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_undrawn_field_gives_the_drawn_flags(self, d, spans, k):
        law = discrete_atoms([1.0, 0.0, 0.5], [0.3, 0.4, 0.3])
        for L in sorted({(j << k) + 1 + extra for j in spans for extra in (-2, -1, 0, 1)}):
            drawn = sample_omega(law, (L,) * d, 11, L)
            undrawn = UndrawnOmega((L,) * d, law, 11, L)
            for gamma in (0.5, 1.0):
                a, b = coarse_grain(drawn, k, gamma), coarse_grain(undrawn, k, gamma)
                assert (a.nc, a.d) == (b.nc, b.d)
                assert all(x.shape == y.shape and np.array_equal(x, y)
                           for x, y in zip(a.xi, b.xi))


class TestClusterAnalysis:
    def test_all_open_single_cluster(self):
        omega = omega_from_values(np.ones((9, 9)))
        rep = cluster_analysis(coarse_grain(omega, 1, 0.5))
        assert rep.closed_component_diameters == []

    def test_all_closed_single_component_spans_box(self):
        omega = omega_from_values(np.zeros((9, 9)))
        g = coarse_grain(omega, 1, 0.5)
        rep = cluster_analysis(g)
        assert rep.closed_component_diameters == [g.nc - 1]

    @pytest.mark.parametrize("d,L,k", ORACLE_CASES)
    def test_closed_diameters_match_flood_fill(self, d, L, k):
        for i in range(3):
            omega = sample_omega(uniform01(), (L,) * d, 73, i)
            # closed edges with probability 3/4: several closed components
            g = coarse_grain(omega, k, 0.75 ** (1.0 / edge_cube_site_count(k, d)))
            assert cluster_analysis(g).closed_component_diameters == \
                closed_diameters_oracle(g)

    def test_serpentine_is_one_component(self):
        # a path of about nc^2 / 2 vertices: pointer jumping's deepest tree
        g = serpentine_closed_sites(17)
        assert cluster_analysis(g).closed_component_diameters == \
            closed_diameters_oracle(g) == [16]

    def test_diameter_tail_decreases(self):
        # threshold tuned so closed edges are dense (though subcritical) and
        # closed vertices actually occur at observable rates
        law = uniform01()
        gamma = 0.92
        k = choose_k(law, gamma, d=2)
        assert k == 3
        diams = []
        for i in range(30):
            omega = sample_omega(law, (8 * 32 + 1,) * 2, 41, i)
            rep = cluster_analysis(coarse_grain(omega, k, gamma))
            diams.extend(rep.closed_component_diameters)
        diams = np.asarray(diams)
        assert diams.size > 0
        tail = [(diams >= n).mean() for n in (0, 1, 2)]
        assert tail[0] > tail[1] >= tail[2]


class TestChemicalDistance:
    def test_all_closed_distance_zero(self):
        omega = omega_from_values(np.zeros((9, 9)))
        g = coarse_grain(omega, 1, 0.5)
        dmap = chemical_distance(g, (2, 2))
        assert np.all(dmap.dist == 0)

    def test_all_open_distance_is_hop_count(self):
        omega = omega_from_values(np.ones((9, 9)))
        g = coarse_grain(omega, 1, 0.5)
        dmap = chemical_distance(g, (2, 2))
        idx = np.indices(dmap.dist.shape)
        hops = np.abs(idx[0] - 2) + np.abs(idx[1] - 2)
        assert np.array_equal(dmap.dist, hops)

    def test_matches_bellman_ford_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            g = random_graph(5, 2, rng.uniform(0.2, 0.8), rng)
            origin = tuple(rng.integers(0, 5, size=2))
            dmap = chemical_distance(g, origin)
            oracle = bellman_ford_distances(g, origin)
            assert np.array_equal(dmap.dist.astype(float), oracle)

    @pytest.mark.parametrize("d,L,k", ORACLE_CASES)
    def test_matches_bellman_ford_on_coarse_graphs(self, d, L, k):
        for i in range(3):
            omega = sample_omega(uniform01(), (L,) * d, 79, i)
            g = coarse_grain(omega, k, 0.5 ** (1.0 / edge_cube_site_count(k, d)))
            origin = (g.nc // 2,) * d
            assert np.array_equal(chemical_distance(g, origin).dist.astype(float),
                                  bellman_ford_distances(g, origin))

    @pytest.mark.parametrize("origin", [(0, 0), (15, 7)])
    def test_serpentine_closed_path(self, origin):
        g = serpentine_path_graph(16)
        dist = chemical_distance(g, origin).dist
        assert np.array_equal(dist.astype(float), bellman_ford_distances(g, origin))
        assert (dist[:-1] == dist[0, 0]).all()

    def test_lipschitz_between_neighbors(self):
        rng = np.random.default_rng(11)
        g = random_graph(7, 2, 0.5, rng)
        d = chemical_distance(g, (3, 3)).dist
        assert np.abs(np.diff(d, axis=0)).max() <= 1
        assert np.abs(np.diff(d, axis=1)).max() <= 1

    def test_symmetry_on_sampled_pairs(self):
        rng = np.random.default_rng(13)
        g = random_graph(6, 2, 0.5, rng)
        for _ in range(10):
            a = tuple(rng.integers(0, 6, size=2))
            b = tuple(rng.integers(0, 6, size=2))
            assert chemical_distance(g, a).dist[b] == \
                chemical_distance(g, b).dist[a]

    def test_zero_set_is_closed_reachability(self):
        rng = np.random.default_rng(17)
        g = random_graph(6, 2, 0.6, rng)
        origin = (3, 3)
        d = chemical_distance(g, origin).dist
        # BFS through closed edges only
        from collections import deque
        reach = np.zeros((6, 6), dtype=bool)
        reach[origin] = True
        dq = deque([origin])
        while dq:
            cur = dq.popleft()
            for ax in range(2):
                for step in (-1, 1):
                    nb = list(cur)
                    nb[ax] += step
                    if not (0 <= nb[ax] < 6):
                        continue
                    lower = cur if step == 1 else tuple(nb)
                    if not g.xi[ax][lower] and not reach[tuple(nb)]:
                        reach[tuple(nb)] = True
                        dq.append(tuple(nb))
        assert np.array_equal(d == 0, reach)

    @pytest.mark.parametrize("d", [2, 3])
    def test_capped_map_is_the_full_map_clipped(self, d):
        # a search stopped after level K reads K + 1 wherever it stopped
        rng = np.random.default_rng(23 + d)
        for trial in range(20):
            g = random_graph(7, d, rng.uniform(0.3, 0.9), rng)
            origin = tuple(int(c) for c in rng.integers(0, 7, size=d))
            full = chemical_distance(g, origin).dist
            for top in range(int(full.max()) + 2):
                capped = chemical_distance(g, origin, _max_level=top).dist
                assert np.array_equal(capped, np.minimum(full, top + 1)), (trial, top)

    def test_origin_guard(self):
        g = random_graph(5, 2, 0.5, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            chemical_distance(g, (5, 0))

    def test_non_integral_origin_rejected(self):
        g = random_graph(5, 2, 0.5, np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="origin"):
            chemical_distance(g, (2.5, 0))      # ran from (2, 0) before


class TestWilsonInterval:
    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=1, max_value=100))
    def test_interval_brackets_the_estimate(self, s, n):
        s = min(s, n)
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= hi <= 1.0
        assert lo <= s / n + 1e-12 and s / n <= hi + 1e-12


class TestKestenTail:
    def test_all_open_deterministic(self):
        # gamma below every amplitude: every edge open, distances = hops
        rows = kesten_tail_experiment(uniform01(), 1, 65, 0.0, [2, 4],
                                      1.0, 5, 3, k=3)
        assert all(r.frequency == 1.0 for r in rows)

    def test_all_closed_probe_one(self):
        law = bernoulli(0.5)
        rows = kesten_tail_experiment(law, 1, 65, 1.0, [2, 4], 1.0, 5, 3, k=3)
        # gamma = 1 > max bernoulli draw never reached? amplitude 1 occurs,
        # so use a threshold strictly above the support instead
        rows = kesten_tail_experiment(uniform01(), 1, 65, 0.999999999,
                                      [2, 4], 1.0, 5, 3, k=3)
        assert all(r.frequency == 1.0 for r in rows)

    def test_radius_guard(self):
        with pytest.raises(ConfigurationError):
            kesten_tail_experiment(bernoulli(0.5), 1, 65, 0.5, [100],
                                   0.5, 2, 0, k=3)
        with pytest.raises(ConfigurationError, match=">= 1"):
            kesten_tail_experiment(bernoulli(0.5), 1, 65, 0.5, [-1, 1],
                                   0.5, 2, 0, k=3)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError, match="n_samples"):
            kesten_tail_experiment(bernoulli(0.5), 1, 65, 0.5, [1, 2], 0.5, 0, 0, k=3)

    def test_frequencies_reported_with_wilson_ci(self):
        rows = kesten_tail_experiment(uniform01(), 2, 129, 0.875, [2, 4],
                                      0.5, 10, 7, k=3)
        for r in rows:
            assert 0.0 <= r.ci_low <= r.frequency <= r.ci_high <= 1.0


# (law, L, gamma, k, radii, c_probe) of 2-d samples: criterion 9b's config, then
# radii whose thresholds c_probe * R are not integers, on the 9b box and two smaller
KESTEN_CONFIGS = [
    (uniform01(), 513, 0.875, 3, [8, 16, 32], 0.25),
    (uniform01(), 513, 0.875, 3, [5, 11, 27], 0.3),
    (uniform01(), 129, 0.875, 3, [3, 5], 0.45),
    (bernoulli(0.5), 65, 0.5, 3, [1, 3], 0.7),
]


class TestKestenCap:
    """A Kesten sample stops its search at level floor(c_probe * max(radii)),
    and reads the same hits as from the full chemical distance map."""

    @pytest.mark.parametrize("law, L, gamma, k, radii, c_probe", KESTEN_CONFIGS)
    def test_capped_hits_match_the_full_map(self, law, L, gamma, k, radii, c_probe):
        nc = ((L - 1) >> k) + 1
        origin = (nc // 2,) * 2
        cheb = np.abs(np.indices((nc,) * 2) - origin[0]).max(axis=0)
        top, seen, clipped = int(c_probe * max(radii)), set(), False
        for i in range(6):
            full = chemical_distance(
                coarse_grain(UndrawnOmega((L, L), law, 41, i), k, gamma), origin).dist
            hits = [int(full[cheb == R].min()) <= c_probe * R for R in radii]
            assert _kesten_sample(i, law, L, gamma, k, 41, origin, cheb, radii,
                                  c_probe) == hits
            seen.update(hits)
            clipped |= bool(full.max() > top + 1)
        assert clipped      # the cap cut the search short in some sample
        if L == 513:
            assert seen == {True, False}


class TestSampleMemory:
    """A percolation sample holds no L^d field: a 513^2 field alone is 2.0 MiB."""

    @staticmethod
    def traced_peak(fn, *args):
        fn(*args)               # loads every module the call imports
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_kesten_sample_at_L_513(self):
        L, k, radii = 513, 3, [8, 16, 32]
        nc = ((L - 1) >> k) + 1
        origin = (nc // 2,) * 2
        cheb = np.abs(np.indices((nc, nc)) - origin[0]).max(axis=0)
        peak = self.traced_peak(_kesten_sample, 0, uniform01(), L, 0.875, k, 101,
                                origin, cheb, radii, 0.25)
        assert peak < 1 << 20

    def test_cluster_sample_at_L_257(self):
        cfg = {"d": 2, "L": 257, "k": 3, "gamma": 0.92, "master_seed": 101}
        assert self.traced_peak(_cluster_sample, 0, uniform01(), cfg) < 1 << 19


class TestGapStatistic:
    def test_all_above_threshold_gap_two(self):
        omega = omega_from_values(np.ones(11))
        assert gap_statistic_1d(omega, 0.5).gap == 2

    def test_no_high_site_censored(self):
        omega = omega_from_values(np.zeros(11))
        assert gap_statistic_1d(omega, 0.5).censored

    def test_geometric_law_mean(self):
        q = 0.5
        gaps = []
        for i in range(2000):
            omega = sample_omega(bernoulli(q), (101,), 61, i)
            g = gap_statistic_1d(omega, 0.5)
            assert not g.censored
            gaps.append(g.gap)
        gaps = np.asarray(gaps, dtype=float)
        sem = gaps.std(ddof=1) / np.sqrt(gaps.size)
        assert abs(gaps.mean() - 2.0 / q) < 3 * sem


class TestAnchoring:
    def test_deterministic_gaps_trivially_linear(self):
        report = anchoring_experiment_1d(uniform01(), 101, 0.0, 200, 3)
        assert report.status == "PASS"
        assert all(m == pytest.approx(2.0) for m in report.moments)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError, match="n_samples"):
            anchoring_experiment_1d(bernoulli(0.5), 101, 0.5, 0, 3)

    def test_small_sample_inconclusive(self):
        report = anchoring_experiment_1d(bernoulli(0.5), 101, 0.5, 10, 3)
        assert report.status == "INCONCLUSIVE"

    def test_bernoulli_moment_growth_sublinear_ratios(self):
        report = anchoring_experiment_1d(bernoulli(0.5), 201, 0.5, 2000, 5)
        assert report.status == "PASS"
        for a, b in zip(report.moments, report.moments[1:]):
            assert b / a <= 2.5
