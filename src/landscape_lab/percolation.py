"""Coarse-grained percolation, chemical distance, and the 1d gap statistic.

Edges of the 2^k-spaced coarse lattice are open when some fine site inside
the disjoint edge cube carries an amplitude above the threshold gamma; the
edge cube is a product of intervals, so its max is a separable window max
taken only at the edge centers.  The chemical distance counts open edges
along the cheapest path: closed (weight 0) edges are contracted into
components, then a breadth-first search runs over the open edges between
them.  Clusters and components come from scipy.sparse.csgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse.csgraph import connected_components, shortest_path

from .disorder import DisorderLaw, OmegaField, sample_omega
from .errors import ConfigurationError, LawValidationError


@dataclass(frozen=True)
class CoarseGraph:
    """Nearest-neighbor graph on (2^k Z^d) inside the fine box."""

    k: int
    gamma: float
    nc: int                 # coarse vertices per side
    d: int
    xi: tuple               # per axis: bool array, edge (idx -> idx + e_ax) open

    @property
    def spacing(self) -> int:
        return 1 << self.k

    @property
    def n_vertices(self) -> int:
        return self.nc ** self.d


@dataclass(frozen=True)
class ChemicalDistanceMap:
    origin: tuple
    dist: np.ndarray    # shape (nc,)*d, integer passage times


@dataclass(frozen=True)
class ClusterReport:
    labels: np.ndarray                 # open-cluster label per vertex, shape (nc,)*d
    largest_fraction: float
    closed_component_diameters: list   # Chebyshev diameters in coarse units


def edge_cube_site_count(k: int, d: int) -> int:
    """Fine sites inside the open edge cube of side 2^(k-1) (interior edges)."""
    half = (1 << (k - 1)) / 2.0
    per_axis = sum(1 for n in range(-(1 << k), (1 << k) + 1) if abs(n) < half)
    return per_axis ** d


def choose_k(law: DisorderLaw, gamma: float, d: int, k_max: int = 16) -> int:
    """Smallest coarse scale making closed edges subcritical (P[closed] < 1/2)."""
    p_ge = law.prob_ge(gamma)
    if p_ge <= 0.0:
        raise LawValidationError(f"P[w >= {gamma}] = 0 under this law")
    p_lt = 1.0 - p_ge
    for k in range(1, k_max + 1):
        if p_lt ** edge_cube_site_count(k, d) < 0.5:
            return k
    raise ConfigurationError(f"no k <= {k_max} achieves subcritical closed edges")


def _coarse_side(L: int, k: int) -> int:
    """Coarse vertices per side of a box of L sites at scale 2^k."""
    if k < 1:
        raise ConfigurationError(f"coarse scale k must be >= 1, got {k}")
    nc = (L - 1) // (1 << k) + 1
    if nc < 4:
        raise ConfigurationError(f"box too small: only {nc} coarse cells per side")
    return nc


def _strided_window_max(a: np.ndarray, axis: int, start: int, step: int,
                        count: int, w: int) -> np.ndarray:
    """Max over sites within w of start, start + step, ... (count centers) on axis.

    Edge padding repeats the boundary site, which equals clipping the
    window to the box.
    """
    pad = [(w, w) if j == axis else (0, 0) for j in range(a.ndim)]
    win = sliding_window_view(np.pad(a, pad, mode="edge"), 2 * w + 1, axis=axis)
    centers = [slice(None)] * a.ndim
    centers[axis] = slice(start, start + step * (count - 1) + 1, step)
    return win[tuple(centers)].max(axis=-1)


def coarse_grain(omega: OmegaField, k: int, gamma: float) -> CoarseGraph:
    """Threshold the max amplitude in each (disjoint) edge cube."""
    L = omega.box[0]
    if any(b != L for b in omega.box):
        raise ConfigurationError("coarse graining expects a cubic box")
    nc = _coarse_side(L, k)
    s = 1 << k
    # every center is an integer and the open cube of side 2^(k-1) reaches
    # the sites strictly closer than s/4 to it
    w = -(-s // 4) - 1
    xi = []
    for ax in range(omega.d):
        m = omega.values
        for j in range(omega.d):
            start, count = (s // 2, nc - 1) if j == ax else (0, nc)
            m = _strided_window_max(m, j, start, s, count, w)
        xi.append(m >= gamma)
    return CoarseGraph(k=k, gamma=gamma, nc=nc, d=omega.d, xi=tuple(xi))


def _edge_list(g: CoarseGraph):
    """Flat lower endpoints, flat upper endpoints and open flags of all edges."""
    ids = np.arange(g.n_vertices).reshape((g.nc,) * g.d)
    lower, upper = [], []
    for ax in range(g.d):
        lower.append(np.delete(ids, -1, axis=ax).ravel())
        upper.append(np.delete(ids, 0, axis=ax).ravel())
    open_ = np.concatenate([a.ravel() for a in g.xi])
    return np.concatenate(lower), np.concatenate(upper), open_


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component label per vertex of the undirected graph with edges (a, b)."""
    adj = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
    return connected_components(adj, directed=False)[1]


def cluster_analysis(g: CoarseGraph) -> ClusterReport:
    """Open clusters, and the Chebyshev diameters of closed components.

    A vertex is closed (isolated) when no open edge touches it; closed
    components are listed in the C order of their first vertex.
    """
    shape = (g.nc,) * g.d
    lo, hi, open_ = _edge_list(g)
    labels = _components(g.n_vertices, lo[open_], hi[open_])
    largest = float(np.bincount(labels).max()) / g.n_vertices

    closed = np.ones(g.n_vertices, dtype=bool)
    closed[lo[open_]] = False
    closed[hi[open_]] = False
    both = closed[lo] & closed[hi]
    sites = np.flatnonzero(closed)
    found, comp = np.unique(_components(g.n_vertices, lo[both], hi[both])[sites],
                            return_inverse=True)
    diam = np.zeros(found.size, dtype=int)
    for coord in np.unravel_index(sites, shape):
        top = np.full(found.size, -1)
        bottom = np.full(found.size, g.nc)
        np.maximum.at(top, comp, coord)
        np.minimum.at(bottom, comp, coord)
        diam = np.maximum(diam, top - bottom)
    return ClusterReport(labels=labels.reshape(shape), largest_fraction=largest,
                         closed_component_diameters=[int(x) for x in diam])


def chemical_distance(g: CoarseGraph, origin) -> ChemicalDistanceMap:
    """Single-source passage times with 0/1 edge weights (exact).

    Closed (weight 0) edges are contracted into components; a breadth-first
    search over the open edges between components gives the passage times.
    """
    origin = tuple(int(c) for c in np.atleast_1d(origin))
    shape = (g.nc,) * g.d
    if len(origin) != g.d or any(not (0 <= c < g.nc) for c in origin):
        raise ConfigurationError(f"origin {origin} outside the coarse graph")
    lo, hi, open_ = _edge_list(g)
    comp = _components(g.n_vertices, lo[~open_], hi[~open_])
    n_comp = int(comp.max()) + 1
    quotient = sp.coo_matrix(
        (np.ones(np.count_nonzero(open_)), (comp[lo[open_]], comp[hi[open_]])),
        shape=(n_comp, n_comp))
    hops = shortest_path(quotient, directed=False, unweighted=True,
                         indices=comp[np.ravel_multi_index(origin, shape)])
    return ChemicalDistanceMap(origin=origin,
                               dist=hops[comp].astype(int).reshape(shape))


def wilson_interval(successes: int, n: int, z: float = 1.96):
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class KestenRow:
    radius: int
    frequency: float
    ci_low: float
    ci_high: float
    threshold: float


def kesten_tail_experiment(law: DisorderLaw, d: int, L: int, gamma: float,
                           radii, c_probe: float, n_samples: int,
                           master_seed: int, k: int | None = None):
    """Empirical P[min chemical distance to the radius-R shell <= c_probe*R]."""
    radii = [int(R) for R in radii]
    if sorted(radii) != radii:
        raise ConfigurationError("radii must be increasing")
    if not (0.0 < c_probe <= 1.0):
        raise ConfigurationError("c_probe must lie in (0, 1]")
    if k is None:
        k = choose_k(law, gamma, d)
    nc = _coarse_side(L, k)
    origin = (nc // 2,) * d
    if max(radii) > min(origin[0], nc - 1 - origin[0]):
        raise ConfigurationError("largest radius does not fit in the coarse box")
    cheb = np.abs(np.indices((nc,) * d) - origin[0]).max(axis=0)
    hits = {R: 0 for R in radii}
    for i in range(n_samples):
        omega = sample_omega(law, (L,) * d, master_seed, i)
        dmap = chemical_distance(coarse_grain(omega, k, gamma), origin)
        for R in radii:
            shell_min = int(dmap.dist[cheb == R].min())
            if shell_min <= c_probe * R:
                hits[R] += 1
    rows = []
    for R in radii:
        lo, hi = wilson_interval(hits[R], n_samples)
        rows.append(KestenRow(radius=R, frequency=hits[R] / n_samples,
                              ci_low=lo, ci_high=hi, threshold=c_probe * R))
    return rows


@dataclass(frozen=True)
class GapStatistic:
    gap: int
    censored: bool


def gap_statistic_1d(omega: OmegaField, gamma: float, y_prime: int) -> GapStatistic:
    """Distance between the nearest above-threshold sites strictly left/right of y'."""
    if omega.d != 1:
        raise ConfigurationError("gap statistic is one-dimensional")
    L = omega.box[0]
    if not (0 <= y_prime < L):
        raise IndexError(f"site {y_prime} outside box of length {L}")
    left = np.flatnonzero(omega.values[:y_prime] >= gamma)
    right = np.flatnonzero(omega.values[y_prime + 1:] >= gamma)
    if right.size == 0 or left.size == 0:
        return GapStatistic(gap=L, censored=True)
    return GapStatistic(gap=int(y_prime + 1 + right[0] - left[-1]), censored=False)


@dataclass(frozen=True)
class AnchoringReport:
    p_values: tuple
    moments: tuple              # E[gap^p]^(1/p) per p
    censored_fraction: float
    status: str                 # 'PASS' | 'FAIL' | 'INCONCLUSIVE'
    gap_mean: float
    gap_sem: float              # standard error of the mean gap


def anchoring_experiment_1d(law: DisorderLaw, L: int, gamma: float,
                            n_samples: int, master_seed: int,
                            p_values=(1, 2, 4, 8),
                            ratio_corridor: float = 2.5,
                            min_samples: int = 100) -> AnchoringReport:
    """Moment growth of the 1d gap: at most linear in p (doubling-ratio test)."""
    gaps, censored = [], 0
    for i in range(n_samples):
        omega = sample_omega(law, (L,), master_seed, i)
        g = gap_statistic_1d(omega, gamma, L // 2)
        if g.censored:
            censored += 1
        else:
            gaps.append(g.gap)
    frac = censored / n_samples
    gaps = np.asarray(gaps, dtype=float)
    moments = tuple(float(np.mean(gaps ** p) ** (1.0 / p)) for p in p_values)
    gap_mean = float(gaps.mean()) if gaps.size else np.nan
    gap_sem = (float(gaps.std(ddof=1) / np.sqrt(gaps.size))
               if gaps.size > 1 else np.nan)
    if frac > 0.01 or n_samples < min_samples:
        status = "INCONCLUSIVE"
    else:
        ratios = [moments[i + 1] / moments[i] for i in range(len(moments) - 1)]
        status = "PASS" if all(r <= ratio_corridor for r in ratios) else "FAIL"
    return AnchoringReport(p_values=tuple(p_values), moments=moments,
                           censored_fraction=frac, status=status,
                           gap_mean=gap_mean, gap_sem=gap_sem)
