"""Coarse-grained percolation, chemical distance, and the 1d gap statistic.

Edges of the 2^k-spaced coarse lattice are open when some fine site inside
the disjoint edge cube carries an amplitude above the threshold gamma; the
edge cube is a product of intervals, so its max is a separable window max
taken only at the edge centers.  Coarse graining reads just those windows'
sites, so the samples here hand it an UndrawnOmega, which hashes only them:
at k = 3 about 28 % of the box, and no sample holds the L^d field.  The
chemical distance counts open edges along the cheapest path: closed (weight
0) edges are contracted into components, then a breadth-first search runs
over the open edges between them.  Both graph routines are whole-array numpy
passes over the edge list: min-label propagation with pointer jumping for
the components, one frontier step per level for the search.
"""

from __future__ import annotations

import numpy as np

from . import Record
from .disorder import DisorderLaw, OmegaField, UndrawnOmega, sample_omega
from .errors import ConfigurationError, LawValidationError, box_index
from .samples import _pool_map


class CoarseGraph(Record):
    """Nearest-neighbor graph on (2^k Z^d) inside the fine box."""

    k: int
    gamma: float
    nc: int                 # coarse vertices per side
    d: int
    xi: tuple               # per axis: bool array, edge (idx -> idx + e_ax) open

    @property
    def n_vertices(self) -> int:
        return self.nc ** self.d


class ChemicalDistanceMap(Record):
    dist: np.ndarray    # shape (nc,)*d, integer passage times


class ClusterReport(Record):
    closed_component_diameters: list   # Chebyshev diameters in coarse units


def _edge_half_width(k: int) -> int:
    """Per axis the edge cube holds the sites within w of its integer center: the
    open cube of side 2^(k-1) reaches those strictly closer than 2^k / 4."""
    return -(-(1 << k) // 4) - 1


def edge_cube_site_count(k: int, d: int) -> int:
    """Fine sites inside the open edge cube of side 2^(k-1) (interior edges)."""
    return (2 * _edge_half_width(k) + 1) ** d


def choose_k(law: DisorderLaw, gamma: float, d: int) -> int:
    """Smallest coarse scale k <= 16 making closed edges subcritical (P[closed] < 1/2)."""
    p_ge = law.prob_ge(gamma)
    if p_ge <= 0.0:
        raise LawValidationError(f"P[w >= {gamma}] = 0 under this law")
    p_lt = 1.0 - p_ge
    for k in range(1, 17):
        if p_lt ** edge_cube_site_count(k, d) < 0.5:
            return k
    raise ConfigurationError("no k <= 16 achieves subcritical closed edges")


def _coarse_side(L: int, k: int) -> int:
    """Coarse vertices per side of a box of L sites at scale 2^k."""
    if k < 1:
        raise ConfigurationError(f"coarse scale k must be >= 1, got {k}")
    nc = ((L - 1) >> k) + 1     # a shift: a huge k builds no 2^k
    if nc < 4:
        raise ConfigurationError(f"box too small: only {nc} coarse cells per side")
    return nc


def coarse_grain(omega: OmegaField | UndrawnOmega, k: int, gamma: float) -> CoarseGraph:
    """Threshold the max amplitude in each (disjoint) edge cube.

    omega is an OmegaField or an UndrawnOmega, read only through omega.at:
    per edge axis one open mesh gathers the window of every center on every
    axis (clipped to the box, so edge windows repeat sites), and the max is
    taken over one window axis at a time.  Each mesh axis lists the first
    window offset of every center, then the next, so each max runs over whole
    contiguous rows (a max over a length-3 inner axis took 10x longer).
    """
    L, d = omega.box[0], len(omega.box)
    if any(b != L for b in omega.box):
        raise ConfigurationError("coarse graining expects a cubic box")
    nc = _coarse_side(L, k)
    s, w = 1 << k, _edge_half_width(k)

    def windows(start, count):
        centers = start + s * np.arange(count)
        return np.clip(np.arange(-w, w + 1)[:, None] + centers, 0, L - 1).ravel()

    vertex, edge = windows(0, nc), windows(s // 2, nc - 1)
    xi = []
    for ax in range(d):
        m = omega.at(np.ix_(*[edge if j == ax else vertex for j in range(d)]))
        for j in range(d):
            m = m.reshape(m.shape[:j] + (2 * w + 1, -1) + m.shape[j + 1:]).max(axis=j)
        xi.append(m >= gamma)
    return CoarseGraph(k=k, gamma=gamma, nc=nc, d=d, xi=tuple(xi))


def _edge_list(g: CoarseGraph):
    """Flat lower endpoints, flat upper endpoints and open flags of all edges."""
    ids = np.arange(g.n_vertices).reshape((g.nc,) * g.d)
    lower, upper = [], []
    for ax in range(g.d):
        head = (slice(None),) * ax
        lower.append(ids[head + (slice(None, -1),)].ravel())
        upper.append(ids[head + (slice(1, None),)].ravel())
    open_ = np.concatenate([a.ravel() for a in g.xi])
    return np.concatenate(lower), np.concatenate(upper), open_


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per vertex of the undirected graph with edges (a, b), the smallest vertex
    of its component.

    Labels are parent pointers to smaller vertices.  Each round hooks, for
    every edge between two trees, the larger root under the smallest root it
    meets, then pointer jumping flattens every tree to a star; rounds repeat
    until no edge joins two trees.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        join = la != lb
        if not join.any():
            return label
        la, lb = la[join], lb[join]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def _hop_counts(n: int, a: np.ndarray, b: np.ndarray, source: int,
                max_level: int | None = None) -> np.ndarray:
    """Per vertex of the undirected graph with edges (a, b), the fewest edges
    from source (-1 if unreachable): a breadth-first search that expands the
    whole frontier at once and drops the arcs into reached vertices.  Given
    max_level, the search stops after that level and every vertex it has not
    reached gets max_level + 1."""
    tail, head = np.concatenate([a, b]), np.concatenate([b, a])
    hops = np.full(n, -1)
    hops[source] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    level = 0
    while level != max_level:
        nxt = head[frontier[tail]]
        nxt = nxt[hops[nxt] < 0]
        if nxt.size == 0:
            return hops
        level += 1
        hops[nxt] = level
        frontier[:] = False
        frontier[nxt] = True
        keep = hops[head] < 0
        tail, head = tail[keep], head[keep]
    hops[hops < 0] = level + 1
    return hops


def cluster_analysis(g: CoarseGraph) -> ClusterReport:
    """The Chebyshev diameters of closed components.

    A vertex is closed (isolated) when no open edge touches it; closed
    components are listed in the C order of their first vertex.
    """
    shape = (g.nc,) * g.d
    lo, hi, open_ = _edge_list(g)
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
    return ClusterReport(closed_component_diameters=[int(x) for x in diam])


def chemical_distance(g: CoarseGraph, origin, *, _max_level=None) -> ChemicalDistanceMap:
    """Single-source passage times with 0/1 edge weights (exact).

    Closed (weight 0) edges are contracted into components; a breadth-first
    search over the open edges between components gives the passage times.
    A caller that reads no time above some level K may pass it as _max_level:
    the search then stops there and every later time reads K + 1.
    """
    shape = (g.nc,) * g.d
    origin = box_index(origin, shape, "origin")
    lo, hi, open_ = _edge_list(g)
    comp = _components(g.n_vertices, lo[~open_], hi[~open_])
    hops = _hop_counts(g.n_vertices, comp[lo[open_]], comp[hi[open_]],
                       comp[np.ravel_multi_index(origin, shape)], _max_level)
    return ChemicalDistanceMap(dist=hops[comp].reshape(shape))


def wilson_interval(successes: int, n: int):
    """The 95 % Wilson score interval of a binomial frequency."""
    z = 1.96
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class KestenRow(Record):
    radius: int
    frequency: float
    ci_low: float
    ci_high: float
    threshold: float


def _kesten_sample(i, law, L, gamma, k, master_seed, origin, cheb, radii, c_probe):
    omega = UndrawnOmega(cheb.ndim * (L,), law, master_seed, i)
    # a hit reads only whether a time is <= c_probe * R, so no time above that is needed
    top = int(c_probe * max(radii))
    dist = chemical_distance(coarse_grain(omega, k, gamma), origin, _max_level=top).dist
    return [int(dist[cheb == R].min()) <= c_probe * R for R in radii]


def kesten_tail_experiment(law: DisorderLaw, d: int, L: int, gamma: float,
                           radii, c_probe: float, n_samples: int,
                           master_seed: int, k: int, workers: int = 1):
    """Empirical P[min chemical distance to the radius-R shell <= c_probe*R]."""
    radii = [int(R) for R in radii]
    if sorted(radii) != radii or radii[0] < 1:
        raise ConfigurationError("radii must be increasing and >= 1")
    if not (0.0 < c_probe <= 1.0):
        raise ConfigurationError("c_probe must lie in (0, 1]")
    nc = _coarse_side(L, k)
    origin = (nc // 2,) * d
    if max(radii) > min(origin[0], nc - 1 - origin[0]):
        raise ConfigurationError("largest radius does not fit in the coarse box")
    cheb = np.abs(np.indices((nc,) * d) - origin[0]).max(axis=0)
    kept = _pool_map(_kesten_sample, n_samples, workers,
                     law, L, gamma, k, master_seed, origin, cheb, radii, c_probe)
    rows = []
    for R, hits in zip(radii, np.sum(list(kept.values()), axis=0).tolist()):
        lo, hi = wilson_interval(hits, len(kept))
        rows.append(KestenRow(radius=R, frequency=hits / len(kept),
                              ci_low=lo, ci_high=hi, threshold=c_probe * R))
    return rows


class GapStatistic(Record):
    gap: int
    censored: bool


def gap_statistic_1d(omega: OmegaField, gamma: float) -> GapStatistic:
    """Distance between the nearest above-threshold sites strictly left/right of
    y' = L // 2."""
    if omega.d != 1:
        raise ConfigurationError("gap statistic is one-dimensional")
    L = omega.box[0]
    y_prime = L // 2
    left = np.flatnonzero(omega.values[:y_prime] >= gamma)
    right = np.flatnonzero(omega.values[y_prime + 1:] >= gamma)
    if right.size == 0 or left.size == 0:
        return GapStatistic(gap=L, censored=True)
    return GapStatistic(gap=int(y_prime + 1 + right[0] - left[-1]), censored=False)


class AnchoringReport(Record):
    p_values: tuple
    moments: tuple              # E[gap^p]^(1/p) per p
    censored_fraction: float
    status: str                 # 'PASS' | 'FAIL' | 'INCONCLUSIVE'
    gap_mean: float
    gap_sem: float              # standard error of the mean gap


def _gap_sample(i, law, L, gamma, master_seed):
    return gap_statistic_1d(sample_omega(law, (L,), master_seed, i), gamma)


def anchoring_experiment_1d(law: DisorderLaw, L: int, gamma: float,
                            n_samples: int, master_seed: int,
                            workers: int = 1) -> AnchoringReport:
    """Moment growth of the 1d gap: at most linear in p (doubling-ratio test).

    E[gap^p]^(1/p) for p = 1, 2, 4, 8 passes when each doubling of p at most
    multiplies it by 2.5; under 100 samples or over 1 % censored gaps the
    verdict is INCONCLUSIVE.
    """
    p_values = (1, 2, 4, 8)
    results = list(_pool_map(_gap_sample, n_samples, workers,
                             law, L, gamma, master_seed).values())
    frac = sum(g.censored for g in results) / len(results)
    gaps = np.asarray([g.gap for g in results if not g.censored], dtype=float)
    moments = tuple(float(np.mean(gaps ** p) ** (1.0 / p)) if gaps.size else np.nan
                    for p in p_values)
    gap_mean = float(gaps.mean()) if gaps.size else np.nan
    gap_sem = (float(gaps.std(ddof=1) / np.sqrt(gaps.size))
               if gaps.size > 1 else np.nan)
    if frac > 0.01 or n_samples < 100:
        status = "INCONCLUSIVE"
    else:
        ratios = [moments[i + 1] / moments[i] for i in range(len(moments) - 1)]
        status = "PASS" if all(r <= 2.5 for r in ratios) else "FAIL"
    return AnchoringReport(p_values=p_values, moments=moments,
                           censored_fraction=frac, status=status,
                           gap_mean=gap_mean, gap_sem=gap_sem)
