"""Random potential: iid site amplitudes on the integer lattice, rasterized bumps.

The potential is V(x) = sum_j w_j phi(x - j) with w_j iid in [0,1] and phi a
smooth bump of radius 1/10 around each lattice site, so at most one bump
contributes at any point.  Site values come from a counter-based hash so that
a single site can be resampled without touching the rest of the field and so
that parallel generation is order-independent.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, LawValidationError

_MASK64 = (1 << 64) - 1


def _splitmix(x: np.ndarray) -> np.ndarray:
    """One SplitMix64 finalization round (vectorized, uint64 wrap-around)."""
    with np.errstate(over="ignore"):
        z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def _hash_words(*words) -> np.ndarray:
    """Chain SplitMix64 over a sequence of 64-bit words (arrays broadcast)."""
    acc = np.uint64(0x8C54E0D2A71B3C91)
    for w in words:
        if np.isscalar(w):
            w = np.uint64(int(w) & _MASK64)
        else:
            w = np.asarray(w, dtype=np.uint64)
        acc = _splitmix(np.bitwise_xor(acc, w))
    return acc


def _site_uniforms(master_seed: int, sample_index: int, stream: int, sites: np.ndarray) -> np.ndarray:
    """Uniform(0,1) draws keyed by (master_seed, sample_index, stream, site)."""
    h = _hash_words(master_seed & _MASK64, sample_index & _MASK64,
                    stream & _MASK64, sites.astype(np.uint64))
    return (h >> np.uint64(11)) * 2.0 ** -53


@dataclass(frozen=True)
class DisorderLaw:
    """Law of a single site amplitude; values in [0,1], infimum of support 0.
    Construction raises LawValidationError for a law that breaks this."""

    kind: str                      # 'bernoulli' | 'uniform01' | 'discrete_atoms'
    q: float | None = None         # bernoulli: P[w = 1]
    values: tuple = ()             # discrete_atoms
    probs: tuple = ()

    def __post_init__(self):
        if self.kind == "bernoulli":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise LawValidationError(
                    f"bernoulli requires 0 < q < 1 (law is a point mass otherwise), got q={self.q}")
        elif self.kind == "uniform01":
            pass
        elif self.kind == "discrete_atoms":
            v = np.asarray(self.values, dtype=float)
            p = np.asarray(self.probs, dtype=float)
            if v.size != p.size or v.size < 2:
                raise LawValidationError("discrete_atoms needs >= 2 atoms with matching probs")
            if np.any(v < 0.0) or np.any(v > 1.0):
                raise LawValidationError("atom values must lie in [0,1]")
            if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-12:
                raise LawValidationError("probs must be a probability simplex")
            if np.count_nonzero(p > 0.0) < 2:
                raise LawValidationError("law is a point mass")
            if v[np.argmin(v)] != 0.0 or p[np.argmin(v)] <= 0.0:
                raise LawValidationError("infimum of the support must be 0 with positive mass")
        else:
            raise LawValidationError(f"unknown law kind {self.kind!r}")

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniforms to site amplitudes."""
        if self.kind == "bernoulli":
            return (u < self.q).astype(float)
        if self.kind == "uniform01":
            return np.asarray(u, dtype=float)
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        order = np.argsort(v)
        cum = np.cumsum(p[order])
        idx = np.searchsorted(cum, u, side="right")
        return v[order][np.minimum(idx, v.size - 1)]

    def prob_lt(self, x: float) -> float:
        """P[w < x]."""
        if self.kind == "bernoulli":
            return (0.0 if x <= 0.0 else (1.0 - self.q if x <= 1.0 else 1.0))
        if self.kind == "uniform01":
            return float(np.clip(x, 0.0, 1.0))
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        return float(p[v < x].sum())

    def prob_ge(self, x: float) -> float:
        return 1.0 - self.prob_lt(x)

    def upper_quantile(self) -> float:
        """Largest threshold g with P[w >= g] >= 1/4 (the default gamma)."""
        tail = 0.25
        if self.kind == "bernoulli":
            return 1.0 if self.q >= tail else 0.0
        if self.kind == "uniform01":
            return 1.0 - tail
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        order = np.argsort(v)[::-1]
        cum = np.cumsum(p[order])
        return float(v[order][np.searchsorted(cum, tail, side="left")])


def bernoulli(q: float) -> DisorderLaw:
    return DisorderLaw(kind="bernoulli", q=q)


def uniform01() -> DisorderLaw:
    return DisorderLaw(kind="uniform01")


def discrete_atoms(values, probs) -> DisorderLaw:
    return DisorderLaw(kind="discrete_atoms", values=tuple(values), probs=tuple(probs))


def _number(x, key: str) -> float:
    """x as a float; JSON's NaN and Infinity, and ints past the float range, fail."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise LawValidationError(f"law field {key!r} must be a finite number, got {x!r}")
    return float(x)


def _numbers(d: dict, key: str) -> list:
    if not isinstance(d.get(key), list):
        raise LawValidationError(
            f"law field {key!r} must be a list of numbers, got {d.get(key)!r}")
    return [_number(x, key) for x in d[key]]


_LAW_FIELDS = {"bernoulli": {"kind", "q"}, "uniform01": {"kind"},
               "discrete_atoms": {"kind", "values", "probs"}}


def law_from_dict(d: dict) -> DisorderLaw:
    """Build a law from a config mapping, e.g. {'kind': 'bernoulli', 'q': 0.5}.

    A field the kind does not use is an error, not silently dropped.
    """
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _LAW_FIELDS:
        raise LawValidationError(f"unknown law kind {kind!r}")
    unused = sorted(set(d) - _LAW_FIELDS[kind])
    if unused:
        raise LawValidationError(f"law kind {kind!r} takes no field {unused}")
    if kind == "bernoulli":
        return bernoulli(_number(d.get("q"), "q"))
    if kind == "uniform01":
        return uniform01()
    return discrete_atoms(_numbers(d, "values"), _numbers(d, "probs"))


@dataclass(frozen=True)
class BumpProfile:
    """Radially symmetric smooth bump, support strictly inside radius 1/10:
    the canonical mollifier, normalized to 1 at the origin."""

    radius = 0.1   # a class constant, not a field

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        s = np.asarray(r, dtype=float) / self.radius
        out = np.zeros_like(s)
        inside = s < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out


def default_bump() -> BumpProfile:
    return BumpProfile()


@dataclass(frozen=True)
class OmegaField:
    """One realization of the iid site amplitudes on a lattice box."""

    box: tuple                 # sites are {0..box[i]-1} along each axis
    values: np.ndarray
    law: DisorderLaw
    master_seed: int
    sample_index: int

    def __post_init__(self):
        self.values.flags.writeable = False

    @property
    def d(self) -> int:
        return len(self.box)


def sample_omega(law: DisorderLaw, box, master_seed: int, sample_index: int) -> OmegaField:
    """Draw the whole field; deterministic and site-keyed in all inputs."""
    box = tuple(int(b) for b in box)
    if len(box) == 0 or any(b < 1 for b in box):
        raise ConfigurationError(f"box must be nonempty, got {box}")
    n = int(np.prod(box))
    u = _site_uniforms(master_seed, sample_index, 0, np.arange(n, dtype=np.uint64))
    values = law.from_uniform(u).reshape(box)
    return OmegaField(box=box, values=values, law=law,
                      master_seed=master_seed, sample_index=sample_index)


def resample_site(omega: OmegaField, z, resample_seed: int) -> OmegaField:
    """Fresh independent draw at site z; every other site untouched."""
    z = tuple(int(c) for c in np.atleast_1d(z))
    if len(z) != omega.d or any(not (0 <= c < b) for c, b in zip(z, omega.box)):
        raise ConfigurationError(f"site {z} outside box {omega.box}")
    site = np.asarray([np.ravel_multi_index(z, omega.box)], dtype=np.uint64)
    # stream 0 is the original field; odd streams are reserved for resampling
    stream = (2 * (resample_seed & _MASK64) + 1) & _MASK64
    u = _site_uniforms(omega.master_seed, omega.sample_index, stream, site)
    values = omega.values.copy()
    values[z] = omega.law.from_uniform(u)[0]
    return replace(omega, values=values)


def assemble_potential(omega: OmegaField, bump: BumpProfile, grid) -> "ScalarField":
    """Rasterize V(x) = w_{j(x)} phi(x - j(x)) on the grid nodes.

    The bump radius is < 1/2, so only the nearest lattice site can contribute
    at any node.
    """
    from .lattice import ScalarField  # local import to avoid a cycle

    if grid.d != omega.d or any(b != grid.L for b in omega.box):
        raise ConfigurationError(
            f"grid ({grid.d}d, L={grid.L}) does not cover omega box {omega.box}")
    # need >= 4 nodes across the bump diameter
    if grid.m * 2.0 * bump.radius < 4.0 - 1e-12:
        raise ConfigurationError(
            f"mesh m={grid.m} too coarse to resolve a bump of radius {bump.radius}")
    coords = grid.axis_coords  # shape (n,)
    nearest = np.clip(np.rint(coords).astype(int), 0, grid.L - 1)
    offset = coords - nearest
    # squared distance to the nearest site, summed axis by axis over an open mesh
    dist2 = sum(o ** 2 for o in np.ix_(*[offset] * grid.d))
    amp = omega.values[np.ix_(*[nearest] * grid.d)]
    v = amp * bump.evaluate(np.sqrt(dist2))
    return ScalarField(grid=grid, values=v)
