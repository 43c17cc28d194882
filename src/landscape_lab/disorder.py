"""Random potential: iid site amplitudes on the integer lattice, rasterized bumps.

The potential is V(x) = sum_j w_j phi(x - j) with w_j iid in [0,1] and phi a
smooth bump of radius 1/10 around each lattice site, so at most one bump
contributes at any point.  Site values come from a counter-based hash so that
a single site can be resampled without touching the rest of the field and so
that parallel generation is order-independent.  The hash (SplitMix64 chained
over master seed, sample index, stream and site) is evaluated in place, in
cache-sized blocks written straight into the output array; how it is evaluated
never changes its bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, LawValidationError, box_index

_MASK64 = (1 << 64) - 1
_BLOCK = 1 << 15   # sites per pass: fastest of 2^12..2^19 at 513², three 256 KB buffers


def _splitmix(z, tmp=None):
    """One SplitMix64 finalization round, wrapping mod 2^64.

    On a uint64 array the round runs in place, with tmp as scratch of z's
    shape, so it allocates nothing; on a np.uint64 scalar it returns the new
    value (call it under np.errstate(over="ignore")).
    """
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _hash_words(*words: int) -> np.uint64:
    """Chain SplitMix64 over a sequence of scalar 64-bit words."""
    acc = np.uint64(0x8C54E0D2A71B3C91)
    with np.errstate(over="ignore"):
        for w in words:
            acc = _splitmix(acc ^ np.uint64(int(w) & _MASK64))
    return acc


def _site_uniforms(master_seed: int, sample_index: int, stream: int, first: int,
                   n: int) -> np.ndarray:
    """Uniform(0,1) draws keyed by (master_seed, sample_index, stream, site) for
    the n sites first, first + 1, ...

    The last word of the chain is the site, so the three scalar words fold into
    one key once; the site words are then hashed block by block in place.
    """
    key = _hash_words(master_seed, sample_index, stream)
    out = np.empty(n)
    offsets = np.arange(min(n, _BLOCK), dtype=np.uint64)
    z, tmp = np.empty_like(offsets), np.empty_like(offsets)
    for start in range(0, n, _BLOCK):
        k = min(_BLOCK, n - start)
        zb = np.add(offsets[:k], np.uint64(first + start), out=z[:k])
        zb ^= key
        _splitmix(zb, tmp[:k])
        zb >>= np.uint64(11)
        np.multiply(zb, 2.0 ** -53, out=out[start:start + k])
    return out


@dataclass(frozen=True)
class DisorderLaw:
    """Law of a single site amplitude: uniform on [0,1] when values and probs are
    empty, otherwise the atom table values/probs, drawn by inverse CDF in the
    order it is stored.  The probs form a simplex, the atoms lie in [0,1], and
    the support (the atoms of positive probability) holds two values or more,
    the smallest 0; construction raises LawValidationError otherwise."""

    values: tuple = ()
    probs: tuple = ()

    def __post_init__(self):
        if not self.values and not self.probs:
            return
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape:
            raise LawValidationError("atom values and probs must have the same length")
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise LawValidationError("atom values must lie in [0,1]")
        if not (np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12):
            raise LawValidationError("probs must be a probability simplex")
        support = v[p > 0.0]
        if np.all(support == support[0]):
            raise LawValidationError("law is a point mass")
        if support.min() != 0.0:
            raise LawValidationError("infimum of the support must be 0 with positive mass")

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniforms to site amplitudes."""
        if not self.values:
            return np.asarray(u, dtype=float)
        idx = np.searchsorted(np.cumsum(self.probs), u, side="right")
        return np.asarray(self.values)[np.minimum(idx, len(self.values) - 1)]

    def prob_ge(self, x: float) -> float:
        """P[w >= x]."""
        if not self.values:
            return float(np.clip(1.0 - x, 0.0, 1.0))
        return float(np.asarray(self.probs)[np.asarray(self.values) >= x].sum())

    def upper_quantile(self) -> float:
        """Largest threshold g with P[w >= g] >= 1/4 (the default gamma)."""
        tail = 0.25
        if not self.values:
            return 1.0 - tail
        return float(max(g for g in self.values if self.prob_ge(g) >= tail))


def bernoulli(q: float) -> DisorderLaw:
    """w = 1 with probability q: the atom 1 is stored first, so w = 1 exactly when u < q."""
    return DisorderLaw(values=(1.0, 0.0), probs=(q, 1.0 - q))


def uniform01() -> DisorderLaw:
    return DisorderLaw()


def discrete_atoms(values, probs) -> DisorderLaw:
    """The atom table, stored (and so drawn) in increasing value order."""
    v, p = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    if v.size == 0 or v.shape != p.shape:
        raise LawValidationError("discrete_atoms needs atoms with matching probs")
    order = np.argsort(v)
    return DisorderLaw(values=tuple(v[order].tolist()), probs=tuple(p[order].tolist()))


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
    u = _site_uniforms(master_seed, sample_index, 0, 0, int(np.prod(box)))
    values = law.from_uniform(u).reshape(box)
    return OmegaField(box=box, values=values, law=law,
                      master_seed=master_seed, sample_index=sample_index)


def resample_site(omega: OmegaField, z, resample_seed: int) -> OmegaField:
    """Fresh independent draw at site z; every other site untouched."""
    z = box_index(z, omega.box, "site")
    site = int(np.ravel_multi_index(z, omega.box))
    # stream 0 is the original field; odd streams (mod 2^64) are reserved for resampling
    u = _site_uniforms(omega.master_seed, omega.sample_index, 2 * resample_seed + 1, site, 1)
    values = omega.values.copy()
    values[z] = omega.law.from_uniform(u)[0]
    return replace(omega, values=values)


def assemble_potential(omega: OmegaField, bump: BumpProfile, grid) -> "ScalarField":
    """Rasterize V(x) = w_{j(x)} phi(x - j(x)) on the grid nodes.

    The bump radius is < 1/2, so only the nearest lattice site can contribute
    at any node.  The bump is evaluated only on the open mesh of the nodes
    within its radius of their site on every axis; every other node is 0.
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
    near = np.flatnonzero(np.abs(offset) < bump.radius)
    # squared distance to the nearest site, summed axis by axis over an open mesh
    dist2 = sum(o ** 2 for o in np.ix_(*[offset[near]] * grid.d))
    amp = omega.values[np.ix_(*[nearest[near]] * grid.d)]
    v = np.zeros(grid.shape)
    v[np.ix_(*[near] * grid.d)] = amp * bump.evaluate(np.sqrt(dist2))
    return ScalarField(grid=grid, values=v)
