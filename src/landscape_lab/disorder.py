"""Random potential: iid site amplitudes on the integer lattice, rasterized bumps.

The potential is V(x) = sum_j w_j phi(x - j) with w_j iid in [0,1] and phi a
smooth bump of radius 1/10 around each lattice site, so at most one bump
contributes at any point.  Site values come from a counter-based hash so that
a single site can be resampled without touching the rest of the field and so
that parallel generation is order-independent.  The hash (SplitMix64 chained
over master seed, sample index, stream and site) is evaluated in place on an
array of site indices, in cache-sized blocks, so it can run on any set of
sites: sample_omega draws the whole box, an UndrawnOmega hashes only the sites
it is asked for, and resample_site one site.  How the hash is evaluated never
changes its bits.
"""

from __future__ import annotations

import numpy as np

from . import Record, replace
from .errors import ConfigurationError, LawValidationError, box_index

_MASK64 = (1 << 64) - 1
# Sites hashed per pass, with one 256 KB work buffer.  The benchmark's largest
# hashes are coarse graining's meshes (37 440 sites per axis at L = 513, k = 3),
# whose samples take alike from 2^13 to 2^16 (0.73-0.85 ms, Xeon, 2 MB L2 per
# core); a 513^2 field drawn whole is fastest at 2^15 (1.39-1.47 ms).
_BLOCK = 1 << 15


def _splitmix(z, tmp):
    """One SplitMix64 finalization round on a uint64 array, wrapping mod 2^64,
    in place, with tmp as scratch of z's shape, so it allocates nothing."""
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _hash_words(*words: int) -> np.uint64:
    """Chain SplitMix64 over a sequence of scalar words, each taken mod 2^64, in
    Python ints masked to 64 bits (numpy scalars cost about 50 us a chain).
    The mask after the add also drops a word's sign and bits above 64."""
    acc = 0x8C54E0D2A71B3C91
    for w in words:
        z = ((acc ^ int(w)) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
    return np.uint64(acc)


def _site_uniforms(master_seed: int, sample_index: int, stream: int,
                   sites: np.ndarray) -> np.ndarray:
    """Uniform(0,1) draws keyed by (master_seed, sample_index, stream, site) for
    the uint64 site indices sites (C-contiguous), which it overwrites: the draws
    are returned in sites' memory, viewed as float64.

    The last word of the chain is the site, so the three scalar words fold into
    one key once; the sites are then hashed in place, block by block, with one
    block-sized work buffer.
    """
    key = _hash_words(master_seed, sample_index, stream)
    z = sites.reshape(-1)
    work = np.empty(min(z.size, _BLOCK), dtype=np.uint64)
    for start in range(0, z.size, _BLOCK):
        zb = z[start:start + _BLOCK]
        tmp = work[:zb.size]
        zb ^= key
        _splitmix(zb, tmp)
        zb >>= np.uint64(11)
        u = tmp.view(np.float64)
        u[...] = zb                  # exact: below 2^53
        np.multiply(u, 2.0 ** -53, out=zb.view(np.float64))
    return sites.view(np.float64)


class DisorderLaw(Record):
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


BUMP_RADIUS = 0.1   # the bump's support lies strictly inside this radius


def bump(r) -> np.ndarray:
    """The canonical mollifier, normalized to 1 at the origin, on radius BUMP_RADIUS."""
    s = np.asarray(r, dtype=float) / BUMP_RADIUS
    out = np.zeros_like(s)
    inside = s < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def _checked_box(box) -> tuple:
    box = tuple(int(b) for b in box)
    if len(box) == 0 or any(b < 1 for b in box):
        raise ConfigurationError(f"box must be nonempty, got {box}")
    return box


class OmegaField(Record):
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

    def at(self, mesh) -> np.ndarray:
        """The site values on an open mesh (np.ix_) of in-box indices."""
        return self.values[mesh]


class UndrawnOmega(Record):
    """The field sample_omega(law, box, master_seed, sample_index) draws, before
    it is drawn: it holds no site values, and at(mesh) hashes only the mesh's
    sites, with the bits the drawn field holds there."""

    box: tuple
    law: DisorderLaw
    master_seed: int
    sample_index: int

    def __post_init__(self):
        object.__setattr__(self, "box", _checked_box(self.box))

    def at(self, mesh) -> np.ndarray:
        """The site values on an open mesh (np.ix_) of in-box indices; a
        repeated index is hashed again, to the same value."""
        if len(mesh) != len(self.box) or any(
                a.min() < 0 or a.max() >= n for a, n in zip(mesh, self.box)):
            raise ValueError(f"mesh is not a mesh of indices into box {self.box}")
        # in uint64 from the (small) axes up, so the one full-size array is the
        # sum itself; the copy of the first axis keeps the 1-d caller's mesh,
        # which _site_uniforms would otherwise hash in place
        sites = mesh[0].astype(np.uint64, order="C")
        for a, n in zip(mesh[1:], self.box[1:]):
            sites = sites * np.uint64(n) + a.astype(np.uint64)
        return self.law.from_uniform(
            _site_uniforms(self.master_seed, self.sample_index, 0, sites))


def sample_omega(law: DisorderLaw, box, master_seed: int, sample_index: int) -> OmegaField:
    """Draw the whole field; deterministic and site-keyed in all inputs."""
    box = _checked_box(box)
    u = _site_uniforms(master_seed, sample_index, 0,
                       np.arange(np.prod(box), dtype=np.uint64))
    values = law.from_uniform(u).reshape(box)
    return OmegaField(box=box, values=values, law=law,
                      master_seed=master_seed, sample_index=sample_index)


def resample_site(omega: OmegaField, z, resample_seed: int) -> OmegaField:
    """Fresh independent draw at site z; every other site untouched."""
    z = box_index(z, omega.box, "site")
    site = np.array([np.ravel_multi_index(z, omega.box)], dtype=np.uint64)
    # stream 0 is the original field; odd streams (mod 2^64) are reserved for resampling
    u = _site_uniforms(omega.master_seed, omega.sample_index, 2 * resample_seed + 1, site)
    values = omega.values.copy()
    values[z] = omega.law.from_uniform(u)[0]
    return replace(omega, values=values)


def assemble_potential(omega: OmegaField, grid) -> "ScalarField":
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
    if grid.m * 2.0 * BUMP_RADIUS < 4.0 - 1e-12:
        raise ConfigurationError(
            f"mesh m={grid.m} too coarse to resolve a bump of radius {BUMP_RADIUS}")
    coords = grid.axis_coords  # shape (n,)
    nearest = np.clip(np.rint(coords).astype(int), 0, grid.L - 1)
    offset = coords - nearest
    near = np.flatnonzero(np.abs(offset) < BUMP_RADIUS)
    # squared distance to the nearest site, summed axis by axis over an open mesh
    dist2 = sum(o ** 2 for o in np.ix_(*[offset[near]] * grid.d))
    amp = omega.values[np.ix_(*[nearest[near]] * grid.d)]
    v = np.zeros(grid.shape)
    v[np.ix_(*[near] * grid.d)] = amp * bump(np.sqrt(dist2))
    return ScalarField(grid=grid, values=v)
