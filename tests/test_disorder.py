import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import omega_from_values
from landscape_lab.cli import law_from_dict
from landscape_lab.disorder import (DisorderLaw, UndrawnOmega, _hash_words,
                                    assemble_potential, bernoulli, bump, discrete_atoms,
                                    resample_site, sample_omega, uniform01)
from landscape_lab.errors import ConfigurationError, LawValidationError, box_index
from landscape_lab.lattice import Grid


class TestLawValidation:
    def test_bernoulli_point_mass_rejected(self):
        with pytest.raises(LawValidationError, match="point mass"):
            sample_omega(bernoulli(1.0), (8,), 0, 0)

    def test_bernoulli_q_zero_rejected(self):
        with pytest.raises(LawValidationError):
            bernoulli(0.0)

    def test_atoms_must_include_zero(self):
        with pytest.raises(LawValidationError):
            discrete_atoms([0.5, 1.0], [0.5, 0.5])

    def test_atoms_single_support_point_rejected(self):
        with pytest.raises(LawValidationError, match="point mass"):
            discrete_atoms([0.0, 1.0], [1.0, 0.0])

    def test_atoms_outside_unit_interval_rejected(self):
        with pytest.raises(LawValidationError):
            discrete_atoms([0.0, 1.5], [0.5, 0.5])

    def test_law_from_dict_round_trip(self):
        law = law_from_dict({"kind": "bernoulli", "q": 0.25})
        assert law == bernoulli(0.25)
        with pytest.raises(LawValidationError):
            law_from_dict({"kind": "gaussian"})

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_bernoulli_values_are_zero_or_one(self, q):
        law = bernoulli(q)
        u = np.linspace(0.0, 1.0 - 1e-12, 101)
        vals = law.from_uniform(u)
        assert set(np.unique(vals)) <= {0.0, 1.0}

    def test_prob_ge_matches_atoms(self):
        law = discrete_atoms([0.0, 0.3, 1.0], [0.2, 0.3, 0.5])
        assert law.prob_ge(0.3) == pytest.approx(0.8)
        assert law.prob_ge(np.nextafter(0.3, 1.0)) == 0.5     # past the atom at 0.3
        assert [uniform01().prob_ge(x) for x in (-1.0, 0.25, 1.0, 2.0)] == [1.0, 0.75, 0.0, 0.0]

    def test_repeated_atom_is_a_point_mass(self):
        with pytest.raises(LawValidationError, match="point mass"):
            discrete_atoms([0.0, 0.0], [0.5, 0.5])

    def test_zero_probability_atom_is_not_in_the_support(self):
        # the first 0 has no mass; the second carries the infimum of the support
        law = discrete_atoms([0.0, 0.0, 1.0], [0.0, 0.5, 0.5])
        assert law.prob_ge(0.5) == 0.5
        assert law.from_uniform(np.array([0.0, 0.4999, 0.5, 0.9])).tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize("values, probs", [([], []), ([0.0, 1.0], [1.0]),
                                               ([0.0, 1.0], [0.5, float("nan")])])
    def test_malformed_table_rejected(self, values, probs):
        with pytest.raises(LawValidationError):
            discrete_atoms(values, probs)

    def test_unmatched_table_or_nan_q_rejected(self):
        with pytest.raises(LawValidationError, match="same length"):
            DisorderLaw(values=(0.0, 1.0), probs=(1.0,))
        with pytest.raises(LawValidationError, match="simplex"):
            bernoulli(float("nan"))

    def test_every_law_is_an_atom_table_or_uniform(self):
        assert uniform01() == DisorderLaw()
        assert bernoulli(0.25) == DisorderLaw(values=(1.0, 0.0), probs=(0.25, 0.75))
        law = discrete_atoms([1.0, 0.0, 0.3], [0.5, 0.2, 0.3])    # sorted once, here
        assert law == DisorderLaw(values=(0.0, 0.3, 1.0), probs=(0.2, 0.3, 0.5))


class TestSampling:
    def test_determinism_bit_identical(self):
        a = sample_omega(bernoulli(0.5), (16, 16), 123, 7)
        b = sample_omega(bernoulli(0.5), (16, 16), 123, 7)
        assert np.array_equal(a.values, b.values)

    def test_uniform_mean_clt_bound(self):
        omega = sample_omega(uniform01(), (10_000,), 42, 0)
        sd = (1.0 / np.sqrt(12.0)) / 100.0
        assert abs(omega.values.mean() - 0.5) < 3.0 * sd

    def test_values_in_unit_interval(self):
        omega = sample_omega(uniform01(), (50, 50), 9, 3)
        assert omega.values.min() >= 0.0 and omega.values.max() <= 1.0

    def test_sample_index_changes_the_field(self):
        a = sample_omega(uniform01(), (1000,), 1, 0)
        b = sample_omega(uniform01(), (1000,), 1, 1)
        assert not np.any(a.values == b.values)

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_omega(bernoulli(0.5), (0,), 0, 0)

    def test_stationarity_of_site_histograms(self):
        omega = sample_omega(uniform01(), (20_000,), 77, 0)
        h1, edges = np.histogram(omega.values[:10_000], bins=10,
                                 range=(0, 1), density=True)
        h2, _ = np.histogram(omega.values[10_000:], bins=10,
                             range=(0, 1), density=True)
        assert np.abs(h1 - h2).max() < 0.3   # 10 sigma slack per bin

    def test_immutability(self):
        omega = sample_omega(bernoulli(0.5), (8,), 0, 0)
        with pytest.raises(ValueError):
            omega.values[0] = 0.5


# sha256 of the float64 bytes of sample_omega(law, box, 101, 0).values: they fix
# every bit of the site-hash stream.  32769 sites end in a one-site block.
GOLDEN_FIELDS = {
    ("uniform01", (513, 513)): "187a3aab3e95882e1c3198d73760e440e7ba1b72142ce7296c8bafb8861345c0",
    ("uniform01", (257, 257)): "838a7b499d3f8e02edeafed7b87dc26901414722a779ec8d851d04568641ec4a",
    ("uniform01", (5, 5, 5)): "a30ad2cbcd3b0533a8b889080c9537c5dd455cc132dbcb45aac8c6957f56f584",
    ("uniform01", (1,)): "b28e08b6c852925292888ab6595bfbda21bd45a81155a82312c94c1722795f1e",
    ("uniform01", (32769,)): "6005cefc505f298d390beb88b615d1c61a1c74b30b31ae87f2f9563720d09ae0",
    ("bernoulli", (513, 513)): "e82572e8d69921bc6d3c6db2fc524f21b28a43190c8867d10dd8333c31696640",
    ("bernoulli", (257, 257)): "f9d41d0044e5cd4ff2ea04be89cb668b0fafb97dc36e011d375f2e24dbf38f59",
    ("bernoulli", (5, 5, 5)): "8db9e86caccf7e8fcb9b2a481e460ffb5cc12712130598dc9b3404d367b1fde2",
    ("bernoulli", (1,)): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("bernoulli", (32769,)): "146fa742ba8cb5fe47b201b52b7842af4ce0aa12b70b6b659bb03eb53498bfe5",
    ("atoms", (257, 257)): "480f0abb87fd527a1310695d35f4e655def39ce5e584be3a609a0002e5ef3b55",
    ("atoms", (5, 5, 5)): "0b58e7d15eade1d703c1c45efbfd34a46acdc8b1fe58f6b3b22619a68f8ab493",
    ("atoms", (32769,)): "0f060c8a6bcfe1e101eadc64eac74a0c9d81902c2f15544579747aa097149677",
}
# the same for resample_site(sample_omega(law, (5, 5, 5), 101, 2), (1, 2, 3), 9)
GOLDEN_RESAMPLED = {
    "uniform01": "2bda4e49b13a8f7dacaee6d8a169b8f382ff33cb5aaec03388527c5094a4a23c",
    "bernoulli": "aca30ac87d0acad78bb5a970fdfd2c8a2e251fb0ed38ddd519ec536ad013b6d5",
    "atoms": "9a89629629408a2f80b9df94a3da80736d7efc1c865c3c44af3f5eb9a3935536",
}
# atoms listed out of value order, one value twice
LAWS = {"uniform01": uniform01(), "bernoulli": bernoulli(0.5),
        "atoms": discrete_atoms([1.0, 0.0, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25])}


def digest(omega) -> str:
    return hashlib.sha256(omega.values.tobytes()).hexdigest()


class TestHashStream:
    @pytest.mark.parametrize("law, box", sorted(GOLDEN_FIELDS),
                             ids=lambda v: v if isinstance(v, str) else "x".join(map(str, v)))
    def test_field_bits_fixed(self, law, box):
        assert digest(sample_omega(LAWS[law], box, 101, 0)) == GOLDEN_FIELDS[law, box]

    @pytest.mark.parametrize("law", sorted(GOLDEN_RESAMPLED))
    def test_resampled_bits_fixed(self, law):
        omega = resample_site(sample_omega(LAWS[law], (5, 5, 5), 101, 2), (1, 2, 3), 9)
        assert digest(omega) == GOLDEN_RESAMPLED[law]


def numpy_scalar_chain(*words):
    """The key chain as it was in np.uint64 scalars: each word masked to 64 bits,
    xored in, then one SplitMix64 round."""
    acc = np.uint64(0x8C54E0D2A71B3C91)
    with np.errstate(over="ignore"):
        for w in words:
            z = acc ^ np.uint64(int(w) & ((1 << 64) - 1))
            z += np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            acc = z ^ (z >> np.uint64(31))
    return acc


class TestHashWords:
    @pytest.mark.parametrize("words", [
        (0, 0, 0), ((1 << 64) - 1, 7, 0), (-101, 3, 19), (101, (1 << 64) - 1, -1),
        (2 ** 70 + 5, 0, 1), (42,), ()])
    def test_python_int_chain_matches_numpy_scalars(self, words):
        key = _hash_words(*words)
        assert type(key) is np.uint64 and key == numpy_scalar_chain(*words)


class TestUndrawnOmega:
    """An undrawn field hashes only the sites it is asked for, to the bits
    sample_omega draws there."""

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("box", [(40,), (13, 17), (6, 7, 5)], ids=["1d", "2d", "3d"])
    def test_at_matches_the_drawn_field(self, law, box):
        drawn = sample_omega(LAWS[law], box, 101, 3)
        undrawn = UndrawnOmega(box, LAWS[law], 101, 3)
        meshes = [
            [np.arange(b) for b in box],                          # the whole box
            # clipped windows: the box's first and last sites repeat
            [np.clip(np.arange(-2, b + 2), 0, b - 1) for b in box],
            [np.array([b - 1, 0, b // 2, b // 2, 0]) for b in box],
        ]
        for axes in meshes:
            mesh = np.ix_(*axes)
            got = undrawn.at(mesh)
            assert got.shape == tuple(a.size for a in axes)
            assert got.tobytes() == drawn.values[mesh].tobytes()
            assert drawn.at(mesh).tobytes() == got.tobytes()

    def test_at_spans_blocks(self):
        # 40 000 sites hash in two blocks
        box = (200, 200)
        mesh = np.ix_(np.arange(200)[::-1], np.arange(200))
        got = UndrawnOmega(box, uniform01(), 7, 1).at(mesh)
        assert got.tobytes() == sample_omega(uniform01(), box, 7, 1).values[::-1].tobytes()

    def test_at_rejects_sites_outside_the_box(self):
        with pytest.raises(ValueError):
            UndrawnOmega((8, 8), uniform01(), 0, 0).at(np.ix_([0, 8], [1]))

    @pytest.mark.parametrize("box", [(), (0,), (4, 0)])
    def test_empty_box_rejected(self, box):
        with pytest.raises(ConfigurationError, match="nonempty"):
            UndrawnOmega(box, uniform01(), 0, 0)


class TestResampleSite:
    def test_difference_supported_on_single_site(self):
        omega = sample_omega(uniform01(), (32, 32), 5, 0)
        out = resample_site(omega, (10, 20), resample_seed=1)
        diff = out.values != omega.values
        assert diff.sum() <= 1
        changed = np.argwhere(diff)
        if changed.size:
            assert tuple(changed[0]) == (10, 20)

    def test_resample_deterministic(self):
        omega = sample_omega(uniform01(), (16,), 5, 0)
        a = resample_site(omega, (4,), 9)
        b = resample_site(omega, (4,), 9)
        assert np.array_equal(a.values, b.values)

    def test_resample_marginal_binomial_ci(self):
        q = 0.5
        omega = sample_omega(bernoulli(q), (8,), 3, 0)
        n = 10_000
        ones = sum(resample_site(omega, (4,), seed).values[4] == 1.0
                   for seed in range(n))
        assert abs(ones / n - q) < 3.0 * np.sqrt(q * (1 - q) / n)

    def test_resample_equal_draw_leaves_field_unchanged(self):
        omega = sample_omega(bernoulli(0.5), (8,), 3, 0)
        for seed in range(200):
            out = resample_site(omega, (4,), seed)
            if out.values[4] == omega.values[4]:
                assert np.array_equal(out.values, omega.values)
                return
        pytest.fail("no resample reproduced the original value in 200 draws")

    def test_site_outside_box_rejected(self):
        omega = sample_omega(bernoulli(0.5), (8,), 3, 0)
        with pytest.raises(ConfigurationError):
            resample_site(omega, (8,), 0)

    @pytest.mark.parametrize("z", [3.7, (3.7,), "3"])
    def test_non_integral_site_rejected(self, z):
        # each was truncated to site 3, which was then redrawn
        omega = sample_omega(bernoulli(0.5), (8,), 3, 0)
        with pytest.raises(ConfigurationError, match="site"):
            resample_site(omega, z, 0)


class TestBoxIndex:
    @pytest.mark.parametrize("index, want", [
        (3, (3,)), (np.int64(3), (3,)), (3.0, (3,)), ((np.int32(2), 7), (2, 7)),
        (np.array([0, 7]), (0, 7)), ([7.0, 0], (7, 0))])
    def test_python_ints_one_per_axis(self, index, want):
        shape = (8,) * len(want)
        got = box_index(index, shape, "site")
        assert got == want and all(type(c) is int for c in got)

    @pytest.mark.parametrize("index", [
        (8, 0), (0, -1), (3,), (1, 2, 3), (2.5, 0), (np.nan, 0), (np.inf, 0),
        (True, False), ("1", "2"), [[1, 2]], None, (10 ** 30, 0), ((1, 2), 3)])
    def test_anything_else_names_what(self, index):
        with pytest.raises(ConfigurationError, match="origin"):
            box_index(index, (8, 8), "origin")


class TestAssemblePotential:
    def test_all_zero_amplitudes_give_zero_potential(self):
        omega = omega_from_values(np.zeros(6))
        grid = Grid(d=1, L=6, m=20)
        V = assemble_potential(omega, grid)
        assert np.all(V.values == 0.0)

    def test_single_bump_matches_profile(self):
        vals = np.zeros(8)
        vals[4] = 1.0
        omega = omega_from_values(vals)
        grid = Grid(d=1, L=8, m=40)
        V = assemble_potential(omega, grid)
        x = grid.axis_coords
        r = np.abs(x - 4.0)
        near = r < 0.5
        assert np.allclose(V.values[near], bump(r[near]))
        assert np.all(V.values[r >= 0.1] == 0.0)

    def test_matches_per_node_oracle(self):
        omega = sample_omega(uniform01(), (6, 6), 11, 0)
        grid = Grid(d=2, L=6, m=20)
        V = assemble_potential(omega, grid)
        rng = np.random.default_rng(0)
        for _ in range(50):
            node = tuple(rng.integers(0, grid.n_per_side, size=2))
            x = -0.5 + np.asarray(node) / grid.m
            j = np.clip(np.rint(x).astype(int), 0, 5)
            expect = omega.values[tuple(j)] * bump(
                np.sqrt(((x - j) ** 2).sum()))
            assert V.values[node] == pytest.approx(float(expect), abs=1e-14)

    def test_bounds_and_support(self):
        omega = sample_omega(uniform01(), (10,), 2, 0)
        grid = Grid(d=1, L=10, m=20)
        V = assemble_potential(omega, grid)
        assert V.values.min() >= 0.0
        assert V.values.max() <= omega.values.max()
        x = grid.axis_coords
        far = np.abs(x - np.rint(x)) >= 0.1
        assert np.all(V.values[far] == 0.0)

    @pytest.mark.parametrize("d, L, m", [(1, 16, 20), (2, 8, 20), (2, 7, 27), (3, 4, 24)])
    def test_bits_match_full_grid_formula(self, d, L, m):
        # the bump evaluated on every node, as before rasterization kept only
        # the nodes it reaches
        omega = sample_omega(uniform01(), (L,) * d, 7, 1)
        grid = Grid(d=d, L=L, m=m)
        coords = grid.axis_coords
        nearest = np.clip(np.rint(coords).astype(int), 0, grid.L - 1)
        dist2 = sum(o ** 2 for o in np.ix_(*[coords - nearest] * d))
        full = omega.values[np.ix_(*[nearest] * d)] * bump(np.sqrt(dist2))
        V = assemble_potential(omega, grid).values
        assert V.tobytes() == full.tobytes()

    def test_coarse_mesh_rejected(self):
        omega = omega_from_values(np.zeros(6))
        grid = Grid(d=1, L=6, m=10)
        with pytest.raises(ConfigurationError, match="too coarse"):
            assemble_potential(omega, grid)

    def test_grid_box_mismatch_rejected(self):
        omega = omega_from_values(np.zeros(6))
        grid = Grid(d=1, L=8, m=20)
        with pytest.raises(ConfigurationError):
            assemble_potential(omega, grid)


class TestBump:
    def test_normalization_and_support(self):
        assert bump(np.asarray(0.0)) == pytest.approx(1.0)
        assert bump(np.asarray(0.1)) == 0.0
        assert bump(np.asarray(0.25)) == 0.0

    @settings(max_examples=30)
    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_values_in_unit_interval(self, r):
        v = float(bump(np.asarray(r)))
        assert 0.0 <= v <= 1.0

    def test_radial_monotone_decrease(self):
        r = np.linspace(0.0, 0.0999, 200)
        v = bump(r)
        assert np.all(np.diff(v) <= 1e-12)
