"""The frozen record base: construction, immutability, equality, the replace and
asdict helpers, pickling, and the manifest dicts it gives."""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from landscape_lab import Record, asdict, replace
from landscape_lab.disorder import bernoulli, sample_omega
from landscape_lab.errors import ConfigurationError
from landscape_lab.landscape import EtaRow, energy_report
from landscape_lab.lattice import Grid, HamiltonianSpec, ScalarField
from landscape_lab.percolation import GapStatistic, anchoring_experiment_1d, gap_statistic_1d
from landscape_lab.stats import MomentCurve, fit_exponential_decay


class Point(Record):
    x: int
    y: int
    label: str = "p"


class Twin(Record):
    x: int
    y: int
    label: str = "p"


class TestConstruction:
    def test_keyword_positional_and_default(self):
        assert Grid(d=2, L=8, m=20) == Grid(2, 8, 20) == Grid(2, 8, m=20, bc="dirichlet")
        g = Grid(1, 8, 20)
        assert (g.d, g.L, g.m, g.bc) == (1, 8, 20, "dirichlet")
        assert Point(1, 2).label == "p" and Point(1, 2, "q").label == "q"
        assert list(Point._fields) == ["x", "y", "label"]

    @pytest.mark.parametrize("args, kwargs", [
        ((1,), {}),                         # y missing
        ((), {"x": 1}),
        ((1, 2, "q", 4), {}),               # one positional too many
        ((1, 2), {"z": 3}),                 # unknown field
        ((1, 2), {"x": 3}),                 # x given twice
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_post_init_validates_and_may_set_a_field(self):
        with pytest.raises(ConfigurationError, match="L >= 4"):
            Grid(1, 3, 20)
        field = ScalarField(Grid(1, 4, 2), [1, 2, 3, 4, 5, 6, 7, 8])
        assert field.values.dtype == float and isinstance(field.values, np.ndarray)

    def test_cached_property_is_computed_once(self):
        grid = Grid(1, 4, 2)
        H = HamiltonianSpec(grid, ScalarField.constant(grid, 1.0), 0.5, 0.25)
        assert H.diagonal is H.diagonal
        assert np.all(H.diagonal == 2.0 * 4 + 0.5 + 0.25)


class TestFrozen:
    def test_assignment_and_deletion_raise(self):
        g = Grid(1, 8, 20)
        with pytest.raises(AttributeError):
            g.L = 9
        with pytest.raises(AttributeError):
            g.extra = 1
        with pytest.raises(AttributeError):
            del g.m
        assert g == Grid(1, 8, 20) and not hasattr(g, "extra")

    def test_equality_and_hash_are_field_by_field(self):
        a, b = Grid(2, 8, 20), Grid(d=2, L=8, m=20)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Grid(2, 8, 20, "periodic") and a != Grid(2, 9, 20)
        assert Point(1, 2) != (1, 2, "p")                   # another class never compares equal
        assert Point(1, 2) != Twin(1, 2)
        assert GapStatistic(3, False) == GapStatistic(gap=3, censored=False)

    def test_repr(self):
        assert repr(Grid(1, 8, 20)) == "Grid(d=1, L=8, m=20, bc='dirichlet')"
        assert repr(Point(1, 2)) == "Point(x=1, y=2, label='p')"


class TestHelpers:
    def test_replace_changes_fields_and_validates_again(self):
        g = Grid(1, 8, 20)
        assert replace(g, bc="periodic") == Grid(1, 8, 20, "periodic")
        assert g.bc == "dirichlet"
        with pytest.raises(ConfigurationError, match="unknown bc"):
            replace(g, bc="neumann")
        with pytest.raises(TypeError):
            replace(g, n=3)
        # __post_init__ runs on the new record: the values become a float array
        field = replace(ScalarField.constant(Grid(1, 4, 2), 1.0), values=[0] * 8)
        assert field.values.dtype == float

    def test_replace_does_not_carry_a_cached_property(self):
        grid = Grid(1, 4, 2)
        H = HamiltonianSpec(grid, ScalarField.constant(grid, 1.0), 0.5, 0.25)
        H.diagonal
        assert np.all(replace(H, eta=1.25).diagonal == H.diagonal + 1.0)

    def test_asdict_is_in_field_order(self):
        assert asdict(Point(1, 2)) == {"x": 1, "y": 2, "label": "p"}
        assert list(asdict(Grid(1, 8, 20))) == ["d", "L", "m", "bc"]

    @pytest.mark.parametrize("record", [
        GapStatistic(gap=7, censored=False),
        EtaRow(eta=1e-3, sup_diff=0.5, sup_grad_diff=0.25, ratio_to_eta=500.0),
        Grid(2, 8, 20, "periodic"),
        sample_omega(bernoulli(0.5), (6,), 101, 1),
    ], ids=lambda r: type(r).__name__)
    def test_pickle_round_trip(self, record):
        # records such as GapStatistic and EtaRow cross the pool's pipe
        back = pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(back) is type(record) and repr(back) == repr(record)
        with pytest.raises(AttributeError):
            back.law = None


def manifest_records():
    """Records whose asdict goes into a manifest, as the runs make them."""
    distances = np.arange(1.0, 9.0)
    curve = MomentCurve(distances=distances, values=np.exp(-0.3 * distances),
                        ci=np.full(8, 0.01))
    return [fit_exponential_decay(curve, 2.0, 7.0),
            energy_report([(1.0, 2.0), (1.5, 2.5), (0.9, 2.1)]),
            anchoring_experiment_1d(bernoulli(0.5), 32, 0.5, 5, 101),
            gap_statistic_1d(sample_omega(bernoulli(0.5), (32,), 101, 0), 0.5)]


@pytest.mark.parametrize("record", manifest_records(), ids=lambda r: type(r).__name__)
def test_asdict_matches_dataclasses(record):
    twin = dataclasses.make_dataclass(type(record).__name__, record._fields, frozen=True)
    expected = dataclasses.asdict(twin(**{n: getattr(record, n) for n in record._fields}))
    assert json.dumps(asdict(record)) == json.dumps(expected)
    assert list(asdict(record)) == list(expected)
