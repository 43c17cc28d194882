"""Numerical laboratory for the landscape function of random Schrodinger operators."""

__version__ = "0.1.0"

# Shared by the library and the CLI's key tables, and kept here so that
# reading them loads no solver module
MAX_NODES = 1 << 24     # memory budget guard: nodes of a grid, sites of a box
DEFAULT_TOL = 1e-9      # relative residual a solve stops at unless given another


_NO_DEFAULT = object()


class Record:
    """Base of the package's frozen records.

    A subclass's annotated class-body names are its fields, in order, and a
    value assigned to one is its default; they are read at class creation,
    with no exec or compile.  One __init__ takes the fields positionally or by
    keyword, fills in the defaults, then runs __post_init__, which may still
    set a field with object.__setattr__.  Instances keep a __dict__ (so a
    cached_property works), refuse assignment and deletion, and compare, hash
    and print field by field.
    """

    _fields = {}    # field name -> its default or _NO_DEFAULT, in field order

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__dict__.get("__annotations__", {})
        cls._fields = {**cls._fields, **{n: getattr(cls, n, _NO_DEFAULT) for n in names}}

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        values.update(zip(fields, args))
        values.update(kwargs)
        # fewer names than arguments: one given twice, or more positional than fields
        if len(values) != len(args) + len(kwargs) or not values.keys() <= fields.keys():
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}; "
                            f"got {len(args)} positional and the keywords {sorted(kwargs)}")
        if len(values) < len(fields):
            for name, default in fields.items():
                if name not in values:
                    if default is _NO_DEFAULT:
                        raise TypeError(f"{type(self).__name__} is missing its field {name!r}")
                    values[name] = default
        self.__post_init__()

    def __post_init__(self):
        """Validate or normalize the fields; a subclass overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def asdict(record: Record) -> dict:
    """Field name -> value, in field order; the values are not copied."""
    return dict(zip(record._fields, record._values()))


def replace(record: Record, **changes) -> Record:
    """A new record of record's class with changes to some fields, built (and so
    validated) again by its __init__ and __post_init__."""
    return type(record)(**{**asdict(record), **changes})
