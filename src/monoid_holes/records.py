"""Immutable records: the base class of the package's value types.

A subclass lists its fields as annotations, in order, after those of
its base; names starting with "_" are not fields, and a class attribute
of a field's name is its default.  Instances compare, hash and print by their field values, and
refuse assignment and deletion.  The methods here are generic and no
code is generated per class, so declaring a record costs one
__init_subclass__ call at import.  Private state (a cached_property, a
memo) lives in the instance __dict__, outside ==, hash and repr.

Fields are written with object.__setattr__ and read as attributes, never
through self.__dict__: asking for an instance's __dict__ turns its
compact attribute storage into a real dict, and attribute reads on it
then take about twice as long (CPython 3.11).
"""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _post_init = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a subclass keeps its base's fields, defaults and __post_init__,
        # and appends its own fields after them, as a dataclass would
        annotations = cls.__dict__.get("__annotations__", {})
        own = tuple(name for name in annotations if not name.startswith("_") and name not in cls._fields)
        cls._fields = cls._fields + own
        own_defaults = {name: cls.__dict__[name] for name in annotations if name in cls._fields and name in cls.__dict__}
        cls._defaults = {**cls._defaults, **own_defaults}
        cls._post_init = getattr(cls, "__post_init__", None)
        # one C call reads every field; for a single name it gives the bare value
        get = attrgetter(*cls._fields) if cls._fields else (lambda self: ())
        cls._values = (lambda self: (get(self),)) if len(cls._fields) == 1 else (lambda self: get(self))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        if self._post_init is not None:
            self._post_init()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The field values in order, from arguments as a def would take them."""
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} arguments but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for key, value in kwargs.items():
            if key not in cls._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [key for key in cls._fields if key not in values and key not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(map(repr, missing))}")
        return tuple(values[key] if key in values else cls._defaults[key] for key in cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
