"""Frozen records compared by value, without the dataclasses module.

A record class names its fields once, in order, in __slots__ ("__dict__"
there is storage for cached properties, not a field).  Record gives it what
@dataclass(frozen=True) gave: an __init__ taking the fields by position or
keyword, assignment and deletion that raise AttributeError, == and hash over
the fields (== only between records of one class), the dataclass repr, and
replace(**changes).  A record that checks or normalises its input defines
__init__ itself and ends with super().__init__ on the checked values;
replace builds the new record through that __init__, so every check runs
again and no cached property is carried over.
"""

from operator import attrgetter

__all__ = ["Record"]

_set = object.__setattr__


def _bind(cls, args, kwargs):
    """The field values in order from positional and keyword arguments."""
    fields = cls._fields
    values = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields or name in values:
            raise TypeError(f"{cls.__name__} got an unexpected or repeated field {name!r}")
        values[name] = value
    if len(args) > len(fields) or len(values) < len(fields):
        raise TypeError(f"{cls.__name__} takes the fields {fields}")
    return [values[n] for n in fields]


class Record:
    __slots__ = ()
    _fields = ()  # the field names in order, set for each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._values = staticmethod(attrgetter(*cls._fields))  # a record's field values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as replace does
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def replace(self, **changes):
        """A new record with some fields changed, built through __init__."""
        values = {n: getattr(self, n) for n in self._fields}
        values.update(changes)
        return type(self)(**values)
