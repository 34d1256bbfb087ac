"""The immutable value object that the package's parameter, share,
report, matrix and vector classes build on.

A subclass names its attributes once, as ``__slots__ = _fields = (...)``,
and sets them in its own ``__init__`` through ``_set``. Equality, hashing,
the repr and pickling then all run over ``_fields``, in that order.
"""

from operator import attrgetter

_set = object.__setattr__


class _Value:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuild through __init__: slot state cannot be restored by
        # assignment, and every subclass takes its fields in this order.
        return type(self), tuple(getattr(self, name) for name in self._fields)
