"""The shared base of the package's value classes.

Each value class names its fields in a class tuple ``_fields`` and writes
one ``__init__``; ``Record`` and ``Frozen`` give it equality, ``repr`` and,
when frozen, a hash and immutability over those names.  Nothing is
generated or executed when a class is defined, so importing the package
costs only its own code.
"""

from operator import attrgetter

# writes one attribute past the frozen guard; a frozen class's __init__
# stores its attributes with it, as ``set_field(self, "name", value)``
set_field = object.__setattr__


class Record:
    """A value whose equality and ``repr`` read the attributes named in its
    class's ``_fields``, in order.

    - Equality: two values are equal when they are of the same class and
      the tuples of their fields are equal; a value of another class
      compares as ``NotImplemented``.
    - ``repr``: ``Name(field=repr(value), ...)`` over the same fields.
    - Attributes outside ``_fields``, such as derived constants and
      ``functools.cached_property`` caches, take no part in either.
    - A ``Record`` is mutable, so it is not hashable.

    Pickling and copying read and restore the instance ``__dict__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            # the tuple of a value's fields; an attrgetter of one name
            # returns the value itself
            get = attrgetter(*cls._fields)
            cls._values = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A ``Record`` that does not change once built, and so hashes: its hash
    is the hash of the tuple of its fields, and equal values hash alike.

    Writing or deleting any attribute raises
    ``dataclasses.FrozenInstanceError`` (an ``AttributeError``), imported
    when the error is raised.  An ``__init__`` stores its attributes with
    ``set_field``, past the guard, and a class with slots through its
    slots' member descriptors; ``functools.cached_property`` writes to the
    instance ``__dict__``.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
