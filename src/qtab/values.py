"""The immutable value base of the package's record classes.

A ``Value`` subclass names its fields in ``__slots__``; its ``__init__``
makes its checks and ends in ``Value.__init__(self, *fields)``.  Two values
are equal when they are of one class with equal fields, a value hashes as the
tuple of its fields, prints as ``Name(field=value, ...)``, and no field can be
assigned once it is built.  ``parse_ints`` reads the integer lists of the
command line.
"""

from operator import attrgetter

__all__ = ["Value", "parse_ints"]


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        # one C-level read of every field for __eq__ and __hash__, which a
        # generator over the slots made several times slower; with a single
        # field it returns the bare value, which __hash__ wraps in a tuple
        cls._read = attrgetter(*cls.__slots__)
        cls._single = len(cls.__slots__) == 1
        # each slot descriptor's own setter, which skips the refusing
        # __setattr__ without the lookup object.__setattr__ makes per field
        cls._write = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for write, value in zip(self._write, values):
            write(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._read(self) == self._read(other)
        return NotImplemented

    def __hash__(self) -> int:
        fields = self._read(self)
        return hash((fields,) if self._single else fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({shown})"


def parse_ints(text: str) -> list[int]:
    """The integers of a list whose entries commas, spaces or both separate;
    blank text is the empty list.  A token that is not an integer, or an empty
    entry between commas (read as the token ""), raises ValueError."""
    if not text.strip():
        return []
    return [int(tok) for chunk in text.split(",") for tok in chunk.split() or [""]]
