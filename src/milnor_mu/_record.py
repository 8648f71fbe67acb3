"""The immutable base class of the package's value records."""

from operator import attrgetter


class Record:
    """An immutable value whose fields are its ``__slots__``.

    A subclass names its fields in ``__slots__``, in order, and sets each of
    them once in its own ``__init__`` with ``object.__setattr__``.  It then
    behaves as a frozen dataclass: it equals only an instance of its exact
    class with equal fields, hashes by its fields, reprs as
    ``Name(field=value, ...)``, refuses assignment and deletion, and pickles
    and copies by calling its constructor with its field values.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # one field gives its value, several a tuple: either serves == and hash
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
