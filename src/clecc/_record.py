"""Base classes of the library's small record types.

A record names its fields in ``__slots__`` and its constructor takes
them in that order, setting them through ``_set_fields``.  Two records
are equal when they are of the same class and their fields are equal;
``repr`` shows ``Name(field=value, ...)``, a class pattern binds the
fields by position, and copies and pickles rebuild a record by calling
its constructor on its fields.  This is what ``dataclasses`` would
generate, without importing it and the modules it pulls in when a
command starts.

``Record`` is mutable and unhashable.  ``FrozenRecord`` refuses
assignment and hashes as the tuple of its fields.
"""

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Mutable record: field-wise ``==`` within one class, unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__  # ``case MinSize(k):`` binds k

    def _set_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._fields()


class FrozenRecord(Record):
    """Immutable record, hashed as the tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
