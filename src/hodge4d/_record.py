"""Value records of the exact layer, without the ``dataclasses`` import.

A record lists its fields, in order, as its ``__slots__`` and writes its own
``__init__``.  ``Record`` gives it what ``@dataclass`` would: equality by
fields within one class, the dataclass ``repr`` and no hash.
``FrozenRecord`` adds ``@dataclass(frozen=True)``: assignment and deletion
raise ``AttributeError``, the hash is that of the field tuple, and
``__init__`` sets its fields through ``object.__setattr__``.  Both copy and
pickle by calling the constructor on the field values.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
