"""The frozen value class of the records that are not ``typing.NamedTuple``s:
those whose fields a trace reads on every row (a slot read costs about a
third of a NamedTuple field read), and those with private state."""

from typing import Any, Dict, Tuple


class Record:
    """A frozen value made of its ``_fields``, in order: it is compared,
    hashed, shown and copied by them, and assigning or deleting an attribute
    raises ``AttributeError``.  A subclass names its fields in ``_fields`` and
    ``__slots__``, and its ``__init__`` passes them, in order, to ``_set_fields``.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the setter of each field's slot, which skips the raising __setattr__;
        # a class whose fields live in its __dict__, as the snapshot's do, has none
        slots = vars(cls)
        cls._setters = tuple(slots[name].__set__ for name in cls._fields if name in slots)

    def _set_fields(self, *values: Any) -> None:
        for setter, value in zip(self._setters, values, strict=True):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> Dict[str, Any]:
        return dict(zip(self._fields, self._values()))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle would restore each slot through the raising __setattr__
        return type(self), self._values()
