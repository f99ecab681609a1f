"""Immutable value classes declared without generated code.

A subclass of :class:`Frozen` names its fields in ``_fields`` and stores
them in its own ``__init__`` (with ``_set_fields``, or with
``object.__setattr__`` where arithmetic builds many instances).  It then
behaves as a frozen value: assigning or deleting an attribute raises
``AttributeError``; ``==`` compares the fields of two instances of the
same class, ``hash`` hashes them, and the repr reads ``Name(field=value,
...)``.  Values kept outside ``_fields`` take no part in any of these,
nor in copies and pickles, which rebuild through ``__init__``: a table
derived in ``__init__``, a ``cached_property``, and the slots that
other modules fill, all through :func:`_kept`.

Defining such a class generates and executes no code, so importing the
package stays cheap.  Records without validation, coercion or caches are
``typing.NamedTuple`` classes instead.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Hashable


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the fields as one tuple (the lone value for a single field)
        cls._key = attrgetter(*cls._fields)
        cls.__match_args__ = cls._fields

    def _set_fields(self, *values: object) -> None:
        """Store ``values`` as the fields, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # ``__init__`` takes the fields in order, so copies rebuild through it
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def _kept(owner: object, slot: str, compute: Callable[[], Any], key: Hashable = None) -> Any:
    """``owner``'s slot ``slot``, or with a ``key`` its table's entry at
    ``key``, filled by ``compute()`` while empty.  A table keeps None (a
    singular matrix); a single slot does not (a refused certificate).
    """
    kept = vars(owner)
    if key is not None:
        kept, slot = kept.setdefault(slot, {}), key
    if slot in kept:
        return kept[slot]
    value = compute()
    if value is not None or key is not None:
        kept[slot] = value
    return value
