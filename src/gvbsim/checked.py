"""Checked value types: `@checked` on a `typing.NamedTuple` that defines
`_check()` runs the check on every construction, positional, keyword,
`_make` or `_replace`, so no instance breaks its type's rules; fields
cannot be assigned."""
from __future__ import annotations


class Checked:
    """The mixin `checked` puts in front of a NamedTuple, which takes no
    other base in its own class statement."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = cls._unchecked_new(cls, *args, **kwargs)  # faster than super() here
        self._check()
        return self

    @classmethod
    def _make(cls, values):  # `_replace` builds its copy here
        return cls(*values)


def checked(cls: type) -> type:
    """`cls`, a NamedTuple with a `_check()`, behind the `Checked` mixin."""
    namespace = {
        "__slots__": (), "__module__": cls.__module__, "__doc__": cls.__doc__,
        "_unchecked_new": cls.__new__,  # the NamedTuple's own, with its defaults
    }
    return type(cls.__name__, (Checked, cls), namespace)
