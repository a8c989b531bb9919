"""Immutable values: the one way the package keeps a derived fact."""


class Immutable:
    """The base of every object the package hands out but a frozen
    dataclass or an exception: posets, spaces, frames, modules, complexes
    and records (frame homs, nuclei, assemblies, support data, eta results,
    symbolic complexes).  Each takes its fields once, in the constructor,
    and refuses reassignment afterwards.  Matrices are tuples of row tuples
    and dicts read-only views of a private copy, so nothing handed out can
    be edited either; each answer derived from the fields is computed once
    and kept in _cache.

    The constructor parses and validates outside input, then hands the
    frozen fields to ``_freeze``.  Sums, shifts, certified cones and Hom
    complexes, localizations and ring changes of valid objects are valid by
    construction, so ``_assembled`` and ``_with`` skip the constructor."""

    __slots__ = ("_cache",)

    @classmethod
    def _assembled(cls, **fields):
        """An instance holding the given frozen, already proved fields."""
        obj = cls.__new__(cls)
        obj._freeze(**fields)
        return obj

    def _with(self, **fields):
        """self assembled again with the given fields replaced."""
        return self._assembled(**{f: getattr(self, f) for f in self.__slots__} | fields)

    def _freeze(self, **fields):
        object.__setattr__(self, "_cache", {})
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _cached(self, key, compute):
        """compute(), computed on the first call with this key only."""
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]
