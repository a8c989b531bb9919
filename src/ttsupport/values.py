"""Immutable values: the one way the package keeps a derived fact, in the
object's _cache or, for a record, in a derived slot."""

from operator import attrgetter


class Immutable:
    """The base of every object the package hands out but an exception:
    posets, spaces, frames, modules, complexes and records (frame homs,
    nuclei, assemblies, support data, eta results, symbolic complexes, and
    through ``Record`` the rings and the answer records).  Each takes its
    fields once, in the constructor, and refuses reassignment afterwards.
    Matrices are tuples of row tuples and dicts read-only views of a private
    copy, so nothing handed out can be edited either; each answer derived
    from the fields is computed once and kept in _cache.

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


class derived(property):
    """A fact of a ``Record`` derived from its fields: the decorated method
    runs on the first read, and its value is kept in a slot of the same
    name, so that every later read is a plain slot read."""


def _derive(record, name):
    """The __getattr__ of a record class with derived facts, called only when
    the ordinary lookup fails: on a fact's first read, while its slot is
    empty.  Other classes get none, as it slows every attribute read."""
    compute = record._derived.get(name)
    if compute is None:
        raise AttributeError("%r object has no attribute %r" % (type(record).__name__, name))
    value = compute(record)
    object.__setattr__(record, name, value)
    return value


def _comparisons(get, single):
    """__eq__ and __hash__ of a record class whose field values get reads:
    an attrgetter, which gives the bare value when there is a single field.
    Each is a closure over get, so a comparison reads no class attribute."""

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return get(self) == get(other)

    def __hash__(self):
        return hash((get(self),) if single else get(self))

    return __eq__, __hash__


class _RecordType(type):
    """Gives each Record class its fields (the names in its ``__slots__``),
    a slot for each of its derived facts, and its ``__eq__`` and
    ``__hash__``."""

    def __new__(mcs, name, bases, namespace):
        facts = {k: v.fget for k, v in namespace.items() if isinstance(v, derived)}
        own = tuple(namespace.get("__slots__", ()))
        body = {k: v for k, v in namespace.items() if k not in facts}
        cls = super().__new__(mcs, name, bases, body | {"__slots__": own + tuple(facts)})
        cls._derived = cls._derived | facts
        if cls._derived:
            cls.__getattr__ = _derive
        if own:
            cls._fields = fields = cls._fields + own
            cls.__eq__, cls.__hash__ = _comparisons(attrgetter(*fields), len(fields) == 1)
        return cls


class Record(Immutable, metaclass=_RecordType):
    """An Immutable that is its fields, as a frozen dataclass is: the rings
    and the answer records (canonical modules, residue outcomes, Hom/Ext
    results, spectra and support descriptors).  The class lists its fields
    in ``__slots__``, and its constructor validates them and ends in
    ``_freeze``.  Two records are equal when they have the same class and
    equal fields, the hash is that of the tuple of fields, and the repr is
    ``Name(field=value, ...)``.  A ``derived`` fact sits in a slot beside
    the fields, so it is neither compared nor hashed; its first read fills
    the slot.  Records are not assembled: ``_with`` would copy every slot,
    derived facts included, into a record whose fields changed, while
    pickle and copy rebuild a record through its constructor."""

    __slots__ = ()
    _fields = ()
    _derived = {}  # slot name -> the method that derives its value

    def _freeze(self, **fields):
        # a record keeps its derived facts in slots, so it takes no _cache
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # pickle and copy rebuild a record through its constructor
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )

