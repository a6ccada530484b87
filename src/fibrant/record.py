"""Record classes over ``__slots__``.

A ``Record`` compares field-wise, its fields being its class's
``__slots__`` in order, and is unhashable, as its fields may change.  A
``Value`` cannot change once built: it hashes field-wise, assigning or
deleting a field raises ``AttributeError``, and its ``__init__`` stores
the fields with ``_store``.  ``JsonDict`` and ``JsonList`` hold the JSON
data of a value that is built once and shared: they cannot change.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class Value(Record):
    __slots__ = ()

    def _store(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__


def _read_only(self, *_args, **_kwargs):
    raise TypeError(f"{type(self).__name__} is shared and read-only; copy it to change it")


class JsonList(list):
    """A list of JSON data that cannot change, inside a ``JsonDict``; a
    copy of it is a plain list."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce__(self):
        return list, (list(self),)


class JsonDict(dict):
    """The JSON data of a ``Value``, built once per process and shared, so
    it cannot change; ``texts`` holds its rendered text by indent, filled
    by the writer on first use.  A copy of it is a plain dict."""

    __slots__ = ("texts",)
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __init__(self, items):
        dict.__init__(self, items)
        self.texts = {}

    def __reduce__(self):
        return dict, (dict(self),)
