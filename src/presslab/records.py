"""Frozen records without stdlib `dataclasses`, whose import loads
`inspect`, `ast` and `dis` (0.82 MB of live objects and about 12 ms in a
fresh 3.11 interpreter) and which compiles each method with `exec`.
`record` is `@dataclass(frozen=True)` as presslab uses it: fields from
the annotations with class-level defaults, `__post_init__`, `==` and
`hash` on the tuple of compared fields (an explicit `__hash__` is kept),
the dataclass repr, and no assignment or deletion, while
`functools.cached_property` still works; `fields` and `replace` too."""

from itertools import repeat
from operator import attrgetter
from types import SimpleNamespace

_set = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError("cannot assign to or delete field %r" % name)


def record(cls=None, *, uncompared=()):
    """Class decorator; the `uncompared` fields stay out of `==` and hash."""
    if cls is None:
        return lambda cls: record(cls, uncompared=uncompared)
    names = tuple(cls.__annotations__)
    count = len(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    cls.__record_fields__ = tuple(SimpleNamespace(
        name=n, compare=n not in uncompared) for n in names)
    get = attrgetter(*[n for n in names if n not in uncompared])
    key = get if count - len(uncompared) > 1 else lambda obj: (get(obj),)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            values = {**defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > count or len(values) < count \
                    or kwargs.keys() - names[len(args):]:
                raise TypeError("%s takes %s" % (cls.__name__, names))
            args = [values[n] for n in names]
        # unlike self.__dict__, this keeps the values inline in the object
        any(map(_set, repeat(self), names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in names))

    for name, method in (("__init__", __init__), ("__eq__", __eq__),
                         ("__hash__", lambda self: hash(key(self))),
                         ("__repr__", __repr__), ("__setattr__", _frozen),
                         ("__delattr__", _frozen)):
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def fields(obj):
    return obj.__record_fields__


def replace(obj, **changes):
    return obj.__class__(**{f.name: getattr(obj, f.name)
                            for f in fields(obj)} | changes)
