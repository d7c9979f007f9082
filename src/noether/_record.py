"""Frozen record classes, built without `dataclasses`.

`@record` turns the annotated class attributes into fields, the way
`@dataclass(frozen=True)` does, and keeps its behaviour where the package
relies on it: positional or keyword `__init__` with defaults and
`default_factory`, then `__post_init__`; `__eq__` and `__hash__` over the
tuple of compared fields; a `Name(f=..., ...)` repr; FrozenInstanceError on
assignment.  It does not import `dataclasses`, which loads `inspect`, `ast`,
`dis` and `tokenize`, and it compiles one generated source per class where
`dataclasses` compiles one per method; every CLI process pays both at import.

Annotations are read through `cls.__annotations__`, which from Python 3.10
holds the class's own annotations only, and which Python 3.14 fills from a
module that does not postpone evaluation.  A `ClassVar[...]` annotation is
recognised by its text, a string under postponed evaluation and the
`typing.ClassVar[...]` object otherwise.
"""

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """A field of a record was assigned or deleted."""


class _Field:
    __slots__ = ("name", "default", "default_factory", "compare")

    def __init__(self, default=_MISSING, default_factory=_MISSING, compare=True):
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.compare = compare


def field(*, default_factory=_MISSING, compare=True) -> _Field:
    """A field made fresh by `default_factory()` when not given, or one left
    out of `==`, `hash` and the repr (`compare=False`)."""
    return _Field(default_factory=default_factory, compare=compare)


def fields(cls_or_record) -> tuple:
    """The fields in `__init__` order, inherited ones first; each has `.name`."""
    return cls_or_record.__record_fields__


def replace(obj, **changes):
    """A copy of `obj` with `changes`; TypeError on a name that is not a field."""
    current = {f.name: getattr(obj, f.name) for f in obj.__record_fields__}
    unknown = sorted(changes.keys() - current.keys())
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no field {', '.join(unknown)}")
    return type(obj)(**{**current, **changes})


def _repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__ if f.compare)
    return f"{type(self).__qualname__}({shown})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record of its annotated fields."""
    found = {f.name: f for f in getattr(cls, "__record_fields__", ())}
    for name, annotation in cls.__annotations__.items():
        if str(annotation).startswith(("ClassVar", "typing.ClassVar")):
            continue
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            delattr(cls, name)
        else:
            value = _Field(default=value)
        value.name = name
        found[name] = value
    namespace = {"_MISSING": _MISSING, "_set": object.__setattr__}
    params, body = [], []
    for f in found.values():
        value = f.name
        if f.default_factory is not _MISSING:
            namespace[f"_f_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_MISSING")
            value = f"_f_{f.name}() if {f.name} is _MISSING else {f.name}"
        elif f.default is not _MISSING:
            namespace[f"_d_{f.name}"] = f.default
            params.append(f"{f.name}=_d_{f.name}")
        else:
            params.append(f.name)
        body.append(f"    _set(self, '{f.name}', {value})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    compared = [f.name for f in found.values() if f.compare]
    mine, theirs = ("".join(f"{who}.{name}," for name in compared) for who in ("self", "other"))
    source = "\n".join(
        [f"def __init__(self, {', '.join(params)}):", *(body or ["    pass"])]
        + [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({mine}))",
        ]
    )
    exec(source, namespace)
    cls.__record_fields__ = tuple(found.values())
    for name in ("__init__", "__eq__", "__hash__"):
        setattr(cls, name, namespace[name])
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    return cls
