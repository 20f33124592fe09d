"""The package's record decorator: dataclass fields, with the methods
built from closures.

dataclasses.dataclass compiles each method it generates from source with
exec, which made up much of the package's import time. record calls it
once with init, repr and eq off, so that it only builds the field table
(fields, replace, asdict and is_dataclass keep working), and then
attaches __init__, __repr__, __eq__ and __hash__, and for a frozen class
__setattr__ and __delattr__, as closures over that table. They behave
as dataclass's would for the flags frozen and eq. InitVar and kw_only
fields are not supported.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter

__all__ = ["record"]


def _values(names: tuple):
    """self -> the tuple of its attributes names."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda self: tuple(getattr(self, name) for name in names)


def record(cls=None, /, *, frozen: bool = False, eq: bool = True):
    """dataclass(cls, frozen=frozen, eq=eq), for use as a decorator."""
    if cls is None:
        return lambda c: record(c, frozen=frozen, eq=eq)
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields if f.init)
    defaults = {f.name: f for f in fields if f.init and
                (f.default is not MISSING or f.default_factory is not MISSING)}
    made = [(f.name, f.default_factory) for f in fields
            if not f.init and f.default_factory is not MISSING]
    post_init = hasattr(cls, "__post_init__")
    # not through __dict__: a dict once taken out slows every attribute read
    assign = object.__setattr__ if frozen else setattr
    where = f"{cls.__qualname__}.__init__()"

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                f = defaults[name]
                values.append(f.default if f.default_factory is MISSING else f.default_factory())
            else:
                raise TypeError(f"{where} missing 1 required positional argument: {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{where} got multiple values for argument {name!r}" if name in names
                            else f"{where} got an unexpected keyword argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            assign(self, name, value)
        for name, factory in made:
            assign(self, name, factory())
        if post_init:
            self.__post_init__()

    shown = tuple(f.name for f in fields if f.repr)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({body})"

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        compared = _values(tuple(f.name for f in fields if f.compare))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return compared(self) == compared(other)
            return NotImplemented

        methods["__eq__"] = __eq__
        # as dataclass: a mutable record that compares by value is unhashable
        hashed = _values(tuple(f.name for f in fields if (f.compare if f.hash is None else f.hash)))
        methods["__hash__"] = (lambda self: hash(hashed(self))) if frozen else None
    if frozen:
        field_names = {f.name for f in fields}

        def __setattr__(self, name, value):
            if type(self) is cls or name in field_names:
                raise FrozenInstanceError(f"cannot assign to field {name!r}")
            super(cls, self).__setattr__(name, value)

        def __delattr__(self, name):
            if type(self) is cls or name in field_names:
                raise FrozenInstanceError(f"cannot delete field {name!r}")
            super(cls, self).__delattr__(name)

        methods.update(__setattr__=__setattr__, __delattr__=__delattr__)
    for name, method in methods.items():
        if name not in cls.__dict__:
            if method is not None:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls
