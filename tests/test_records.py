import dataclasses
from dataclasses import FrozenInstanceError, field

import pytest

from angiosim.records import record


def _sample(decorate):
    # the same class body under either decorator
    @decorate
    class Sample:
        """A record with every kind of field the package uses."""

        a: int
        b: float = 2.0
        tags: list = field(default_factory=list, hash=False)
        hidden: str = field(default="h", repr=False)
        loose: float = field(default=0.0, compare=False)
        total: float = field(init=False, default=-1.0)
        made: dict = field(init=False, default_factory=dict, compare=False)
        late: float = field(init=False, repr=False)

        def __post_init__(self):
            # every other field is set by now, init=False ones included
            self.made["seen"] = (self.a, self.b, list(self.tags), self.total)
            object.__setattr__(self, "late", self.a + self.b)

    return Sample


FLAGS = [(True, True), (True, False), (False, True), (False, False)]


@pytest.fixture(params=FLAGS, ids=lambda f: "frozen={},eq={}".format(*f))
def pair(request):
    frozen, eq = request.param
    return (_sample(record(frozen=frozen, eq=eq)),
            _sample(dataclasses.dataclass(frozen=frozen, eq=eq)), frozen, eq)


def test_record_builds_instances_as_dataclass_does(pair):
    ours, std = pair[:2]
    x, y = ours(1, tags=[3]), std(1, tags=[3])
    assert vars(x) == vars(y)
    assert x.total == y.total == -1.0 and "total" not in vars(x)  # the class default
    assert x.made == {"seen": (1, 2.0, [3], -1.0)} and x.late == 3.0
    assert repr(x) == repr(y) and "hidden" not in repr(x) and "late" not in repr(x)
    # a fresh default_factory value per instance
    p, q = ours(1), ours(1)
    assert p.tags == [] and p.tags is not q.tags and p.made is not q.made
    for cls in (ours, std):
        for args, kwargs in [((), {}), ((1, 2.0, [], "h", 0.0, 9), {}), ((1,), {"a": 1}),
                             ((1,), {"total": 0.0}), ((1,), {"nope": 0})]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_record_compares_and_hashes_as_dataclass_does(pair):
    ours, std, frozen, eq = pair
    for cls in (ours, std):
        one = cls(1)
        assert one == one and cls(2) != one
        assert (cls(1) == one) is eq and (cls(1, loose=5.0) == one) is eq
        if eq and frozen:
            assert hash(cls(1, tags=[4])) == hash(one)
        elif eq:
            assert cls.__hash__ is None
        else:
            assert hash(one) == object.__hash__(one)
    assert ours(1) != std(1)  # records of different classes
    if eq and frozen:
        assert hash(ours(1)) == hash(std(1))


def test_record_keeps_the_dataclasses_functions(pair):
    ours, std = pair[:2]

    def table(cls):
        return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.compare, f.hash)
                for f in dataclasses.fields(cls)]

    assert dataclasses.is_dataclass(ours) and table(ours) == table(std)
    x, y = ours(1, tags=[3]), std(1, tags=[3])
    assert dataclasses.asdict(x) == dataclasses.asdict(y)
    moved = dataclasses.replace(x, b=5.0)
    assert type(moved) is ours and vars(moved) == vars(dataclasses.replace(y, b=5.0))
    assert moved.made["seen"] == (1, 5.0, [3], -1.0)
    for obj in (x, y):
        with pytest.raises(ValueError):
            dataclasses.replace(obj, total=0.0)  # an init=False field


def test_record_freezes_as_dataclass_does(pair):
    ours, std, frozen = pair[:3]
    for obj in (ours(1), std(1)):
        if frozen:
            with pytest.raises(FrozenInstanceError, match="assign to field 'a'"):
                obj.a = 2
            with pytest.raises(FrozenInstanceError, match="delete field 'a'"):
                del obj.a
            with pytest.raises(FrozenInstanceError):
                obj.other = 2  # not a field either
        else:
            obj.a = 2
            del obj.b
            assert obj.a == 2 and obj.b == 2.0  # back to the class default


def test_record_keeps_methods_the_class_defines():
    @record(frozen=True)
    class Named:
        x: int

        def __repr__(self):
            return "named"

    assert repr(Named(1)) == "named" and Named(1) == Named(1)


def test_record_of_one_field_compares_a_tuple_as_dataclass_does():
    # a 1-tuple compares its item by identity first, so nan equals itself
    def one(decorate):
        @decorate
        class One:
            x: float

        return One

    nan = float("nan")
    for cls in (one(record(frozen=True)), one(dataclasses.dataclass(frozen=True))):
        assert cls(nan) == cls(nan) and hash(cls(2.0)) == hash((2.0,))
