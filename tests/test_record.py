"""`noether._record` against `dataclasses`, and the package's records."""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import ClassVar

import pytest

from noether import _record, harness, plans, relational, zoo
from noether._rng import Generator
from noether.derive import construct_mp
from noether.mutate import DEFAULT_MATRIX
from noether.reachability import check_reachability

SEED = 20260816


def _classes(decorate, field, fields, hidden):
    """A base and a subclass using every record feature the package uses,
    built with one implementation's decorator and field helpers."""

    @decorate
    class Base:
        KIND: ClassVar[str] = "base"

        name: str
        size: int = 1
        notes: dict = hidden()

    @decorate
    class Item(Base):
        KIND: ClassVar[str] = "item"

        tags: frozenset = field(default_factory=frozenset)
        label: str = " x "

        def __post_init__(self):
            object.__setattr__(self, "label", self.label.strip())
            object.__setattr__(self, "tags", frozenset(self.tags))

        @functools.cached_property
        def total(self):
            return self.size * 2

    return Base, Item, lambda cls: [f.name for f in fields(cls)]


STDLIB = _classes(
    lambda cls: dataclasses.dataclass(frozen=True)(cls),
    dataclasses.field,
    dataclasses.fields,
    lambda: dataclasses.field(default_factory=dict, compare=False, repr=False),
)
RECORD = _classes(
    _record.record,
    _record.field,
    _record.fields,
    lambda: _record.field(default_factory=dict, compare=False),
)
CASES = [
    ("Base", ("a",), {}),
    ("Base", ("a", 3), {"notes": {"k": 1}}),
    ("Item", ("a",), {}),
    ("Item", ("b", 2), {"tags": ["t", "u"], "label": " y"}),
    ("Item", (), {"name": "c", "label": "z", "size": 0}),
]


def _build(impl, case):
    base, item, _ = impl
    cls_name, args, kwargs = case
    return (base if cls_name == "Base" else item)(*args, **kwargs)


class TestAgainstDataclasses:
    def test_field_order(self):
        (s_base, s_item, s_names), (r_base, r_item, r_names) = STDLIB, RECORD
        assert r_names(r_base) == s_names(s_base) == ["name", "size", "notes"]
        assert r_names(r_item) == s_names(s_item) == ["name", "size", "notes", "tags", "label"]

    @pytest.mark.parametrize("case", CASES)
    def test_repr_hash_and_cached_property(self, case):
        s, r = _build(STDLIB, case), _build(RECORD, case)
        assert repr(r) == repr(s)
        assert hash(r) == hash(s)
        assert r.KIND == s.KIND
        if case[0] == "Item":
            assert r.total == s.total == r.size * 2
            assert "total" in vars(r)

    def test_equality(self):
        for i, a in enumerate(CASES):
            for b in CASES[i:]:
                got = _build(RECORD, a) == _build(RECORD, b)
                assert got == (_build(STDLIB, a) == _build(STDLIB, b)), (a, b)
        # a field out of the comparison; another class with equal fields
        assert _build(RECORD, CASES[0]) == RECORD[0]("a", notes={"other": 2})
        assert RECORD[0]("a") != RECORD[1]("a")
        assert RECORD[0]("a").__eq__(("a", 1)) is NotImplemented

    def test_default_factory_makes_a_fresh_value(self):
        a, b = RECORD[0]("a"), RECORD[0]("a")
        assert a.notes == {} and a.notes is not b.notes

    @pytest.mark.parametrize(
        "changes", ({"size": 5}, {"label": " w "}, {"tags": ("v",)}, {"sample_budget": 20}, {"KIND": "x"})
    )
    def test_replace(self, changes):
        s, r = _build(STDLIB, CASES[3]), _build(RECORD, CASES[3])
        if changes.keys() <= {"size", "label", "tags"}:
            assert repr(_record.replace(r, **changes)) == repr(dataclasses.replace(s, **changes))
            return
        with pytest.raises(TypeError):
            dataclasses.replace(s, **changes)
        with pytest.raises(TypeError, match="Item has no field"):
            _record.replace(r, **changes)

    @pytest.mark.parametrize("name", ("name", "tags", "notes", "other"))
    def test_assignment_and_deletion_raise(self, name):
        s, r = _build(STDLIB, CASES[2]), _build(RECORD, CASES[2])
        for act in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as s_info:
                act(s)
            with pytest.raises(_record.FrozenInstanceError) as r_info:
                act(r)
            assert str(r_info.value) == str(s_info.value)
        assert issubclass(_record.FrozenInstanceError, AttributeError)

    def test_wrong_arguments_are_type_errors(self):
        for impl in (STDLIB, RECORD):
            for args, kwargs in (((), {}), (("a", 1, {}, (), "x", "extra"), {}), (("a",), {"name": "b"})):
                with pytest.raises(TypeError):
                    impl[1](*args, **kwargs)


def test_annotations_evaluated_without_postponement():
    # no `from __future__ import annotations` here: the annotations are objects,
    # and Python 3.14 keeps them behind `__annotate__` until they are read
    namespace = {"record": _record.record}
    exec(
        "from typing import ClassVar\n"
        "@record\n"
        "class Point:\n"
        "    ORIGIN: ClassVar[int] = 0\n"
        "    x: int\n"
        "    y: float = 0.5\n",
        namespace,
    )
    point = namespace["Point"]
    assert [f.name for f in _record.fields(point)] == ["x", "y"]
    assert repr(point(1)) == "Point(x=1, y=0.5)"


def _records_in(obj, found, seen):
    """Collect one instance per record class reachable from `obj`."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (tuple, list, set, frozenset)):
        for x in obj:
            _records_in(x, found, seen)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _records_in(k, found, seen)
            _records_in(v, found, seen)
    elif "__record_fields__" in type(obj).__dict__:
        found.setdefault(type(obj), obj)
        for f in _record.fields(obj):
            _records_in(getattr(obj, f.name), found, seen)


def _package_records():
    return {
        cls
        for name, module in sys.modules.items()
        if name.startswith("noether.")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name and "__record_fields__" in cls.__dict__
    }


def test_every_package_record_hashes_as_the_tuple_of_its_compared_fields():
    algebras = [zoo.load_algebra(name) for name in zoo.BUNDLED_ALGEBRAS]
    descriptors = [zoo.load_descriptor(name) for name in ("rho_rot", "rho_mono")]
    decls = zoo.load_zoo()
    mrs = harness.build_standard_mrs(decls)
    db = relational.gen_database(SEED)
    roots = [
        algebras,
        [alg.blocks for alg in algebras],
        [construct_mp(alg) for alg in algebras],
        # a pattern stores its block's names and builds its invariants and
        # templates on read
        [p.templates for alg in algebras for p in construct_mp(alg)],
        descriptors,
        [check_reachability(d, algebras[0]) for d in descriptors],
        mrs,
        [harness.generate_tuples(mr, SEED)[:1] for mr in mrs],
        harness.check_mr(mrs[0], lambda *args: 0.0, harness.generate_tuples(mrs[0], SEED)),
        harness.run_blindness_experiment(zoo.load_mutator_config()),
        DEFAULT_MATRIX,
        zoo.load_mutator_config(),
        zoo.SUT_G_ACTIONS,
        zoo.SUT_ORDER_SPECS,
        relational.CORRECT,
        db,
        plans.parse_pattern("distinct(select(p,R))"),
        relational.run_rel_trial("rho_select-push", db, Generator(SEED), relational.bundled_rules(), relational.CORRECT, {}),
    ]
    found = {}
    _records_in(roots, found, set())
    # every record the package defines, bar the abstract base of the MR types
    assert set(found) == _package_records() - {harness.ExecutableMR}
    for cls, obj in found.items():
        compared = tuple(getattr(obj, f.name) for f in _record.fields(obj) if f.compare)
        try:
            expected = hash(compared)
        except TypeError:  # a field holds a dict or a Counter
            with pytest.raises(TypeError):
                hash(obj)
            continue
        assert hash(obj) == expected, cls.__qualname__
