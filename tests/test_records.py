"""The plain records of ``oil_config.Record``: the repr, equality, hash and
copy semantics that callers rely on."""

from __future__ import annotations

import pytest

from helpers import MINI_OIL, MINI_TSK, make_app
from osekcheck import conformance, explorer, ltl
from osekcheck.explorer import Choice
from osekcheck.ltl import (And, BuchiEdge, FalseF, Future, Globally, Next,
                           Not, Or, Prop, Release, TrueF, Until)
from osekcheck.model import Call, TransitionLabel
from osekcheck.oil_config import KernelConfig, TaskDef


def test_repr_has_the_dataclass_format():
    p = Prop("set", ("T", "E"))
    assert repr(p) == "Prop(name='set', args=('T', 'E'))"
    assert repr(BuchiEdge(((p, True), (Prop("q"), False)), 3)) == (
        "BuchiEdge(guard=((Prop(name='set', args=('T', 'E')), True), "
        "(Prop(name='q', args=()), False)), dst=3)")
    assert repr(Choice(("A1", "A2"))) == "Choice(order=('A1', 'A2'))"
    assert repr(TrueF()) == "TrueF()"


def test_formula_classes_are_never_equal_to_each_other():
    p, q = Prop("p"), Prop("q")
    unary = [Not(p), Next(p), Future(p), Globally(p)]
    binary = [And(p, q), Or(p, q), Until(p, q), Release(p, q)]
    for group in (unary, binary, [TrueF(), FalseF()]):
        for i, left in enumerate(group):
            for j, right in enumerate(group):
                assert (left == right) == (i == j)
    assert Not(Prop("p")) == Not(p) and hash(Not(Prop("p"))) == hash(Not(p))
    assert Until(p, q) != Until(q, p)


def test_hash_is_the_hash_of_the_compared_fields():
    order = ("A1", "A2")
    assert hash(Choice(order)) == hash((order,))
    assert hash(Prop("p", (1,))) == hash(("p", (1,)))
    assert hash(TrueF()) == hash(())
    call = Call("T", "ActivateTask", ("U",), "E_OK")
    label = TransitionLabel("service", (call,), 5, None, "x")
    assert hash(label) == hash(("service", (call,), None, "x"))


def test_choices_equal_only_each_other():
    order = ("A1", "A2")
    assert Choice(order) == Choice(("A1", "A2")) and \
        not Choice(order) != Choice(order)
    assert Choice(order) != Choice(("A2", "A1"))
    # a tuple of the compared fields hashes alike, but is not equal
    for other in ((order,), order):
        assert Choice(order) != other and other != Choice(order)
        assert not Choice(order) == other and not other == Choice(order)
    assert Choice(order) not in {(order,)}


def test_label_amount_is_left_out_of_equality():
    idle = TransitionLabel(kind="time", amount=1, reason="idle")
    longer = TransitionLabel(kind="time", amount=7, reason="idle")
    assert idle == longer and hash(idle) == hash(longer)
    assert "amount=7" in repr(longer)
    assert idle != TransitionLabel(kind="time", amount=1, reason="loop")


def test_graphs_that_differ_only_in_steps_are_equal():
    config, bodies = make_app(MINI_OIL, MINI_TSK)
    graph = explorer.build_graph(config, bodies)
    again = explorer.build_graph(config, bodies)
    assert graph.steps is not again.steps
    graph.trace_to(max(graph.nodes))
    assert graph.steps and not again.steps
    assert graph == again
    assert "steps" not in repr(graph)


def test_mutable_defaults_are_fresh_per_record():
    first, second = KernelConfig(), KernelConfig()
    for name in ("tasks", "counters", "alarms", "resources"):
        assert getattr(first, name) == {}
        assert getattr(first, name) is not getattr(second, name)
    first.tasks["A"] = TaskDef("A", 1)
    assert second.tasks == {}


def test_replace_returns_a_changed_copy():
    task = TaskDef("A", 1, autostart=True)
    raised = task._replace(priority=3)
    assert raised == TaskDef("A", 3, autostart=True)
    assert task == TaskDef("A", 1, autostart=True)
    assert task.priority == 1 and raised.events is task.events
    with pytest.raises(TypeError):
        task._replace(colour="red")


def test_unfrozen_records_are_unhashable():
    config, bodies = make_app(MINI_OIL, MINI_TSK)
    graph = explorer.build_graph(config, bodies)
    records = [graph, explorer.search_final(config, bodies),
               ltl.to_buchi(Globally(Prop("deadlocked"))),
               ltl.LtlResult("holds"),
               conformance.PropertyResult("DF", "pass")]
    for record in records:
        with pytest.raises(TypeError):
            hash(record)


def test_constructor_checks_its_arguments():
    assert TaskDef(id="A", priority=1) == TaskDef("A", 1)
    for args, kwargs in [((), {"id": "A"}), (("A", 1), {"id": "B"}),
                         (("A", 1), {"colour": "red"}),
                         (("A", 1, "FULL", False, 1, frozenset(),
                           frozenset(), "extra"), {})]:
        with pytest.raises(TypeError):
            TaskDef(*args, **kwargs)
