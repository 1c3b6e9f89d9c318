"""Hypothesis fuzz of every frozen spec's ``from_dict`` boundary.

Specs arrive as JSON — ``sweep --spec``, ``serve --spec``, fault plans
— so ``from_dict`` must meet any JSON-shaped field value with a clean
``ValueError`` or ``TypeError``, never an ``AttributeError`` or any
other exception from deeper in validation.  Each example starts from a
valid spec, overwrites some fields with arbitrary JSON values and drops
others, so the fuzz reaches the checks behind the first one too.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, SweepSpec
from repro.faults import FaultPlan, FaultSpec
from repro.serve import ServeSpec
from repro.shard.spec import ShardSpec

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

VALID = [
    RunSpec(source="g.txt"),
    SweepSpec(sources=("g.txt",)),
    ServeSpec(source="g.txt"),
    ShardSpec(),
    FaultSpec(kind="raise-task"),
    FaultPlan(faults=(FaultSpec(kind="raise-task"),)),
]


@pytest.mark.parametrize("valid", VALID, ids=lambda spec: type(spec).__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_dict_raises_only_value_or_type_error(valid, data):
    names = [field.name for field in dataclasses.fields(valid)]
    payload = valid.to_dict()
    for name in data.draw(st.sets(st.sampled_from(names))):
        del payload[name]
    payload.update(
        data.draw(
            st.dictionaries(
                st.sampled_from(names) | st.text(max_size=6), json_values
            )
        )
    )
    try:
        type(valid).from_dict(payload)
    except (ValueError, TypeError):
        pass
