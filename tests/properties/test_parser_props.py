"""Property: every parser of outside input raises ConfigError or builds.

Four parsers turn a document from outside the program into an object:
``RunSpec.from_dict`` (a served or swept point, with its config, plan,
placement and workload documents), ``FaultPolicy.from_dict`` (a served
job's policy), ``FaultPlan.from_dict`` (``--fault-plan``) and
``parse_bundle`` (``repro verify --replay``).  Each is fed valid
documents with one key dropped, retyped or added, and arbitrary JSON.
The only exception allowed out is :class:`ConfigError`, which the CLI
turns into exit 2 and the daemon into a 400; a spec that builds must
also build its chip, and a built policy or plan must hold times the
executor can wait on (a NaN timeout ends every attempt at once).
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultPolicy
from repro.sim.config import ConfigError
from repro.sweep.spec import RunSpec, config_to_dict, snapshot_workload
from repro.verify.bundle import BUNDLE_SCHEMA, parse_bundle
from repro.verify.differential import default_config
from tests.conftest import tiny_chip

TINY = config_to_dict(tiny_chip())


def _spec_doc(**kwargs):
    base = dict(protocol="dico", workload="radix", seed=1, cycles=1_500,
                warmup=500, config=TINY)
    return RunSpec(**dict(base, **kwargs)).to_dict()


SPEC_DOCS = [
    _spec_doc(),
    _spec_doc(plan={"seed": 9, "events": [
        {"cycle": 400, "kind": "vm_depart", "vm": 3},
        {"cycle": 500, "kind": "dedup_break", "vm": 0, "pages": 2},
    ]}),
    _spec_doc(protocol="dico-arin", placement={"0": [0, 1], "1": [5, 6]},
              n_vms=2, overrides=(("l1c_entries", 32),),
              protocol_kwargs={"provider_on_read": True}),
    _spec_doc(workload="mixed-com", n_vms=2,
              workload_specs=snapshot_workload("mixed-com", 2)),
]
POLICY_DOCS = [{"timeout_s": 5.0, "max_retries": 1, "on_failure": "skip"}]
PLAN_DOCS = [{"seed": 1, "hang_s": 60.0, "rules": [
    {"kind": "crash", "rate": 0.5, "times": 1},
    {"kind": "hang", "match": "ab", "times": 2},
]}]
BUNDLE_DOCS = [{
    "schema": BUNDLE_SCHEMA,
    "git_rev": None,
    "created_unix": 0,
    "protocol": "dico",
    "seed": 3,
    "scenario": "ping-pong",
    "mutation": "dico-lost-commit",
    "config": config_to_dict(default_config()),
    "ops": [[0, 5, 1], [1, 5, 0], [2, 9, 1, "migrate", 3], [3, 9, 0,
                                                          "drain", 0]],
    "violation": {"kind": "oracle", "protocol": "dico", "op_index": 1,
                  "message": "lost commit", "details": {"block": 5}},
}]


def _build_spec(doc):
    RunSpec.from_dict(doc).build_chip()


def _build_policy(doc):
    timeout_s = FaultPolicy.from_dict(doc).timeout_s
    assert timeout_s is None or 0 < timeout_s < math.inf


def _build_plan(doc):
    assert 0 <= FaultPlan.from_dict(doc).hang_s < math.inf


PARSERS = {
    "spec": (_build_spec, SPEC_DOCS),
    "policy": (_build_policy, POLICY_DOCS),
    "fault-plan": (_build_plan, PLAN_DOCS),
    "bundle": (parse_bundle, BUNDLE_DOCS),
}

# integers stay small: a mutated count or mesh size sizes the chip a
# built spec then builds.  Python's JSON reader accepts NaN and Infinity.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-64, 64)
    | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """The path of every value below the document root."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def one_key_changed(draw, docs):
    """A valid document with one key dropped, retyped or added."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    op = draw(st.sampled_from(("drop", "retype", "add")))
    if op == "add":
        parents = [()] + [
            p for p in _paths(doc) if isinstance(_at(doc, p), dict)
        ]
        target = _at(doc, draw(st.sampled_from(parents)))
        target[draw(st.text(min_size=1, max_size=6))] = draw(JSON)
        return doc
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = _at(doc, path[:-1])
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON)
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _parses_or_config_error(parse, doc):
    try:
        parse(doc)
    except ConfigError:
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_valid_documents_parse(name):
    parse, docs = PARSERS[name]
    for doc in docs:
        parse(copy.deepcopy(doc))


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_key_changed_raises_config_error_or_builds(name, data):
    parse, docs = PARSERS[name]
    _parses_or_config_error(parse, data.draw(one_key_changed(docs)))


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(doc=JSON)
def test_arbitrary_json_raises_config_error_or_builds(name, doc):
    _parses_or_config_error(PARSERS[name][0], doc)
