"""Property test of the config loader and the planner: any JSON document
either loads into a Config whose numbers are all finite and which plans to
finite costs, or raises a domain error."""

import copy
import json
import math
import warnings

import pytest

from codesign.cost_model import COST_FIELDS, ROW_FIELDS, evaluate_grid
from codesign.errors import CodesignError
from codesign.profiles import Config, config_from_dict, config_to_dict
from conftest import FIXTURES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PAPER = json.loads((FIXTURES / "paper.json").read_text())


def _children(node):
    if isinstance(node, dict):
        return node.items()
    if isinstance(node, list):
        return enumerate(node)
    return ()


def _paths(node, prefix=()):
    yield prefix
    for key, child in _children(node):
        yield from _paths(child, prefix + (key,))


def _leaves(node):
    children = _children(node)
    if not children:
        yield node
    for _, child in children:
        yield from _leaves(child)


PATHS = list(_paths(PAPER))
KEYS = sorted({key for path in PATHS for key in path if isinstance(key, str)})

# Arbitrary JSON, including NaN, Infinity, bools, huge integers and strings;
# object keys are often the schema's own, so near-valid documents come up.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats()
    | st.text(max_size=6) | st.sampled_from(KEYS),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6),
                                        children, max_size=5)),
    max_leaves=12)


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(path=st.sampled_from(PATHS), value=JSON)
# finite values whose costs overflow
@hypothesis.example(path=("link", "bandwidth"), value=1e-320)
@hypothesis.example(path=("devices", 0, "peak_compute"), value=1e-320)
@hypothesis.example(path=("lambda1",), value=1e308)
def test_fuzzed_config_loads_finite_or_raises_domain_error(path, value):
    raw = copy.deepcopy(PAPER)
    if path:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        raw = value
    try:
        config = config_from_dict(raw)
    except CodesignError:
        return
    assert isinstance(config, Config)
    numbers = [leaf for leaf in _leaves(config_to_dict(config))
               if isinstance(leaf, (int, float)) and not isinstance(leaf, bool)]
    assert all(math.isfinite(number) for number in numbers)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning gets through
        try:
            rows = evaluate_grid(config.model, config.device1, config.device2, config.link,
                                 config.penalties, config.lambda1)
        except CodesignError:
            return
    columns = [ROW_FIELDS.index(name) for name in COST_FIELDS]
    assert all(math.isfinite(row[index]) for row in rows for index in columns)
