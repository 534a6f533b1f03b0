"""The three container readers under corrupted files: a load or a DataError, nothing else.

Datasets (.fsd), traces (.fst) and checkpoints (.fsc) share one header
reader. Hypothesis rewrites one value of a valid header, flips header
bytes, or truncates the file anywhere; every outcome must be a
successful load or a ``DataError`` (CLI exit code 2).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowshop.env import load_traces, record_expert_traces, save_traces
from flowshop.errors import DataError
from flowshop.instances import DatasetSpec, generate, load_dataset, save_dataset
from flowshop.policy import PolicyConfig, PolicyParams
from flowshop.training import load_checkpoint, save_checkpoint

INSTANCES = generate(DatasetSpec(count=2, jobs=4, machines=2, seed=2))

# suffix -> (writer of a valid file, reader under test)
CONTAINERS = {
    "fsd": (lambda path: save_dataset(path, INSTANCES), load_dataset),
    "fst": (lambda path: save_traces(path, record_expert_traces(INSTANCES)), lambda path: load_traces(path, INSTANCES)),
    "fsc": (
        lambda path: save_checkpoint(path, PolicyParams.init(PolicyConfig(machines=2, hidden_dim=4, layers=1, heads=2))),
        load_checkpoint,
    ),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of one valid file per container, and a directory to write corrupted copies to."""
    workdir = tmp_path_factory.mktemp("containers")
    files = {}
    for suffix, (write, _) in CONTAINERS.items():
        path = workdir / f"valid.{suffix}"
        write(path)
        files[suffix] = path.read_bytes()
    return files, workdir


def _load_or_data_error(workdir, suffix, raw: bytes) -> None:
    path = workdir / f"corrupt.{suffix}"
    path.write_bytes(raw)
    try:
        CONTAINERS[suffix][1](path)
    except DataError:
        pass


def _paths(value, prefix=()):
    """The key/index path of every value nested in ``value``, ``value`` itself first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@pytest.mark.parametrize("suffix", CONTAINERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rewritten_header_value(valid_files, suffix, data):
    files, workdir = valid_files
    head, body = files[suffix].split(b"\n", 1)
    header = json.loads(head)
    path = data.draw(st.sampled_from(list(_paths(header))), label="path")
    delete = bool(path) and data.draw(st.booleans(), label="delete")
    value = None if delete else data.draw(JSON_VALUES, label="value")
    if not path:
        header = value
    else:
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    _load_or_data_error(workdir, suffix, json.dumps(header).encode() + b"\n" + body)


@pytest.mark.parametrize("suffix", CONTAINERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flipped_header_bytes(valid_files, suffix, data):
    files, workdir = valid_files
    head, body = files[suffix].split(b"\n", 1)
    flipped = bytearray(head)
    positions = st.integers(0, len(head) - 1)
    for pos, mask in data.draw(st.lists(st.tuples(positions, st.integers(1, 255)), min_size=1, max_size=4)):
        flipped[pos] ^= mask
    _load_or_data_error(workdir, suffix, bytes(flipped) + b"\n" + body)


@pytest.mark.parametrize("suffix", CONTAINERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_truncated_file(valid_files, suffix, data):
    files, workdir = valid_files
    raw = files[suffix]
    _load_or_data_error(workdir, suffix, raw[: data.draw(st.integers(0, len(raw) - 1))])
