"""Per-instance hash memo of the kernel value objects (``hash_once``).

The memo must be invisible: equality is unchanged, copies compare and
hash equal, and a cached hash never leaves the process that computed
it — ``str`` hashes are salted per process, and these objects are
pickled into pool workers and the serve tier's result store.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.kernel import hash_once

SRC = Path(__file__).resolve().parents[2] / "src"

#: Builds the same three objects in any process: a spec whose name and
#: notes are strings, its OpenACC lowering, and the OpenACC profile.
BUILD = """
from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.models.openacc.compiler import OPENACC_PROFILE

spec = KernelSpec(
    name="memo.kernel",
    work_items=4096,
    ops=OpCount(flops=1e6, int_ops=2e5, bytes_read=4e6, bytes_written=1e6),
    access=AccessPattern(
        kind=AccessKind.NEIGHBOR_LIST, working_set_bytes=5e6, request_bytes=8
    ),
    divergence=0.2,
)
objects = {
    "spec": spec,
    "lowered": OPENACC_PROFILE.lower(spec),
    "profile": OPENACC_PROFILE,
}
"""

#: Writer: hash every object (filling the memo), then pickle them.
WRITE = BUILD + """
import json, pickle, sys
hashes = {name: hash(obj) for name, obj in objects.items()}
with open(sys.argv[1], "wb") as handle:
    pickle.dump(objects, handle)
print(json.dumps(hashes))
"""

#: Reader: unpickle, then use the loaded objects as dict keys against
#: freshly built equal ones, in both directions.
READ = BUILD + """
import json, pickle, sys
with open(sys.argv[1], "rb") as handle:
    loaded = pickle.load(handle)
for name, fresh in objects.items():
    assert {fresh: name}[loaded[name]] == name, name
    assert {loaded[name]: name}[fresh] == name, name
    assert hash(loaded[name]) == hash(fresh), name
print(json.dumps({name: hash(obj) for name, obj in objects.items()}))
"""


def build():
    namespace: dict = {}
    exec(BUILD, namespace)
    return namespace["objects"]


def field_names(obj) -> set:
    return {f.name for f in dataclasses.fields(obj)}


def run_python(script: str, path: Path, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_pickled_objects_hit_in_a_process_with_another_hash_seed(tmp_path):
    path = tmp_path / "objects.pkl"
    written = run_python(WRITE, path, hash_seed="1")
    read = run_python(READ, path, hash_seed="2")
    # Different seeds really salt the string fields differently, so a
    # hash carried over in the pickle would have missed in the reader.
    assert all(written[name] != read[name] for name in written), (written, read)


@pytest.mark.parametrize("name", ["spec", "lowered", "profile"])
def test_cached_hash_is_absent_from_the_pickled_state(name):
    obj = build()[name]
    hash(obj)
    assert set(vars(obj)) > field_names(obj)  # the memo is filled
    loaded = pickle.loads(pickle.dumps(obj))
    assert set(vars(loaded)) == field_names(obj)
    assert loaded == obj and hash(loaded) == hash(obj)


@pytest.mark.parametrize("name", ["spec", "lowered", "profile"])
def test_replace_and_deepcopy_stay_equal_and_hash_equal(name):
    obj = build()[name]
    hash(obj)
    for twin in (dataclasses.replace(obj), copy.deepcopy(obj), copy.copy(obj)):
        assert set(vars(twin)) == field_names(obj)
        assert twin == obj
        assert hash(twin) == hash(obj)


def test_memo_does_not_change_equality():
    objects = build()
    spec = objects["spec"]
    hashed, unhashed = spec, dataclasses.replace(spec)
    hash(hashed)
    assert hashed == unhashed and unhashed == hashed
    other = dataclasses.replace(spec, work_items=spec.work_items + 1)
    assert hashed != other
    assert hash(hashed) != hash(other)


def test_rejects_mutable_dataclasses():
    @dataclasses.dataclass
    class Mutable:
        value: int = 0

    with pytest.raises(TypeError, match="frozen"):
        hash_once(Mutable)
