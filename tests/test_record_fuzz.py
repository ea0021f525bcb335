"""Fuzzing record files and their sidecars through the CLI.

Every edit that changes what a record says (a formula field replaced by
any JSON value, any key deleted, the JSON cut short, a sidecar spliced
with or without a matching hash) or only how it says it (u1 or u2 with
both parts negated or scaled by a common factor, a sidecar moved out of
the record's directory and its entry pointed there, a u2 part moved from
inline to a sidecar or back) must end `verify` and
`compute-pi --formula` with exit 3 (parse), 4 (verification) or 7
(digit counts): never exit 0, never printed digits, never a traceback.
The informational fields (rounding, epsilon, head, rate, version string)
are only deleted here: their values do not enter the formula, so editing
them is not an error.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from machinpi import cli
from machinpi.cli import generate_record
from machinpi.records import write_record

from oracles import big_int_text

FORMULA_FIELDS = ("schema_version", "k", "u1", "u2", "u2_digit_counts")
COMMANDS = {
    "verify": ("verify",),
    "compute-pi": ("compute-pi", "--digits", "20", "--formula"),
}

# Arbitrary JSON; dictionary keys come from "xyz" so that no replacement
# can spell a record's own keys and keep its meaning.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.integers(min_value=-10 ** 30, max_value=10 ** 30).map(str),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(alphabet="xyz", max_size=3), kids, max_size=3),
    max_leaves=6,
)


def replacements(original):
    """Arbitrary JSON, plus near misses of the original value: nearby and
    far-off integers (a large k must fail fast, not stall the exact
    check) and other spellings of the same integer text."""
    near = []
    if isinstance(original, int) and not isinstance(original, bool):
        near = [st.integers(-3, 3).map(lambda d: original + d),
                st.integers(min_value=-2, max_value=10 ** 18),
                st.sampled_from([float(original), True, str(original)])]
    elif isinstance(original, str) and original.lstrip("-").isdigit():
        near = [st.integers(-3, 3).map(lambda d: str(int(original) + d)),
                st.sampled_from([f" {original}", f"{original}\n", f"+{original}",
                                 f"0{original}", f"{original[0]}_{original[1:]}",
                                 f"{original}.0", int(original)])]
    return st.one_of(*near, json_values)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """A depth-3 record with inline values and a depth-13 record whose
    u2 parts (about 15,000 digits each) live in sidecars."""
    base = tmp_path_factory.mktemp("records")
    paths = {}
    for k in (3, 13):
        directory = base / f"k{k}"
        directory.mkdir()
        paths[k] = write_record(generate_record(k, 1, "nearest"), directory / "rec.json")
    assert sorted(p.name for p in paths[13].parent.iterdir()) == [
        "rec.json", "rec.u2den.txt", "rec.u2num.txt"]
    return paths


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _parent(payload, path):
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _mutate(data, record: Path) -> None:
    """Apply one drawn edit to the record in place (and its sidecars)."""
    text = record.read_text()
    payload = json.loads(text)
    paths = list(_key_paths(payload))
    formula_paths = sorted({p for p in paths if p[0] in FORMULA_FIELDS}
                           | {("u2", "num", "value")})
    sidecars = sorted(record.parent.glob("*.txt"))
    kinds = ["set", "delete", "truncate", "rescale", "layout"] + (
        ["sidecar", "relocate"] if sidecars else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "set":
        path = data.draw(st.sampled_from(formula_paths))
        parent = _parent(payload, path)
        original = parent.get(path[-1])
        value = data.draw(replacements(original))
        assume(path[-1] not in parent or json.dumps(value) != json.dumps(original))
        parent[path[-1]] = value
        record.write_text(json.dumps(payload))
    elif kind == "delete":
        path = data.draw(st.sampled_from(paths))
        del _parent(payload, path)[path[-1]]
        record.write_text(json.dumps(payload))
    elif kind == "truncate":
        record.write_text(text[:data.draw(st.integers(0, text.rindex("}") - 1))])
    elif kind == "rescale":
        # The same value spelled num*g / den*g, with the u2 digit counts
        # left at the reduced value's or redone for the scaled parts.
        pair = data.draw(st.sampled_from(["u1", "u2"]))
        factor = data.draw(st.sampled_from([-1]) | st.integers(2, 10 ** 6))
        _rescale(payload, pair, factor, record.parent, recount=data.draw(st.booleans()))
        record.write_text(json.dumps(payload))
    elif kind == "layout":
        # One u2 part in the other layout, its digits and hash intact.
        part = data.draw(st.sampled_from(["num", "den"]))
        entry = payload["u2"][part]
        if "value" in entry:
            body = entry["value"] + "\n"
            name = f"{record.stem}.u2{part}.txt"
            (record.parent / name).write_text(body)
            payload["u2"][part] = {"file": name,
                                   "sha256": hashlib.sha256(body.encode()).hexdigest()}
        else:
            payload["u2"][part] = {"value": (record.parent / entry["file"]).read_text()[:-1]}
        record.write_text(json.dumps(payload))
    elif kind == "relocate":
        sidecar = data.draw(st.sampled_from(sidecars))
        moved = record.parent / "elsewhere" / sidecar.name
        moved.parent.mkdir()
        sidecar.rename(moved)
        name = data.draw(st.sampled_from([
            str(moved), f"elsewhere/{sidecar.name}",
            f"elsewhere/../elsewhere/{sidecar.name}"]))
        for entry in payload["u2"].values():
            if entry.get("file") == sidecar.name:
                entry["file"] = name
        record.write_text(json.dumps(payload))
    else:
        sidecar = data.draw(st.sampled_from(sidecars))
        body = sidecar.read_text()
        at = data.draw(st.integers(0, len(body)))
        cut = data.draw(st.integers(0, 3))
        edited = body[:at] + data.draw(st.text(max_size=3)) + body[at + cut:]
        assume(edited != body)
        sidecar.write_text(edited)
        if data.draw(st.booleans()):  # re-hash, so the content itself is judged
            for entry in payload["u2"].values():
                if entry.get("file") == sidecar.name:
                    entry["sha256"] = hashlib.sha256(edited.encode()).hexdigest()
            record.write_text(json.dumps(payload))


def _rescale(payload, pair: str, factor: int, directory: Path, recount: bool) -> None:
    """Multiply both parts of u1 or u2 by `factor`, rewriting sidecars and
    their hashes, and with `recount` the u2 digit counts, to match."""
    for part in ("num", "den"):
        entry = payload[pair][part]
        with big_int_text():
            if pair == "u1":
                payload[pair][part] = str(int(entry) * factor)
                continue
            if "value" in entry:
                entry["value"] = text = str(int(entry["value"]) * factor)
            else:
                sidecar = directory / entry["file"]
                text = str(int(sidecar.read_text()) * factor)
                sidecar.write_text(text + "\n")
                entry["sha256"] = hashlib.sha256((text + "\n").encode()).hexdigest()
        if recount:
            payload["u2_digit_counts"][f"{part}_digits"] = len(text.lstrip("-"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("k", [3, 13])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_record_exits_with_error_code(records, k, command, data):
    with tempfile.TemporaryDirectory() as work:
        source = records[k].parent
        for item in source.iterdir():
            shutil.copy(item, work)
        record = Path(work) / records[k].name
        _mutate(data, record)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*COMMANDS[command], str(record)])
    assert code in (cli.EXIT_PARSE, cli.EXIT_VERIFICATION, cli.EXIT_DIGIT_COUNT), \
        err.getvalue()
    assert out.getvalue() == ""
