"""Every replayed audit record against the one table of payload shapes,
``core.PAYLOAD_SHAPES``.

Replay checks each record's payload against its stage's entry: the fields
with their JSON kinds, the flags it may carry only as ``true``, and, for a
sense record, the fields of every NPC of the header or of none.  A record
that does not fit fails replay naming its line, stage, cid and field.  The
README's table of record shapes states the same table.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbench import cli
from hilbench.core import (BOOL, INT, NUMBER, PAYLOAD_SHAPES, STRING, Stage, canonical_json,
                           npc_keys)
from hilbench.orchestrator import replay_report

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def golden_lines(name="golden_stage1"):
    return (DATA / name / "audit.ndjson").read_text().splitlines(keepends=True)


def edit_first(lines, stage, change, where=lambda payload: True):
    """Apply ``change`` to the payload of the first ``stage`` record whose
    payload ``where`` holds for; return (its line number, its cid)."""
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["stage"] == stage and where(record["payload"]):
            change(record["payload"])
            lines[i] = canonical_json(record) + "\n"
            return i + 1, record["cid"]
    raise AssertionError(f"no {stage} record to edit")


def assert_replay_fails(tmp_path, capsys, lines, message):
    """Replay ``lines`` from a file: ``replay_report`` raises a ``ValueError``
    that ends with ``message`` after the log's path, and the command exits 1
    printing it."""
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{log}: {message}')}$"):
        replay_report(log)
    assert cli.main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"),
                     "-q"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {log}: {message}\n"


#: One-field edits of the stage-1 fixture: (stage, a field the edited record
#: has, edit, the field at fault, what the message says of it).
ONE_FIELD_EDITS = [
    pytest.param("R2vSenseDone", None, lambda p: p.update(x="0.7"), "x",
                 "must be a number, not '0.7'", id="sense-x-string"),
    pytest.param("R2vSenseDone", None, lambda p: p.update(stale=0), "stale",
                 "must be a bool, not 0", id="sense-stale-int"),
    pytest.param("SutCmdOut", None, lambda p: p.update(speed="0.3"), "speed",
                 "must be a number, not '0.3'", id="command-speed-string"),
    pytest.param("ActuatorApply", None, lambda p: p.update(speed_limited="true"), "speed_limited",
                 "must be a bool, not 'true'", id="actuator-flag-string"),
    pytest.param("V2rDeliver", "fifo_clamped", lambda p: p.update(fifo_clamped=1), "fifo_clamped",
                 "must be a bool, not 1", id="fifo-clamped-int"),
    pytest.param("R2vIngestStart", None, lambda p: p.update(note=1), "note",
                 "is not a field of R2vIngestStart", id="ingest-start-extra-field"),
    pytest.param("GtsSample", None, lambda p: p.update(v="0.0"), "v",
                 "must be a number, not '0.0'", id="sample-v-string"),
    # A flag is written only when it is true.
    pytest.param("V2rDeliver", "fifo_clamped", lambda p: p.update(fifo_clamped=False),
                 "fifo_clamped", "must be true, not False", id="fifo-clamped-false"),
    pytest.param("PerturbIn", None, lambda p: p.update(dropped=False), "dropped",
                 "must be true, not False", id="dropped-false"),
    pytest.param("ActuatorApply", None, lambda p: p.update(steer_map_clamped=False),
                 "steer_map_clamped", "must be true, not False", id="actuator-flag-false"),
]


@pytest.mark.parametrize("stage, having, change, field, says", ONE_FIELD_EDITS)
def test_replay_rejects_a_one_field_edit_naming_line_stage_cid_and_field(
        tmp_path, capsys, stage, having, change, field, says):
    lines = golden_lines()
    line_no, cid = edit_first(lines, stage, change, lambda p: having is None or having in p)
    assert_replay_fails(tmp_path, capsys, lines,
                        f"line {line_no}: {stage} cid {cid}: payload field {field!r} {says}")


def carries_npcs(payload):
    return "npc_npc1_x" in payload


@pytest.mark.parametrize("change, field", [
    pytest.param(lambda p: [p.pop(k) for k in list(p) if k.startswith("npc_npc2_")], "npc_npc2_r",
                 id="one-npc-short"),
    pytest.param(lambda p: p.pop("npc_npc3_vy"), "npc_npc3_vy", id="one-field-short"),
    pytest.param(lambda p: p.update(npc_npc9_x=1.0), "npc_npc9_x", id="unknown-npc"),
])
def test_a_sense_record_carries_every_npc_of_the_header_or_none(tmp_path, capsys, change, field):
    lines = golden_lines("golden_stage3")
    line_no, cid = edit_first(lines, "R2vSenseDone", change, carries_npcs)
    assert line_no == 733
    assert_replay_fails(tmp_path, capsys, lines, f"line 733: R2vSenseDone cid {cid}: payload "
                        f"field {field!r}: a sense record carries the fields of every NPC of the "
                        f"header, or none")


def test_an_npc_field_must_be_a_number(tmp_path, capsys):
    lines = golden_lines("golden_stage3")
    line_no, cid = edit_first(lines, "R2vSenseDone", lambda p: p.update(npc_npc4_r="0.1"),
                              carries_npcs)
    assert_replay_fails(tmp_path, capsys, lines, f"line {line_no}: R2vSenseDone cid {cid}: "
                        f"payload field 'npc_npc4_r' must be a number, not '0.1'")


def test_a_log_without_a_scenario_carries_no_npc(tmp_path, capsys):
    lines = golden_lines()
    fields = dict.fromkeys(npc_keys("a"), 0.5)
    line_no, cid = edit_first(lines, "R2vSenseDone", lambda p: p.update(fields))
    assert_replay_fails(tmp_path, capsys, lines, f"line {line_no}: R2vSenseDone cid {cid}: "
                        f"payload field 'npc_a_r': a sense record carries the fields of every "
                        f"NPC of the header, or none")


def test_a_number_may_be_written_as_an_integer(tmp_path):
    # JSON has one number kind: a sample's x written as an integer fits.
    lines = golden_lines()
    edit_first(lines, "GtsSample", lambda p: p.update(x=1))
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    assert replay_report(log)[0]["cycles"]["gts_samples"] == 50


def test_replay_names_the_line_of_an_undecodable_byte(tmp_path, capsys):
    lines = (DATA / "golden_stage1" / "audit.ndjson").read_bytes().splitlines(keepends=True)
    lines[100] = lines[100][:30] + b"\xff" + lines[100][30:]
    log = tmp_path / "audit.ndjson"
    log.write_bytes(b"".join(lines))
    message = (f"{log}: line 101: not an audit record ('utf-8' codec can't decode byte 0xff in "
               f"position 30: invalid start byte)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replay_report(log)
    assert cli.main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"),
                     "-q"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_torn_final_line_that_does_not_decode_is_dropped(tmp_path):
    # An interrupted write can cut a line inside a character's UTF-8 bytes.
    lines = (DATA / "golden_stage1" / "audit.ndjson").read_bytes().splitlines(keepends=True)
    complete = tmp_path / "complete.ndjson"
    complete.write_bytes(b"".join(lines[:300]))
    torn = tmp_path / "audit.ndjson"
    torn.write_bytes(b"".join(lines[:300]) + lines[300][:40] + "é".encode()[:1])
    report = replay_report(torn)[0]
    assert report["truncated"] is True
    assert report == replay_report(complete)[0]


#: Values of every JSON kind, for an edit to draw from.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(2**70), st.floats(),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
#: The Python types of the values each kind accepts.
ACCEPTS = {NUMBER: (int, float), BOOL: (bool,), INT: (int,), STRING: (str,)}
#: Field names an added field draws from: other stages' fields and flags,
#: NPC fields and text.
ADDED_NAMES = st.one_of(
    st.sampled_from(sorted({key for fields, flags in PAYLOAD_SHAPES.values()
                            for key in (*fields, *flags)})),
    st.sampled_from(["npc_npc1_x", "npc_a_x", "npc_", "npc_npc9_r"]), st.text(max_size=6))
LOGS = {name: golden_lines(name) for name in ("golden_stage1", "golden_stage3")}


def field_kinds(record):
    """The kind of each field of a record's payload: its table kind, a number
    for an NPC field, or ``True`` for a flag, the one value a flag takes."""
    fields, flags = PAYLOAD_SHAPES[Stage[record["stage"]]]
    return {key: True if key in flags else fields.get(key, NUMBER) for key in record["payload"]}


def takes(kind, value):
    return value is True if kind is True else type(value) in ACCEPTS[kind]


def editable_lines():
    """``{(log name, edit): indices of the lines the edit applies to}``."""
    editable = {}
    for name, lines in LOGS.items():
        for i, record in enumerate(map(json.loads, lines)):
            kinds = field_kinds(record)
            for edit, applies in (("retype", kinds), ("add", True),
                                  ("drop", [k for k in kinds.values() if k is not True]),
                                  ("flag-false", PAYLOAD_SHAPES[Stage[record["stage"]]][1])):
                if applies:
                    editable.setdefault((name, edit), []).append(i)
    return editable


EDITABLE = editable_lines()


@st.composite
def one_field_edits(draw):
    """(index of the edited line, its record, the edited lines of its log):
    one line of a golden log, with one field changed to a value of a kind it
    does not take, a required field dropped, a field added, or a flag of the
    record's stage set to false."""
    edit = draw(st.sampled_from(["retype", "drop", "add", "flag-false"]))
    name = draw(st.sampled_from(sorted(LOGS)))
    i = draw(st.sampled_from(EDITABLE[name, edit]))
    lines = list(LOGS[name])
    record = json.loads(lines[i])
    payload, kinds = record["payload"], field_kinds(record)
    if edit == "retype":
        key = draw(st.sampled_from(sorted(kinds)))
        payload[key] = draw(JSON_VALUES.filter(lambda v: not takes(kinds[key], v)))
    elif edit == "drop":
        del payload[draw(st.sampled_from(sorted(k for k in kinds if kinds[k] is not True)))]
    elif edit == "add":
        flags = PAYLOAD_SHAPES[Stage[record["stage"]]][1]
        key = draw(ADDED_NAMES.filter(lambda k: k not in payload and k not in flags))
        payload[key] = draw(JSON_VALUES)
    else:
        payload[draw(st.sampled_from(PAYLOAD_SHAPES[Stage[record["stage"]]][1]))] = False
    lines[i] = canonical_json(record) + "\n"
    return i, record, lines


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(edited=one_field_edits())
def test_replay_rejects_every_one_field_edit_naming_its_line(edited):
    i, record, lines = edited
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "audit.ndjson"
        log.write_text("".join(lines))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.main(["replay-report", "--log", str(log), "--out", str(Path(tmp) / "r"),
                               "-q"])
    assert status == cli.EXIT_CONFIG
    assert err.getvalue().startswith(
        f"error: {log}: line {i + 1}: {record['stage']} cid {record['cid']}: payload field ")
    assert "Traceback" not in err.getvalue()


def readme_shapes():
    """``{stage: (fields, flags, NPC fields)}`` of the README's table of record
    shapes, the fields as ``{name: kind}`` and the NPC fields as the keys of
    the NPC ``<id>``."""
    text = README.read_text()
    table = text[text.index("| Stage | Fields and kinds"):].split("\n\n")[0].splitlines()[2:]
    kinds = {kind.split()[-1]: kind for kind in ACCEPTS}
    shapes = {}
    for row in table:
        stage, fields, flags, npcs = (cell.strip() for cell in row.strip("|").split("|"))
        fields = dict(re.findall(r"`(\w+)` (\w+)", fields))
        shapes[Stage[stage.strip("`")]] = (
            {key: kinds[kind] for key, kind in fields.items()},
            tuple(re.findall(r"`(\w+)`", flags)),
            tuple(re.findall(r"`([\w<>]+)`", npcs)))
    return shapes


def test_the_readme_states_the_table_of_record_shapes():
    assert readme_shapes() == {
        stage: (fields, flags, npc_keys("<id>") if stage is Stage.R2vSenseDone else ())
        for stage, (fields, flags) in PAYLOAD_SHAPES.items()}


def test_the_table_covers_every_stage_in_canonical_key_order():
    assert list(PAYLOAD_SHAPES) == list(Stage)
    for fields, flags in PAYLOAD_SHAPES.values():
        assert list(fields) == sorted(fields) and list(flags) == sorted(flags)
        assert set(fields).isdisjoint(flags)
