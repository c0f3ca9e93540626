import argparse
import contextlib
import copy
import io
import json
import pathlib
import resource
import shlex
from dataclasses import replace

import pytest
from helpers import invalid_transfer_inputs, nonperm_ideal
from hypothesis import given, settings
from hypothesis import strategies as st

from greenindex import automatic, cli, core, factories, present
from greenindex.errors import InputError


@pytest.fixture()
def files(tmp_path, z6, t03):
    sem_path = tmp_path / "z6.json"
    sem_path.write_text(json.dumps(z6.to_json_dict()))
    sub_path = tmp_path / "t03.json"
    sub_path.write_text(json.dumps(t03.to_json_dict()))
    return str(sem_path), str(sub_path), tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate(files, capsys, tmp_path):
    sem_path, _, _ = files
    code, out = run(capsys, "validate", "--semigroup", sem_path)
    assert code == 0 and "order 6" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "table": [[0, 1], [0, 0]]}))
    code, out = run(capsys, "validate", "--semigroup", str(bad))
    assert code == 1 and "witness" in out

    assert cli.main(["validate", "--semigroup", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_validate_reports_an_entry_out_of_range(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "table": [[0, 99], [1, 1]]}))
    code, out = run(capsys, "validate", "--semigroup", str(bad))
    assert code == 1
    assert json.loads(out) == {
        "error": "entry table[0][1] = 99 not in [0, 2)", "valid": False}


def test_validate_reports_the_first_witness_exactly(capsys, tmp_path):
    # Z3 with 2*0 changed to 0: the first failing triple in (x, y, z) order
    # is (1, 1, 0), while a scan over a generating set meets (2, 0, 1) first
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 3,
                               "table": [[0, 1, 2], [1, 2, 0], [0, 0, 1]]}))
    code, out = run(capsys, "validate", "--semigroup", str(bad),
                    "--format", "json")
    assert code == 1
    assert out == (
        '{\n'
        '  "error": "not associative: (1*1)*0 != 1*(1*0)",\n'
        '  "valid": false,\n'
        '  "witness": [\n'
        '    1,\n'
        '    1,\n'
        '    0\n'
        '  ]\n'
        '}\n'
    )


def test_green_index_json(files, capsys):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "green-index", "--semigroup", sem_path,
                    "--sub", sub_path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["green_index"] == 3
    assert data["rees_index"] == 4
    assert data["complement_classes"] == [[1, 4], [2, 5]]


def test_eggbox(files, capsys):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "eggbox", "--semigroup", sem_path,
                    "--sub", sub_path, "--relative")
    assert code == 0 and out.startswith("digraph eggbox")
    code, _out = run(capsys, "eggbox", "--semigroup", sem_path)
    assert code == 0


def test_main_keeps_no_parsed_state_between_calls(files, capsys):
    sem_path, sub_path, _ = files
    plain = ["eggbox", "--semigroup", sem_path, "--sub", sub_path]
    code, highlighted = run(capsys, *plain, "--relative")
    assert code == 0
    code, out = run(capsys, *plain)
    assert code == 0 and out != highlighted
    args = cli.build_parser().parse_args(plain)
    assert args.relative is False
    assert args.fn(args) == 0
    assert capsys.readouterr().out == out


def test_main_builds_the_parser_once(files, capsys, monkeypatch):
    sem_path, _sub_path, _ = files
    assert run(capsys, "validate", "--semigroup", sem_path)[0] == 0

    def rebuilt():
        raise AssertionError("main built the parser again")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert run(capsys, "validate", "--semigroup", sem_path)[0] == 0


# subcommand -> (required option strings, optional option strings); a flag
# added, dropped or made (un)required has to edit this table
FLAGS = {
    "auto build": (["--gens", "--semigroup"], ["--format"]),
    "auto transfer": (["--semigroup", "--structure", "--sub"], ["--format"]),
    "auto verify": (["--semigroup", "--structure"],
                    ["--format", "--max-len", "--sub"]),
    "connectors": (["--semigroup", "--sub"], ["--format"]),
    "eggbox": (["--semigroup"], ["--format", "--relative", "--sub"]),
    "green-index": (["--semigroup", "--sub"], ["--format"]),
    "growth dominate": (["--r", "--semigroup", "--sub", "--sub-gens"],
                        ["--format", "--max"]),
    "growth series": ([], ["--blackbox", "--format", "--gens", "--max",
                           "--semigroup"]),
    "present enumerate": (["--presentation"], ["--format", "--max-classes"]),
    "present synth": (["--semigroup", "--sub"],
                      ["--format", "--max-classes", "--presentation"]),
    "present verify": (["--presentation", "--semigroup"],
                       ["--format", "--max-classes"]),
    "rewrite": (["--class-index", "--semigroup", "--sub", "--word"],
                ["--direction", "--format"]),
    "schreier": (["--gens", "--semigroup", "--sub"], ["--format"]),
    "schutz": (["--class-of", "--semigroup", "--sub"], ["--format", "--sub-gens"]),
    "validate": (["--semigroup"], ["--format"]),
    "wp": (["--semigroup", "--sub", "--word1", "--word2"], ["--format"]),
}


def _flag_surface(parser, prefix=""):
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out.update(_flag_surface(child, f"{prefix}{name} "))
    if prefix and not out:
        flags = [a for a in parser._actions
                 if not isinstance(a, argparse._HelpAction)]
        out[prefix.strip()] = tuple(
            sorted(s for a in flags if a.required == required
                   for s in a.option_strings)
            for required in (True, False))
    return out


def test_flag_surface():
    assert _flag_surface(cli.build_parser()) == {
        name: tuple(flags) for name, flags in FLAGS.items()}


def test_connectors_and_rewrite(files, capsys):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "connectors", "--semigroup", sem_path,
                    "--sub", sub_path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["class_count"] == 3
    code, out = run(capsys, "rewrite", "--semigroup", sem_path,
                    "--sub", sub_path, "--class-index", "1", "--word", "3,3",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["output_class"] == 1
    code, out = run(capsys, "rewrite", "--semigroup", sem_path,
                    "--sub", sub_path, "--class-index", "1", "--word", "3,3",
                    "--direction", "left")
    assert code == 0 and "=" in out


def test_schreier_and_schutz(files, capsys):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "schreier", "--semigroup", sem_path,
                    "--sub", sub_path, "--gens", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["closure_is_subsemigroup"] is True

    code, out = run(capsys, "schutz", "--semigroup", sem_path,
                    "--sub", sub_path, "--class-of", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    assert data["stabilizer"] == [0, 3, 6]


def test_present_pipeline(files, capsys, tmp_path):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "present", "synth", "--semigroup", sem_path,
                    "--sub", sub_path)
    assert code == 0
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(out)

    code, out = run(capsys, "present", "verify", "--presentation",
                    str(synth_path), "--semigroup", sem_path)
    assert code == 0 and json.loads(out)["verified"] is True

    code, out = run(capsys, "present", "enumerate", "--presentation",
                    str(synth_path), "--max-classes", "100")
    assert code == 0 and json.loads(out)["size"] == 6

    broken = json.loads(synth_path.read_text())
    broken["relations"].append(["t0", "t3"])  # 0 = 3 fails in Z6
    bad_path = tmp_path / "broken.json"
    bad_path.write_text(json.dumps(broken))
    code, out = run(capsys, "present", "verify", "--presentation",
                    str(bad_path), "--semigroup", sem_path)
    assert code == 1 and json.loads(out)["verified"] is False
    assert json.loads(out)["violated_relation"] is not None


def test_present_verify_certifies_a_synthesis_without_enumerating(
        files, capsys, monkeypatch):
    sem_path, sub_path, tmp_path = files
    code, out = run(capsys, "present", "synth", "--semigroup", sem_path,
                    "--sub", sub_path)
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(out)

    def no_enumeration(pres, max_classes):
        raise AssertionError("enumerate_presentation was called")

    monkeypatch.setattr(present, "enumerate_presentation", no_enumeration)
    code, out = run(capsys, "present", "verify", "--presentation",
                    str(synth_path), "--semigroup", sem_path)
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("command", ["verify", "synth"])
def test_present_refuses_a_class_bound_below_one(files, capsys, z6, command):
    # Z6's table presentation certifies by its rules without enumerating,
    # and the enumerator used to be the only check of the bound
    sem_path, sub_path, tmp_path = files
    pres, assign = present.presentation_from_table(z6)
    pres_path = tmp_path / "table.json"
    pres_path.write_text(json.dumps(pres.to_json_dict(assignment=assign)))
    args = {"verify": ["--presentation", str(pres_path), "--semigroup", sem_path],
            "synth": ["--semigroup", sem_path, "--sub", sub_path]}[command]
    code = cli.main(["present", command, *args, "--max-classes", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: max_classes must be positive\n"


def test_present_verify_refuses_a_class_bound_below_one_first(files, capsys):
    # 2 does not generate Z6: this printed "verified": false and exited 1
    sem_path, _, tmp_path = files
    pres_path = tmp_path / "pres.json"
    pres_path.write_text(json.dumps({
        "alphabet": ["a"], "relations": [["aaaa", "a"]], "assignment": {"a": 2}}))
    code = cli.main(["present", "verify", "--presentation", str(pres_path),
                     "--semigroup", sem_path, "--max-classes", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: max_classes must be positive\n"


def test_present_verify_witness_keeps_multi_character_letters(files, capsys):
    # a a = aa with a -> 1, aa -> 3 over Z6 fails (2 != 3); joined, both
    # sides would read "aa", the trivial relation aa = aa
    sem_path, _, tmp_path = files
    pres_path = tmp_path / "pres.json"
    pres_path.write_text(json.dumps({
        "alphabet": ["a", "aa"], "relations": [[["a", "a"], ["aa"]]],
        "assignment": {"a": 1, "aa": 3}}))
    code, out = run(capsys, "present", "verify", "--presentation",
                    str(pres_path), "--semigroup", sem_path)
    assert code == 1
    assert json.loads(out)["violated_relation"] == [["a", "a"], ["aa"]]


def test_human_formats(files, capsys):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "connectors", "--semigroup", sem_path,
                    "--sub", sub_path)
    assert code == 0 and "s * h_i" in out
    code, out = run(capsys, "schutz", "--semigroup", sem_path,
                    "--sub", sub_path, "--class-of", "1")
    assert code == 0 and "stabilizer" in out
    code, out = run(capsys, "wp", "--semigroup", sem_path, "--sub", sub_path,
                    "--word1", "d1", "--word2", "d2")
    assert code == 0 and "branch:" in out
    code, out = run(capsys, "growth", "dominate", "--semigroup", sem_path,
                    "--sub", sub_path, "--r", "6,1,2", "--sub-gens", "3",
                    "--max", "4")
    assert code == 0 and "k1 = 3" in out


def test_wp(files, capsys):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "wp", "--semigroup", sem_path, "--sub", sub_path,
                    "--word1", "t3,t3", "--word2", "t0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True and data["branch"] == "both_in_sub"
    code, out = run(capsys, "wp", "--semigroup", sem_path, "--sub", sub_path,
                    "--word1", "d1", "--word2", "t0", "--format", "json")
    assert json.loads(out)["branch"] == "mixed"


def test_growth_commands(files, capsys):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "growth", "series", "--semigroup", sem_path,
                    "--gens", "1", "--max", "8", "--format", "json")
    assert code == 0
    assert json.loads(out)["series"] == [1, 2, 3, 4, 5, 6, 7, 7, 7]

    code, out = run(capsys, "growth", "series", "--blackbox", "nat-plus",
                    "--max", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["series"] == [1, 2, 3, 4, 5, 6]
    assert "disclaimer" in data

    code, out = run(capsys, "growth", "dominate", "--semigroup", sem_path,
                    "--sub", sub_path, "--r", "6,1,2", "--sub-gens", "3",
                    "--max", "8", "--format", "json")
    assert code == 0 and json.loads(out)["holds"] is True


def test_growth_blackbox_refuses_a_failed_spot_check(capsys, monkeypatch):
    # the disclaimer promised a spot check that nothing ran
    monkeypatch.setattr(core.BlackBoxSemigroup, "spot_check_associativity",
                        lambda self: (1, 2, 3))
    code = cli.main(["growth", "series", "--blackbox", "nat-plus",
                     "--max", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: not associative: (1*2)*3 != 1*(2*3)\n"


def test_auto_pipeline(files, capsys, tmp_path):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "auto", "build", "--semigroup", sem_path,
                    "--gens", "1")
    assert code == 0
    st_path = tmp_path / "st.json"
    st_path.write_text(out)

    code, out = run(capsys, "auto", "verify", "--structure", str(st_path),
                    "--semigroup", sem_path, "--max-len", "7")
    assert code == 0 and json.loads(out)["verified"] is True

    code, out = run(capsys, "auto", "transfer", "--structure", str(st_path),
                    "--semigroup", sem_path, "--sub", sub_path)
    assert code == 0
    tr_path = tmp_path / "tr.json"
    tr_path.write_text(out)

    code, out = run(capsys, "auto", "verify", "--structure", str(tr_path),
                    "--semigroup", sem_path, "--sub", sub_path,
                    "--max-len", "6")
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("case", ["t3_ideal", "s4_swap"])
def test_auto_transfer_of_many_letters_writes_a_small_file(case, capsys,
                                                           tmp_path):
    # From the generators of find_generating_set.  Writing these transfers
    # ran out of memory while every letter not evaluating to the identity
    # was kept (343 and 1936 letters) and no composition was trimmed.
    if case == "t3_ideal":
        sem, sub = nonperm_ideal(3)
        gens, kept = "0,1,2,3,4,5,6,7,9,11", 11
    else:
        sem = factories.symmetric_group(4)
        sub = core.closure(sem, [sem.names.index("1023")])
        gens, kept = "0,1,2,6", 2
    sem_path, sub_path = tmp_path / "sem.json", tmp_path / "sub.json"
    sem_path.write_text(json.dumps(sem.to_json_dict()))
    sub_path.write_text(json.dumps(sub.to_json_dict()))
    s = ["--semigroup", str(sem_path)]
    code, out = run(capsys, "auto", "build", *s, "--gens", gens)
    assert code == 0
    st_path = tmp_path / "st.json"
    st_path.write_text(out)
    code, out = run(capsys, "auto", "transfer", "--structure", str(st_path),
                    *s, "--sub", str(sub_path))
    assert code == 0 and len(out) < 1 << 20
    assert len(json.loads(out)["alphabet"]) == kept
    tr_path = tmp_path / "tr.json"
    tr_path.write_text(out)
    code, out = run(capsys, "auto", "verify", "--structure", str(tr_path),
                    *s, "--sub", str(sub_path))
    assert code == 0 and json.loads(out)["verified"] is True


def test_exit_codes(files, capsys, tmp_path):
    sem_path, sub_path, _ = files
    # malformed file: input error
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["green-index", "--semigroup", str(garbled),
                     "--sub", sub_path]) == 2
    # non-generating set: input error
    assert cli.main(["schreier", "--semigroup", sem_path, "--sub", sub_path,
                     "--gens", "2"]) == 2
    capsys.readouterr()


def test_growth_dominate_rejects_generators_outside_t(files, capsys):
    sem_path, sub_path, _ = files
    code, out = run(capsys, "growth", "dominate", "--semigroup", sem_path,
                    "--sub", sub_path, "--r", "0,1,2,6", "--sub-gens", "1",
                    "--max", "6")
    assert code == 2 and out == ""


def test_growth_dominate_rejects_a_negative_max(files, capsys):
    # it used to exit 0 with "holds": true and no rows
    sem_path, sub_path, _ = files
    code = cli.main(["growth", "dominate", "--semigroup", sem_path,
                     "--sub", sub_path, "--r", "6,1,2", "--sub-gens", "3",
                     "--max", "-1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: m_max must be nonnegative\n"


@pytest.mark.parametrize("argv, message", [
    (["schutz", "--class-of", "9"], "element 9 not in [0, 6)"),
    (["schutz", "--class-of", "-1"], "element -1 not in [0, 6)"),
    (["rewrite", "--class-index", "0", "--word", "3,99"],
     "letter 99 not in [0, 7)"),
    (["rewrite", "--class-index", "0", "--word", "3,-2"],
     "letter -2 not in [0, 7)"),
    (["rewrite", "--class-index", "3", "--word", "3"],
     "class 3 not in [0, 3)"),
    (["rewrite", "--class-index", "-1", "--word", "3"],
     "class -1 not in [0, 3)"),
], ids=["class-of-too-big", "class-of-negative", "word-too-big", "word-negative",
        "class-index-too-big", "class-index-negative"])
def test_element_indices_out_of_range(files, capsys, argv, message):
    # too big used to end in an IndexError; negative silently wrapped
    sem_path, sub_path, _ = files
    code = cli.main([*argv, "--semigroup", sem_path, "--sub", sub_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_growth_series_rejects_generators_out_of_range(files, capsys):
    sem_path, _, _ = files
    for gens in ("9", "-1"):
        code = cli.main(["growth", "series", "--semigroup", sem_path,
                         "--gens", gens, "--max", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"input error: generator {gens} not in [0, 7)\n"
    # the adjoined identity (index 6) is an S^1 element and stays accepted
    code, out = run(capsys, "growth", "series", "--semigroup", sem_path,
                    "--gens", "1,6", "--max", "3", "--format", "json")
    assert code == 0 and json.loads(out)["series"] == [1, 2, 3, 4]
    code, out = run(capsys, "rewrite", "--semigroup", sem_path, "--sub",
                    files[1], "--class-index", "1", "--word", "3,6",
                    "--format", "json")
    assert code == 0 and json.loads(out)["word"] == [3, 6]


@pytest.mark.parametrize("entry", ["a", 1.7, True], ids=["string", "float", "bool"])
def test_table_entries_must_be_integers(tmp_path, capsys, entry):
    # "a" used to end in a ValueError traceback; 1.7 and true were read as 1
    table = [[0, 1], [1, entry]]
    sem_path = tmp_path / "s.json"
    sem_path.write_text(json.dumps({"table": table}))
    code, out = run(capsys, "validate", "--semigroup", str(sem_path),
                    "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False
    assert data["error"] == f"entry table[1][1] = {entry!r} is not an integer"
    sub_path = tmp_path / "t.json"
    sub_path.write_text(json.dumps({"members": [0]}))
    code = cli.main(["green-index", "--semigroup", str(sem_path),
                     "--sub", str(sub_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: entry table[1][1]")


def test_table_rows_must_be_lists(tmp_path, capsys):
    sem_path = tmp_path / "s.json"
    sem_path.write_text(json.dumps({"table": ["01", "10"]}))
    code, out = run(capsys, "validate", "--semigroup", str(sem_path),
                    "--format", "json")
    assert code == 1 and json.loads(out)["error"] == "table row 0 is not a list"


@pytest.mark.parametrize("members", ["03", [0, "3"], [0, 3.0], [True]],
                         ids=["string", "string-entry", "float", "bool"])
def test_sub_members_must_be_a_list_of_integers(files, capsys, members):
    # "03" used to be read as {0, 3}
    sem_path, _, tmp_path = files
    sub_path = tmp_path / "bad_sub.json"
    sub_path.write_text(json.dumps({"members": members}))
    code = cli.main(["green-index", "--semigroup", sem_path,
                     "--sub", str(sub_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("input error: subsemigroup JSON needs a"
                            " 'members' list of integers\n")


@pytest.mark.parametrize("command", ["transfer", "verify"])
@pytest.mark.parametrize("value", [99, -1, 1.0], ids=["too-big", "negative", "float"])
def test_auto_rejects_letter_evaluations_outside_s(files, capsys, command, value):
    # 99 used to end in an IndexError traceback
    sem_path, sub_path, tmp_path = files
    code, out = run(capsys, "auto", "build", "--semigroup", sem_path,
                    "--gens", "1")
    assert code == 0
    data = json.loads(out)
    data["letter_eval"]["1"] = value
    st_path = tmp_path / "st_bad.json"
    st_path.write_text(json.dumps(data))
    code = cli.main(["auto", command, "--structure", str(st_path),
                     "--semigroup", sem_path, "--sub", sub_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: ")


def _set(path, value):
    def edit(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return edit


def _drop_a1_multiplier(doc):
    del doc["multipliers"]["a1"]


STRUCTURE_DEFECTS = {
    # a letter without a multiplier used to verify, and transfer ended in
    # a KeyError traceback
    "missing-multiplier": _drop_a1_multiplier,
    "empty-letter-eval": _set(("letter_eval",), {}),
    # these ended in an AttributeError traceback
    "multipliers-list": _set(("multipliers",), []),
    "letter-eval-list": _set(("letter_eval",), []),
    # these were converted: 7.7 states read as 7, "0" and true as state 0
    "float-states": _set(("acceptor", "states"), 7.7),
    # this ran out of memory
    "unused-states": _set(("acceptor", "states"), 10 ** 9),
    "string-initial": _set(("acceptor", "initial"), ["0"]),
    "bool-initial": _set(("acceptor", "initial"), [True]),
    "negative-accepting": _set(("acceptor", "accepting"), [-1]),
    "int-letter": _set(("alphabet",), [1]),
    "letter-eval-too-big": _set(("letter_eval", "a1"), 99),
    "letter-eval-negative": _set(("letter_eval", "a1"), -1),
    "letter-eval-float": _set(("letter_eval", "a1"), 1.0),
}


@pytest.mark.parametrize("command", ["transfer", "verify"])
@pytest.mark.parametrize("defect", sorted(STRUCTURE_DEFECTS))
def test_auto_refuses_malformed_structures(files, capsys, command, defect):
    sem_path, sub_path, tmp_path = files
    code, out = run(capsys, "auto", "build", "--semigroup", sem_path,
                    "--gens", "1")
    assert code == 0
    data = json.loads(out)
    STRUCTURE_DEFECTS[defect](data)
    st_path = tmp_path / "st_bad.json"
    st_path.write_text(json.dumps(data))
    code = cli.main(["auto", command, "--structure", str(st_path),
                     "--semigroup", sem_path, "--sub", sub_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", sorted(invalid_transfer_inputs()))
def test_auto_transfer_refuses_a_structure_that_does_not_verify(files, capsys,
                                                                 case):
    # these used to exit 0
    sem_path, sub_path, tmp_path = files
    bad, message = invalid_transfer_inputs()[case]
    st_path = tmp_path / "st_invalid.json"
    st_path.write_text(json.dumps(automatic.structure_to_json(bad)))
    code = cli.main(["auto", "transfer", "--structure", str(st_path),
                     "--semigroup", sem_path, "--sub", sub_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("case", sorted(invalid_transfer_inputs()))
def test_auto_verify_refutes_what_transfer_refuses(files, capsys, case):
    # "longer" used to print "verified": true at --max-len 6
    sem_path, _, tmp_path = files
    bad, message = invalid_transfer_inputs()[case]
    st_path = tmp_path / "st_invalid.json"
    st_path.write_text(json.dumps(automatic.structure_to_json(bad)))
    code, out = run(capsys, "auto", "verify", "--structure", str(st_path),
                    "--semigroup", sem_path, "--max-len", "6")
    assert code == 1 and '"verified": false' in out
    reason = message.removeprefix("structure does not verify against S: ")
    assert json.loads(out) == {"verified": False, "reason": reason}


def _over(nfa_key, symbol):
    """Replace every symbol of one automaton by ``symbol``."""
    def edit(doc):
        nfa = doc["acceptor"] if nfa_key == "acceptor" else \
            doc["multipliers"][nfa_key]
        nfa["alphabet"] = [symbol]
        for t in nfa["transitions"]:
            t[1] = symbol
    return edit


def _duplicate_letter(doc):
    doc["alphabet"].append("a1")


def _pad_letter(doc):
    doc["alphabet"].append("$")
    doc["letter_eval"]["$"] = 1
    doc["multipliers"]["$"] = doc["multipliers"]["a1"]


FOREIGN_SYMBOLS = {
    # a ValueError traceback in transfer
    "multiplier-x": (_over("a1", "x"),
                     "multiplier symbol 'x' is not over the structure's letters"),
    # read as the pair ('a', '1'): transfer exited 0 with a structure
    "multiplier-a1": (_over("a1", "a1"),
                      "multiplier symbol 'a1' is not over the structure's"
                      " letters"),
    # these ended in a KeyError traceback
    "acceptor-zz": (_over("acceptor", "zz"),
                    "acceptor symbol 'zz' is not over the structure's letters"),
    "acceptor-pair": (_over("acceptor", ["a1", "a1"]),
                      "acceptor symbol ('a1', 'a1') is not over the"
                      " structure's letters"),
    # verify accepted these
    "duplicate-letter": (_duplicate_letter,
                         "track letters must be distinct and differ from the"
                         " pad symbol '$'"),
    "pad-letter": (_pad_letter,
                   "track letters must be distinct and differ from the pad"
                   " symbol '$'"),
}


@pytest.mark.parametrize("command", ["transfer", "verify"])
@pytest.mark.parametrize("case", sorted(FOREIGN_SYMBOLS))
def test_auto_refuses_symbols_outside_the_letters(files, capsys, command, case):
    sem_path, sub_path, tmp_path = files
    code, out = run(capsys, "auto", "build", "--semigroup", sem_path,
                    "--gens", "1")
    data = json.loads(out)
    edit, message = FOREIGN_SYMBOLS[case]
    edit(data)
    st_path = tmp_path / "st_foreign.json"
    st_path.write_text(json.dumps(data))
    code = cli.main(["auto", command, "--structure", str(st_path),
                     "--semigroup", sem_path, "--sub", sub_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


def _relabelled(nfa, symbol):
    """``nfa`` with every symbol replaced by ``symbol``, as :func:`_over`
    edits its JSON."""
    return replace(nfa, alphabet=(symbol,), transitions=tuple(
        (s, symbol, d) for s, _sym, d in nfa.transitions))


def _multiplier_over(symbol):
    def edit(struct):
        rel = struct.multipliers["a1"]
        rel = replace(rel, nfa=_relabelled(rel.nfa, symbol))
        return replace(struct, multipliers={**struct.multipliers, "a1": rel})
    return edit


# the hand-built twin of each FOREIGN_SYMBOLS edit
HAND_BUILT = {
    "multiplier-x": _multiplier_over("x"),
    "multiplier-a1": _multiplier_over("a1"),
    "acceptor-zz": lambda struct: replace(
        struct, acceptor=_relabelled(struct.acceptor, "zz")),
    "acceptor-pair": lambda struct: replace(
        struct, acceptor=_relabelled(struct.acceptor, ("a1", "a1"))),
    "duplicate-letter": lambda struct: replace(
        struct, alphabet=struct.alphabet + ("a1",)),
    "pad-letter": lambda struct: replace(
        struct, alphabet=struct.alphabet + ("$",),
        letter_eval={**struct.letter_eval, "$": 1},
        multipliers={**struct.multipliers, "$": struct.multipliers["a1"]}),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_SYMBOLS))
def test_hand_built_structures_are_refused_as_read_ones_are(files, capsys, z6,
                                                            case):
    # the structure checks its own parts, so a hand-built one gets the
    # message the CLI prints for its file; the acceptor "zz" used to end
    # in a KeyError and the duplicate letter to verify
    sem_path, _, _ = files
    code, out = run(capsys, "auto", "build", "--semigroup", sem_path,
                    "--gens", "1")
    struct = automatic.structure_for_finite(z6, [1])
    assert code == 0 and automatic.structure_to_json(struct) == json.loads(out)
    assert HAND_BUILT.keys() == FOREIGN_SYMBOLS.keys()
    with pytest.raises(InputError) as info:
        HAND_BUILT[case](struct)
    assert str(info.value) == FOREIGN_SYMBOLS[case][1]


def test_auto_verify_names_a_max_len_that_is_too_small(files, capsys):
    # the longest accepted word is a1^6; --max-len 5 used to print
    # "verified: false" with a missing element
    sem_path, _, tmp_path = files
    code, out = run(capsys, "auto", "build", "--semigroup", sem_path,
                    "--gens", "1")
    st_path = tmp_path / "st.json"
    st_path.write_text(out)
    argv = ["auto", "verify", "--structure", str(st_path),
            "--semigroup", sem_path, "--max-len"]
    code = cli.main(argv + ["5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "max_len 5" in captured.err
    code = cli.main(argv + ["-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: max_len must be nonnegative\n"
    code, out = run(capsys, *argv, "6")
    assert code == 0 and json.loads(out) == {"verified": True, "reason": "ok"}


def _write_presentation(tmp_path, **fields):
    data = {"alphabet": ["b"], "relations": [["bbbbbbb", "b"]],
            "assignment": {"b": 1}}
    data.update(fields)
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data))
    return str(path)


def _present_argv(command, files, pres_path):
    sem_path, sub_path, _ = files
    if command == "verify":
        return ["present", "verify", "--presentation", pres_path,
                "--semigroup", sem_path]
    return ["present", "synth", "--semigroup", sem_path, "--sub", sub_path,
            "--presentation", pres_path]


@pytest.mark.parametrize("command", ["verify", "synth"])
@pytest.mark.parametrize("field, value, message", [
    ("relations", 5, "presentation JSON needs 'alphabet' and 'relations' lists"),
    ("relations", [5], "each relation must be a pair of words"),
    ("relations", [["bbb", 5]], "a word must be a string or a list of letters, not 5"),
    ("alphabet", ["b", ""], "presentation letters must be nonempty strings"),
    ("assignment", [3], "presentation 'assignment' must map letters to integers"),
    ("assignment", {"b": "x"}, "presentation 'assignment' must map letters to integers"),
    ("assignment", {"b": 1.9}, "presentation 'assignment' must map letters to integers"),
    ("assignment", {"b": True}, "presentation 'assignment' must map letters to integers"),
], ids=["relations-int", "relation-int", "word-int", "empty-letter",
        "assignment-list", "value-string", "value-float", "value-bool"])
def test_present_rejects_malformed_presentations(files, capsys, command,
                                                 field, value, message):
    # 5 and [5] used to end in TypeError tracebacks, [3] in an
    # AttributeError and "x" in a ValueError; 1.9 was read as 1, so
    # b^7 = b over Z6 printed verified: true
    pres_path = _write_presentation(files[2], **{field: value})
    code = cli.main(_present_argv(command, files, pres_path))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("assignment, message", [
    ({}, "letter 'b' has no assigned element"),
    ({"b": 99}, "assignment of 'b' 99 not in [0, 6)"),
    ({"b": 6}, "assignment of 'b' 6 not in [0, 6)"),
    ({"b": -1}, "assignment of 'b' -1 not in [0, 6)"),
], ids=["missing", "too-big", "identity", "negative"])
def test_present_synth_requires_assigned_letters(files, capsys, assignment,
                                                 message):
    # a missing letter used to be a KeyError traceback and 99 or 6 an
    # IndexError; -1 was used as a Python index, the last element
    pres_path = _write_presentation(files[2], assignment=assignment)
    code = cli.main(_present_argv("synth", files, pres_path))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_present_refutes_a_quotient_with_long_representatives(files, capsys):
    # <b | b^19 = b> holds in Z6 and b -> 1 generates it, but the quotient
    # has 18 classes; its representative b^18 used to make verify fail with
    # an error and enumerate print "complete": false
    pres_path = _write_presentation(files[2], relations=[["b" * 19, "b"]])
    code, out = run(capsys, *_present_argv("verify", files, pres_path))
    assert code == 1
    assert json.loads(out) == {"verified": False, "violated_relation": None}
    code, out = run(capsys, "present", "enumerate", "--presentation", pres_path)
    data = json.loads(out)
    assert code == 0 and data["complete"] is True and data["size"] == 18


def test_running_out_of_memory_is_a_bounded_error(files, capsys, monkeypatch):
    # An infinite quotient under a huge --max-classes fills memory before
    # the node bound fires; that ends as an error on stderr, not a traceback.
    # main reuses its parser, whose handlers are bound when it is built, so
    # the error is raised from the enumerator the handler calls
    def exhausting(pres, max_classes):
        raise MemoryError

    monkeypatch.setattr(present, "enumerate_presentation", exhausting)
    pres_path = _write_presentation(files[2], alphabet=["a", "b"],
                                    relations=[["ab", "ba"]])
    argv = ["present", "enumerate", "--presentation", pres_path,
            "--max-classes", "100000000"]
    # the message names the soft address-space limit, or that there is none
    for soft, named in ((resource.RLIM_INFINITY, "no address-space limit set"),
                        (1536 << 20, "address-space limit 1536 MB")):
        monkeypatch.setattr(cli.resource, "getrlimit",
                            lambda _which, soft=soft: (soft, resource.RLIM_INFINITY))
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: out of memory ({named}); try a"
                                " smaller input or bound\n")


def test_present_reads_integer_assignments(files, capsys):
    # b -> 1 presents Z6 but not T = {0, 3}
    pres_path = _write_presentation(files[2])
    code, out = run(capsys, *_present_argv("verify", files, pres_path))
    assert code == 0 and json.loads(out)["verified"] is True
    code = cli.main(_present_argv("synth", files, pres_path))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: the base presentation does not present T\n"


@pytest.mark.parametrize("value", [0, 1, 2, 4, 5])
def test_present_synth_refuses_a_base_that_does_not_generate_t(files, capsys,
                                                               value):
    # 0, 2 and 4 used to exit 2 with "3 is not generated by [0]" (or [2],
    # [4]) from the class-group lifts, built before the base was checked
    pres_path = _write_presentation(files[2], relations=[["bbb", "b"]],
                                    assignment={"b": value})
    code = cli.main(_present_argv("synth", files, pres_path))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: the base presentation does not present T\n"
    pres_path = _write_presentation(files[2], relations=[["bbb", "b"]],
                                    assignment={"b": 3})
    code, out = run(capsys, *_present_argv("synth", files, pres_path))
    assert code == 0 and json.loads(out)["assignment"]["b"] == 3


@pytest.mark.parametrize("order, message", [
    (6.0, "declared order 6.0 is a float, not an integer"),
    ("6", "declared order '6' is a str, not an integer"),
], ids=["float", "string"])
def test_semigroup_order_must_be_an_integer(files, capsys, z6, order, message):
    # 6.0 used to validate as a group; "6" gave "declared order 6 != table
    # size 6"
    sem_path, sub_path, tmp_path = files
    declared = tmp_path / "declared.json"
    declared.write_text(json.dumps({**z6.to_json_dict(), "order": order}))
    code, out = run(capsys, "validate", "--semigroup", str(declared),
                    "--format", "json")
    assert code == 1
    assert json.loads(out) == {"valid": False, "witness": None, "error": message}
    code = cli.main(["green-index", "--semigroup", str(declared), "--sub", sub_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_semigroup_names_must_be_a_list(files, capsys, z6):
    # used to end in a TypeError traceback in every command
    sem_path, sub_path, tmp_path = files
    named = tmp_path / "named.json"
    named.write_text(json.dumps({**z6.to_json_dict(), "names": 5}))
    code, out = run(capsys, "validate", "--semigroup", str(named),
                    "--format", "json")
    assert code == 1
    assert json.loads(out) == {"valid": False, "witness": None,
                               "error": "semigroup 'names' must be a list"}
    code = cli.main(["green-index", "--semigroup", str(named), "--sub", sub_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: semigroup 'names' must be a list\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text("bd1t0 ", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abt", max_size=2), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _mutated(doc, data):
    """The document with one position replaced by a drawn JSON value, or
    (below the root) deleted."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(json_values)
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ_DOCS = {
    "semigroup": {"order": 6, "table": [[(x + y) % 6 for y in range(6)]
                                        for x in range(6)],
                  "names": ["e", "a", "a2", "a3", "a4", "a5"]},
    "sub": {"members": [0, 3]},
    "presentation": {"alphabet": ["b", "t0"],
                     "relations": [["bbb", "b"], [["b", "t0"], "b"], ["t0t0", "t0"]],
                     "assignment": {"b": 3, "t0": 0}},
    # what `auto build --gens 1` writes for Z6
    "structure": automatic.structure_to_json(
        automatic.structure_for_finite(factories.zmod(6), [1])),
}
FUZZ_COMMANDS = {
    "validate": ("semigroup",),
    "present enumerate": ("presentation",),
    "present verify": ("presentation", "semigroup"),
    "present synth": ("presentation", "semigroup", "sub"),
    "auto verify": ("structure", "semigroup"),
    "auto transfer": ("structure", "semigroup", "sub"),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FUZZ_COMMANDS)), st.data())
def test_fuzzed_json_exits_with_a_documented_code(fuzz_dir, command, data):
    inputs = FUZZ_COMMANDS[command]
    target = data.draw(st.sampled_from(inputs))
    paths = {}
    for name in inputs:
        doc = FUZZ_DOCS[name]
        if name == target:
            doc = _mutated(doc, data)
        paths[name] = fuzz_dir / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = command.split() + [
        arg for name in inputs
        for arg in (f"--{name}", str(paths[name]))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code != 2 or out.getvalue() == "", (argv, out.getvalue())


FLAG_COMMANDS = {
    "schreier": ("--gens", "semigroup", "sub"),
    "auto build": ("--gens", "semigroup"),
    "growth series": ("--gens", "semigroup"),
    "growth dominate": ("--sub-gens", "semigroup", "sub"),
    "schutz": ("--sub-gens", "semigroup", "sub"),
}


@pytest.mark.parametrize("command", sorted(FLAG_COMMANDS))
def test_generator_flags_exit_with_a_documented_code(files, command):
    # -1 used to wrap to the last element; n (6) is the adjoined identity,
    # an index only where S^1 is meant
    sem_path, sub_path, _ = files
    flag, *inputs = FLAG_COMMANDS[command]
    paths = {"semigroup": sem_path, "sub": sub_path}
    extra = {"growth dominate": ["--r", "0,1,2,6"], "schutz": ["--class-of", "1"]}
    for value in ("-1", "6", "7", "", "x", "1,-1"):
        argv = command.split() + [f"{flag}={value}"] + extra.get(command, [])
        argv += [arg for name in inputs for arg in (f"--{name}", paths[name])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        assert code == 0 or out.getvalue() == "", (argv, out.getvalue())


def test_readme_cli_examples_parse(files, capsys, monkeypatch):
    # every example runs, in order, over Z6 and {0, 3}; a "> file" redirect
    # writes stdout to that file, as the shell would
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith("greenindex ")]
    assert lines
    monkeypatch.chdir(files[2])
    for line in lines:
        command, _, target = line.partition(">")
        code = cli.main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if target:
            pathlib.Path(target.strip()).write_text(out, encoding="utf-8")
