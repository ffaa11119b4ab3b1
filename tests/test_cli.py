import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppric
from ppric import codes
from ppric.cli import build_parser, main
from ppric.codes import PpricCode, make_code
from ppric.construct import build_disjoint
from ppric.covering import fano_plane, serialize_design
from ppric.errors import FormatError
from ppric.schemes import JohnsonPpricCode
from ppric.words import QaryWord, distance


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def jrun(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert err == ""
    return rc, json.loads(out)


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(build_disjoint(6, 2, 0).dumps())
    return str(path)


@pytest.fixture
def bad_code_file(tmp_path):
    bad = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
    path = tmp_path / "bad.json"
    path.write_text(bad.dumps())
    return str(path)


def test_verify_ok(capsys, code_file):
    rc, doc = jrun(capsys, "verify", "--code", code_file)
    assert rc == 0
    assert doc["method"] == "exact"
    assert doc["is_ppric"] is True


def test_verify_enumeration(capsys, code_file):
    rc, doc = jrun(capsys, "verify", "--code", code_file, "--enumerate")
    assert rc == 0
    assert doc["method"] == "enumeration"


def test_verify_qary(capsys, code_file):
    rc, doc = jrun(capsys, "verify", "--code", code_file, "--q", "3")
    assert rc == 0
    assert doc["method"] == "qary[q=3]"


def test_verify_failing_code(capsys, bad_code_file):
    rc, out, err = run(capsys, "verify", "--code", bad_code_file)
    assert rc == 1
    doc = json.loads(out)
    assert doc["is_ppric"] is False
    assert doc["violator"] == "10000"


def test_verify_capacity_exit(capsys, monkeypatch, code_file):
    # no code in the catalog comes near the verifier's node budget, so
    # shrink it to one node
    monkeypatch.setattr(codes, "MULTIHIT_NODE_BUDGET", 1)
    rc, out, err = run(capsys, "verify", "--code", code_file)
    assert rc == 3
    assert out == ""
    assert err.startswith("error: capacity:")
    assert err.count("\n") == 1


def test_import_leaves_the_process_pool_unloaded():
    # every verb runs in this one process, so the CLI start-up should not
    # pay for multiprocessing, pickle, socket and subprocess
    env = {**os.environ, "PYTHONPATH": str(Path(ppric.__file__).parents[1])}
    probe = ("import ppric, ppric.cli, sys; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_verify_unreadable_file(capsys, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{ not json")
    listing = tmp_path / "list.json"
    listing.write_text("[]")  # JSON, but not an object
    for path in (junk, listing, tmp_path / "missing.json"):
        rc, out, err = run(capsys, "verify", "--code", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("error: format:") and err.count("\n") == 1


# a binary and a Johnson code file that verify, then documents built from
# them that must be refused: a field that is not a JSON integer ...
BINARY = {"L": 6, "s": 2, "r": 0, "codewords": ["110000", "001100", "000011"]}
JOHNSON = {"n": 10, "L": 5, "s": 1, "r": 1, "x": [1, 2, 3, 4, 5],
           "codewords": [[2, 3, 4, 5, 6], [1, 3, 4, 5, 7], [1, 2, 4, 5, 8],
                         [1, 2, 3, 5, 9], [1, 2, 3, 4, 10]]}
MISTYPED = {
    "L-float": {**BINARY, "L": 6.9},
    "L-string": {**BINARY, "L": "6"},
    "L-bool": {"L": True, "s": 0, "r": 0, "codewords": ["0"]},
    "johnson-r-string": {**JOHNSON, "r": "1"},
    "johnson-r-float": {**JOHNSON, "r": 1.5},
    "johnson-s-float": {**JOHNSON, "s": 1.0},
    "johnson-x-float": {**JOHNSON, "x": [1, 2, 3, 4, 5.0]},
    "johnson-codeword-float": {
        **JOHNSON, "codewords": [[2, 3, 4, 5, 6.0], *JOHNSON["codewords"][1:]]
    },
}
# ... or a Johnson code that breaks a precondition a binary code keeps
MALFORMED = {
    **MISTYPED,
    "johnson-r-negative": {**JOHNSON, "r": -1},
    "johnson-repeated-codeword": {
        **JOHNSON, "codewords": JOHNSON["codewords"] + JOHNSON["codewords"][:1]
    },
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED)
def test_malformed_code_document_is_one_stderr_line(capsys, tmp_path, doc):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    db = tmp_path / "db.txt"
    db.write_text("{1,2,3,4,5}\n{1,2,3,4,6}\n")
    runs = [["verify", "--code", str(path)]]
    if "x" in doc:
        runs += [["johnson", "--verify", str(path)],
                 ["simulate", "--db", str(db), "--code", str(path),
                  "--x", "{1,2,3,4,5}"]]
    for argv in runs:
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith(("error: format:", "error: parameter:"))
        assert err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {**JOHNSON, "x": [1, 2, 3, 4, 5, 5]},
    {**JOHNSON, "codewords": [[2, 3, 4, 5, 6, 2], *JOHNSON["codewords"][1:]]},
], ids=["x", "codeword"])
def test_johnson_code_with_a_repeated_element_is_refused(capsys, tmp_path,
                                                         doc):
    # without the repeat the document verifies; with it, it is malformed
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "johnson", "--verify", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: format: repeated element in [")
    assert err.count("\n") == 1


def test_repeated_johnson_element_in_an_argument_or_a_record(capsys,
                                                            tmp_path):
    # {1,2,3} would be a valid centre at L = 3
    rc, out, err = run(capsys, "johnson", "--construct", "--n", "8", "--L",
                       "3", "--s", "1", "--r", "0", "--x", "{1,1,2,3}")
    assert (rc, out) == (2, "")
    assert err == "error: format: repeated element in [1, 1, 2, 3]\n"
    rc, code_doc = jrun(capsys, "johnson", "--construct", "--n", "8",
                        "--L", "4", "--s", "1", "--r", "0")
    code = tmp_path / "jcode.json"
    code.write_text(json.dumps(code_doc))
    db = tmp_path / "jdb.txt"
    db.write_text("{1,2,3,4}\n# a comment\n{5,6,6,7,8}\n")
    rc, out, err = run(capsys, "simulate", "--db", str(db), "--code",
                       str(code), "--x", "{1,2,3,4}")
    assert (rc, out) == (2, "")
    assert err == "error: format: line 3: repeated element in [5, 6, 6, 7, 8]\n"


@pytest.mark.parametrize("doc", MISTYPED.values(), ids=MISTYPED)
def test_loads_refuses_a_field_that_is_not_a_json_integer(doc):
    cls = JohnsonPpricCode if "x" in doc else PpricCode
    with pytest.raises(FormatError, match="is not a JSON integer"):
        cls.loads(json.dumps(doc))


@pytest.mark.parametrize("template", [
    ["simulate", "--db", "{missing}", "--code", "{code}", "--x", "110000"],
    ["covering", "--design", "{missing}"],
    ["johnson", "--product", "{missing}", "{missing}"],
], ids=lambda argv: argv[0])
def test_missing_input_file_is_one_stderr_line(capsys, tmp_path, code_file,
                                               template):
    missing = str(tmp_path / "missing.txt")
    argv = [a.format(missing=missing, code=code_file) for a in template]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: format: cannot read {missing}: ")
    assert err.count("\n") == 1


def test_usage_error_is_one_stderr_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--L", "5", "--r", "0"])  # --s missing
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:")
    assert err.count("\n") == 1


def test_one_parser_serves_every_call(capsys, code_file, bad_code_file):
    # built once per process, so nothing one call parses may reach the next
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    first = capsys.readouterr().out
    rc, doc = jrun(capsys, "verify", "--code", bad_code_file, "--q", "3")
    assert (rc, doc["method"]) == (1, "qary[q=3]")
    rc, doc = jrun(capsys, "verify", "--code", code_file)
    assert (rc, doc["method"]) == (0, "exact")
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # --code missing, after calls that gave it
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: usage:")
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert capsys.readouterr().out == first


def test_jobs_flag_is_a_usage_error(capsys):
    # the searches run serially; there is no process fan-out to select
    for argv in (["search", "--L", "7", "--s", "3", "--r", "0", "--jobs", "2"],
                 ["sweep", "--L", "6", "--s", "2", "--r", "0", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert err.count("\n") == 1


def test_construct_verify_round_trip(capsys, tmp_path):
    rc, doc = jrun(capsys, "construct", "--L", "12", "--s", "4", "--r", "1")
    assert rc == 0
    assert doc["size"] == len(doc["codewords"])
    assert doc["rule"]
    path = tmp_path / "built.json"
    path.write_text(json.dumps(doc))
    rc2, verdict = jrun(capsys, "verify", "--code", str(path))
    assert rc2 == 0 and verdict["is_ppric"] is True


def test_construct_list_and_filter(capsys):
    rc, recipes = jrun(capsys, "construct", "--L", "12", "--s", "4", "--r", "1",
                       "--list")
    assert rc == 0
    assert all("rule" in rec and "size" in rec for rec in recipes)
    sizes = [rec["size"] for rec in recipes]
    assert sizes == sorted(sizes)
    bare = recipes[0]["rule"].split("[", 1)[0].removeprefix("ub.")
    rc2, doc = jrun(capsys, "construct", "--L", "12", "--s", "4", "--r", "1",
                    "--rule", bare)
    assert rc2 == 0 and doc["size"] == sizes[0]


def test_construct_k_and_t_filter_without_rule(capsys):
    # --k and --t each narrow the catalog, with or without --rule
    rc, doc = jrun(capsys, "construct", "--L", "12", "--s", "4", "--r", "1",
                   "--k", "4")
    assert rc == 0 and doc["rule"] == "ub.construction2[k=4,t=0]"
    rc, recipes = jrun(capsys, "construct", "--L", "12", "--s", "4", "--r",
                       "1", "--t", "0", "--list")
    assert rc == 0 and recipes
    assert all(rec["rule"].endswith(",t=0]") for rec in recipes)
    rc, out, err = run(capsys, "construct", "--L", "12", "--s", "4", "--r",
                       "1", "--k", "3")
    assert rc == 2 and out == ""
    assert err.startswith("error: parameter:") and "None" not in err


def test_construct_unknown_rule(capsys):
    rc, out, err = run(capsys, "construct", "--L", "12", "--s", "4", "--r", "1",
                       "--rule", "nonsense")
    assert rc == 2
    assert err.startswith("error: parameter:")


def test_bounds_pinned_point(capsys):
    rc, doc = jrun(capsys, "bounds", "--L", "34", "--s", "16", "--r", "0")
    assert rc == 0
    assert doc["exact"] == 6
    assert doc["best_lower"] == 6
    assert doc["best_upper"] == 6


def test_exact_n(capsys):
    rc, doc = jrun(capsys, "exact-n", "--L", "8", "--s", "3", "--r", "0")
    assert rc == 0 and doc["exact"] == 4 and doc["rule"]
    rc2, doc2 = jrun(capsys, "exact-n", "--L", "9", "--s", "3", "--r", "1")
    assert rc2 == 0 and doc2["exact"] is None


def test_search_pinned_point(capsys):
    rc, doc = jrun(capsys, "search", "--L", "5", "--s", "2", "--r", "0")
    assert rc == 0
    assert doc["n_exact"] == 4
    assert len(doc["witness"]["codewords"]) == 4


def test_search_capacity_exit(capsys):
    rc, out, err = run(capsys, "search", "--L", "9", "--s", "3", "--r", "1",
                       "--node-budget", "50")
    assert rc == 3
    assert err.startswith("error: capacity:")


@pytest.mark.parametrize("argv", [
    ["search", "--L", "9", "--s", "3", "--r", "1"],
    ["search", "--L", "11", "--s", "3", "--r", "1"],
    ["sweep", "--L", "9..11", "--s", "3", "--r", "1"],
])
def test_negative_node_budget_is_a_parameter_error(capsys, argv):
    # refused before any output: no answer, no CSV header
    rc, out, err = run(capsys, *argv, "--node-budget", "-5")
    assert rc == 2 and out == ""
    assert err.startswith("error: parameter:") and err.count("\n") == 1


def test_sweep_csv(capsys):
    rc, out, err = run(capsys, "sweep", "--L", "5..8", "--s", "2", "--r", "0")
    assert rc == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["L"] for row in rows] == ["5", "6", "7", "8"]
    six = rows[1]
    assert six["best_lower"] == "3" and six["exact"] == "3"
    assert six["search"] == "3"
    assert six["lower_le_upper"] == "yes" and six["exact_eq_search"] == "yes"


def test_sweep_skips_inadmissible_points_and_notes_capacity(capsys):
    rc, out, err = run(capsys, "sweep", "--L", "5..7", "--s", "2..3", "--r",
                       "0", "--node-budget", "1")
    assert rc == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["L"], row["s"]) for row in rows] == [
        ("5", "2"), ("6", "2"), ("7", "2"), ("7", "3")]
    # each bracket closes without a tree node, so a 1-node budget is enough
    for row in rows:
        assert row["search"] == row["exact"] != ""
        assert row["note"] == ""
    # (9,3,1): lower bound 6, N = 7, so the tree must run and the budget
    # ends it
    rc, out, err = run(capsys, "sweep", "--L", "9", "--s", "3", "--r", "1",
                       "--node-budget", "1")
    assert rc == 0 and err == ""
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["search"] == ""
    assert row["note"] == "search capacity: search node budget 1 exceeded"


def test_sweep_no_search_big_point(capsys):
    rc, out, err = run(capsys, "sweep", "--L", "33", "--s", "16", "--r", "0",
                       "--no-search")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["best_lower"] == "7"
    assert rows[0]["exact"] == ""
    assert rows[0]["search"] == ""


def test_sweep_past_max_length_notes_the_refused_search(capsys):
    # the bounds reach L = 257 but a search word cannot: the row is kept,
    # with the search cell empty and a note, as for a capacity refusal
    rc, out, err = run(capsys, "sweep", "--L", "255..257", "--s", "3",
                       "--r", "1", "--node-budget", "10")
    assert rc == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["L"] for row in rows] == ["255", "256", "257"]
    assert [row["search"] for row in rows] == ["4", "4", ""]
    assert [row["exact"] for row in rows] == ["4", "4", "4"]
    assert [row["note"] for row in rows] == [
        "", "", "search parameter: L must be in 1..256, got 257"]


def test_simulate_deterministic(capsys, code_file, tmp_path):
    db = tmp_path / "db.txt"
    db.write_text("110000\n000011\n101010\n000000\n")
    argv = ["simulate", "--db", str(db), "--code", code_file,
            "--x", "110000", "--seed", "0xDEAD"]
    rc1, out1, err1 = run(capsys, *argv)
    rc2, out2, err2 = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["reconstructed"] == [1]  # r=0: only the exact match
    assert doc["seed"] == 0xDEAD
    assert len(doc["queries"]) == 3


def test_simulate_qary_symbols_past_chr(capsys, code_file, tmp_path):
    # symbols at and past 0x110000, where chr() ends, and a query symbol,
    # 1999999, that no record carries
    records = ["0,1500000,0,0,0,0", "1114112,1500000,0,0,0,0",
               "0,1500000,0,0,0,7", "1999999,0,5,5,5,5"]
    db = tmp_path / "db.txt"
    db.write_text("\n".join(records) + "\n")
    rc, doc = jrun(capsys, "simulate", "--db", str(db), "--code", code_file,
                   "--x", "0,1500000,0,0,0,0", "--q", "2000000", "--seed", "5")
    assert rc == 0
    words = [QaryWord.from_string(2_000_000, r) for r in records]
    for query, answer in zip(doc["queries"], doc["answers"]):
        z = QaryWord.from_string(2_000_000, query["vector"])
        assert answer == [m for m, w in enumerate(words, start=1)
                          if distance(z, w) <= query["radius"]]
    assert doc["reconstructed"] == [1]  # r=0: only the exact match


def test_simulate_johnson(capsys, tmp_path):
    rc, code_doc = jrun(capsys, "johnson", "--construct", "--n", "8",
                        "--L", "4", "--s", "1", "--r", "0")
    assert rc == 0
    code = tmp_path / "jcode.json"
    code.write_text(json.dumps(code_doc))
    db = tmp_path / "jdb.txt"
    db.write_text("{1,2,3,4}\n{5,6,7,8}\n{1,2,3,5}\n")
    rc2, doc = jrun(capsys, "simulate", "--db", str(db), "--code", str(code),
                    "--x", "{1,2,3,4}", "--seed", "7")
    assert rc2 == 0
    assert doc["reconstructed"] == [1]
    assert doc["privacy_level"] is None


def test_covering_design_file(capsys, tmp_path):
    path = tmp_path / "fano.txt"
    path.write_text(serialize_design(fano_plane()))
    rc, doc = jrun(capsys, "covering", "--design", str(path))
    assert rc == 0
    assert doc == {"n": 7, "k": 3, "t": 2, "size": 7, "covers": True}


def test_covering_exact_and_bound(capsys):
    rc, doc = jrun(capsys, "covering", "--exact", "--n", "4", "--k", "2",
                   "--t", "2")
    assert rc == 0
    assert doc["c"] == 6
    assert "schoenheim" not in doc  # k = t sits outside the bound's regime
    rc2, doc2 = jrun(capsys, "covering", "--schoenheim", "--n", "13",
                     "--k", "4", "--t", "2")
    assert rc2 == 0 and doc2["schoenheim"] == 13


def test_covering_needs_parameters(capsys):
    rc, out, err = run(capsys, "covering", "--exact")
    assert rc == 2
    assert err.startswith("error: parameter:")


def test_covering_capacity_exit(capsys):
    rc, out, err = run(capsys, "covering", "--exact", "--n", "11", "--k", "3",
                       "--t", "2")
    assert rc == 3
    assert err.startswith("error: capacity:")


def test_johnson_exact_check(capsys):
    rc, doc = jrun(capsys, "johnson", "--exact-check", "--n", "8", "--L", "4",
                   "--s", "1", "--r", "0")
    assert rc == 0
    assert doc["confirmed"] is True and doc["size"] == 3


def test_johnson_exact_check_capacity_exit(capsys):
    # 54,600 sphere words by 59,475 elements: past BUILD_CAP, so refused
    # before the instance is built
    rc, out, err = run(capsys, "johnson", "--exact-check", "--n", "25",
                       "--L", "10", "--s", "3", "--r", "0")
    assert rc == 3 and out == ""
    assert err.startswith("error: capacity:") and "BUILD_CAP" in err


def test_johnson_construct_verify_round_trip(capsys, tmp_path):
    rc, doc = jrun(capsys, "johnson", "--construct", "--n", "10", "--L", "5",
                   "--s", "1", "--r", "1")
    assert rc == 0 and len(doc["codewords"]) == 5
    path = tmp_path / "j.json"
    path.write_text(json.dumps(doc))
    rc2, verdict = jrun(capsys, "johnson", "--verify", str(path))
    assert rc2 == 0 and verdict["is_ppric"] is True


def test_verify_reads_a_johnson_code_file(capsys, tmp_path):
    rc, doc = jrun(capsys, "johnson", "--construct", "--n", "8", "--L", "4",
                   "--s", "1", "--r", "0")
    path = tmp_path / "j.json"
    path.write_text(json.dumps(doc))
    rc2, verdict = jrun(capsys, "verify", "--code", str(path))
    assert rc2 == 0
    assert verdict["method"] == "johnson" and verdict["is_ppric"] is True


@pytest.mark.parametrize("flag", [["--q", "3"], ["--enumerate"]])
def test_verify_refuses_hamming_flags_on_a_johnson_code(capsys, tmp_path,
                                                        flag):
    rc, doc = jrun(capsys, "johnson", "--construct", "--n", "8", "--L", "4",
                   "--s", "1", "--r", "0")
    path = tmp_path / "j.json"
    path.write_text(json.dumps(doc))
    rc2, out, err = run(capsys, "verify", "--code", str(path), *flag)
    assert rc2 == 2 and out == ""
    assert err.count("\n") == 1 and flag[0] in err


def test_simulate_refuses_q_on_a_johnson_code(capsys, tmp_path):
    rc, doc = jrun(capsys, "johnson", "--construct", "--n", "8", "--L", "4",
                   "--s", "1", "--r", "0")
    path = tmp_path / "j.json"
    path.write_text(json.dumps(doc))
    db = tmp_path / "jdb.txt"
    db.write_text("{1,2,3,4}\n{5,6,7,8}\n")
    rc2, out, err = run(capsys, "simulate", "--db", str(db), "--code",
                        str(path), "--x", "{1,2,3,4}", "--q", "3")
    assert rc2 == 2 and out == ""
    assert err == "error: parameter: --q does not apply to a Johnson code\n"


def test_simulate_names_the_line_of_a_bad_record(capsys, tmp_path,
                                                 code_file):
    db = tmp_path / "db.txt"
    db.write_text("# six coordinates\n110000\n11000\n")
    rc, out, err = run(capsys, "simulate", "--db", str(db), "--code",
                       code_file, "--x", "110000")
    assert rc == 2 and out == ""
    assert err.startswith("error: format: line 3: ")
    assert err.count("\n") == 1


def test_johnson_verify_rejects_a_binary_code_file(capsys, code_file):
    rc, out, err = run(capsys, "johnson", "--verify", code_file)
    assert rc == 2 and out == ""
    assert err == f"error: format: {code_file} is not a Johnson code file\n"


def test_johnson_product(capsys, tmp_path):
    path = tmp_path / "fano.txt"
    path.write_text(serialize_design(fano_plane()))
    rc, doc = jrun(capsys, "johnson", "--product", str(path), str(path))
    assert rc == 0
    assert doc["covering"] == {"at_least_one": True, "exactly_one": True}
    assert len(doc["code"]["codewords"]) == 49


def test_johnson_missing_parameters(capsys):
    rc, out, err = run(capsys, "johnson", "--construct", "--n", "8")
    assert rc == 2
    assert err.startswith("error: parameter:")
