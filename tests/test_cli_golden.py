"""Golden CLI output: argv, exit code and stdout of in-process ``cli.main``.

Any change to what a verb prints shows up here byte for byte.  When a
change of output is intended, regenerate the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and name every difference in CHANGES.md.  ``{dir}`` in an argv stands for
a scratch directory holding the input files below.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ppric.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

# input files, as literal text so the golden output does not depend on
# any serializer under test
FILES = {
    "code.json": '{"L": 6, "codewords": ["110000", "001100", "000011"],'
                 ' "r": 0, "s": 2}\n',
    "bad.json": '{"L": 5, "codewords": ["11000", "10100", "10010", "10001"],'
                ' "r": 0, "s": 2}\n',
    "db.txt": "110000\n000011\n101010\n000000\n111000\n010100\n",
    # three components on interleaved coordinates, two coordinates unused
    "split.json": '{"L": 14, "codewords": ["10101000000000", "00101010000000",'
                  ' "01010100000000", "00000101010000", "00000000001110"],'
                  ' "r": 3, "s": 3}\n',
    # build_extremal(3, 1): all 3-subsets of each half of 8 coordinates
    "extremal.json": '{"L": 8, "codewords": ["11100000", "11010000",'
                     ' "10110000", "01110000", "00001110", "00001101",'
                     ' "00001011", "00000111"], "r": 1, "s": 3}\n',
    "db8.txt": "11000000\n00000011\n10101010\n00000000\n11100000\n"
               "01010100\n11110000\n10000001\n",
    "qdb.txt": "0,0,0,0,0,0\n1,2,0,0,0,0\n0,0,2,2,0,0\n2,2,2,2,2,2\n"
               "1,0,0,0,0,1\n0,1,0,0,0,0\n1,0,0,0,0,0\n",
    # johnson --construct --n 10 --L 5 --s 1 --r 1
    "johnson.json": '{"L": 5, "codewords": [[2, 3, 4, 5, 6], [1, 3, 4, 5, 7],'
                    ' [1, 2, 4, 5, 8], [1, 2, 3, 5, 9], [1, 2, 3, 4, 10]],'
                    ' "n": 10, "r": 1, "s": 1, "x": [1, 2, 3, 4, 5]}\n',
    # the same code without its last codeword: 2r+2 words never suffice
    "johnson_short.json": '{"L": 5, "codewords": [[2, 3, 4, 5, 6],'
                          ' [1, 3, 4, 5, 7], [1, 2, 4, 5, 8],'
                          ' [1, 2, 3, 5, 9]], "n": 10, "r": 1, "s": 1,'
                          ' "x": [1, 2, 3, 4, 5]}\n',
    # johnson --construct --n 12 --L 6 --s 1 --r 1 --x {2,4,6,8,10,12}
    "johnson_x.json": '{"L": 6, "codewords": [[1, 4, 6, 8, 10, 12],'
                      ' [2, 3, 6, 8, 10, 12], [2, 4, 5, 8, 10, 12],'
                      ' [2, 4, 6, 7, 10, 12], [2, 4, 6, 8, 9, 12]], "n": 12,'
                      ' "r": 1, "s": 1, "x": [2, 4, 6, 8, 10, 12]}\n',
    # the same code without its first codeword
    "johnson_x_short.json": '{"L": 6, "codewords": [[2, 3, 6, 8, 10, 12],'
                            ' [2, 4, 5, 8, 10, 12], [2, 4, 6, 7, 10, 12],'
                            ' [2, 4, 6, 8, 9, 12]], "n": 12, "r": 1, "s": 1,'
                            ' "x": [2, 4, 6, 8, 10, 12]}\n',
    "jdb.txt": "{1,2,3,4,5}\n{1,2,3,4,6}\n{1,2,3,6,7}\n{6,7,8,9,10}\n"
               "{2,3,4,5,10}\n{1,3,5,7,9}\n{1,2,3,9,10}\n",
}

CASES = [
    ["search", "--L", "7", "--s", "3", "--r", "0"],
    ["search", "--L", "8", "--s", "3", "--r", "0"],
    ["search", "--L", "9", "--s", "3", "--r", "1"],
    ["search", "--L", "10", "--s", "3", "--r", "1"],
    ["search", "--L", "11", "--s", "3", "--r", "1"],
    ["search", "--L", "9", "--s", "4", "--r", "0"],
    ["search", "--L", "9", "--s", "3", "--r", "1", "--node-budget", "100"],
    # wide points: most of their time goes to building the instance
    ["search", "--L", "13", "--s", "3", "--r", "2"],
    ["search", "--L", "12", "--s", "4", "--r", "0"],
    ["search", "--L", "11", "--s", "5", "--r", "0"],
    ["search", "--L", "14", "--s", "3", "--r", "2"],
    ["covering", "--exact", "--n", "6", "--k", "4", "--t", "2"],
    ["covering", "--exact", "--n", "7", "--k", "3", "--t", "2"],
    ["covering", "--exact", "--n", "7", "--k", "4", "--t", "3"],
    ["covering", "--exact", "--n", "8", "--k", "3", "--t", "2"],
    ["covering", "--exact", "--n", "10", "--k", "4", "--t", "3"],
    ["covering", "--exact", "--n", "11", "--k", "3", "--t", "2"],
    # k = t: deepening starts at 1
    ["covering", "--exact", "--n", "6", "--k", "3", "--t", "3"],
    # k = n: one block covers everything, and no Schonheim bound applies
    ["covering", "--exact", "--n", "5", "--k", "5", "--t", "2"],
    ["johnson", "--exact-check", "--n", "8", "--L", "4", "--s", "1",
     "--r", "0"],
    ["johnson", "--exact-check", "--n", "12", "--L", "4", "--s", "1",
     "--r", "0"],
    ["johnson", "--exact-check", "--n", "16", "--L", "8", "--s", "1",
     "--r", "0"],
    ["johnson", "--exact-check", "--n", "10", "--L", "5", "--s", "1",
     "--r", "1"],
    ["johnson", "--exact-check", "--n", "10", "--L", "4", "--s", "1",
     "--r", "1"],
    ["johnson", "--exact-check", "--n", "18", "--L", "9", "--s", "1",
     "--r", "0"],
    ["bounds", "--L", "9", "--s", "3", "--r", "2"],
    ["bounds", "--L", "10", "--s", "3", "--r", "3"],
    ["bounds", "--L", "12", "--s", "4", "--r", "1"],
    ["bounds", "--L", "34", "--s", "16", "--r", "0"],
    ["sweep", "--L", "6..8", "--s", "2", "--r", "0..1"],
    ["construct", "--L", "12", "--s", "3", "--r", "1"],
    ["construct", "--L", "12", "--s", "3", "--r", "1", "--list"],
    ["construct", "--L", "18", "--s", "4", "--r", "3", "--list"],
    ["construct", "--L", "8", "--s", "2", "--r", "3", "--list"],
    ["construct", "--L", "17", "--s", "8", "--r", "0", "--list"],
    ["construct", "--L", "15", "--s", "4", "--r", "2", "--list"],
    ["construct", "--L", "11", "--s", "2", "--r", "2", "--list"],
    ["construct", "--L", "18", "--s", "4", "--r", "3", "--rule", "doubling"],
    ["construct", "--L", "8", "--s", "2", "--r", "3", "--rule", "doubling"],
    ["construct", "--L", "17", "--s", "8", "--r", "0", "--rule", "eps8"],
    ["construct", "--L", "9", "--s", "4", "--r", "0", "--rule", "design952"],
    ["construct", "--L", "15", "--s", "4", "--r", "2", "--rule", "design952"],
    ["construct", "--L", "11", "--s", "2", "--r", "2", "--rule", "design422"],
    ["construct", "--L", "12", "--s", "4", "--r", "1", "--rule",
     "construction2", "--k", "2"],
    ["construct", "--L", "12", "--s", "3", "--r", "2", "--rule",
     "construction3", "--k", "3"],
    ["construct", "--L", "30", "--s", "8", "--r", "3", "--rule",
     "construction2", "--k", "8"],
    ["verify", "--code", "{dir}/code.json"],
    ["verify", "--code", "{dir}/bad.json"],
    ["verify", "--code", "{dir}/split.json"],
    ["verify", "--code", "{dir}/code.json", "--q", "3"],
    ["verify", "--code", "{dir}/bad.json", "--q", "3"],
    # the violator's symbols depend on q
    ["verify", "--code", "{dir}/bad.json", "--q", "4"],
    ["verify", "--code", "{dir}/bad.json", "--q", "5"],
    ["verify", "--code", "{dir}/code.json", "--enumerate"],
    ["verify", "--code", "{dir}/bad.json", "--enumerate"],
    ["johnson", "--construct", "--n", "10", "--L", "5", "--s", "1",
     "--r", "1"],
    ["johnson", "--construct", "--n", "12", "--L", "6", "--s", "1", "--r", "1",
     "--x", "{2,4,6,8,10,12}"],
    ["johnson", "--verify", "{dir}/johnson.json"],
    ["johnson", "--verify", "{dir}/johnson_short.json"],
    # a center other than {1..L}
    ["johnson", "--verify", "{dir}/johnson_x.json"],
    ["johnson", "--verify", "{dir}/johnson_x_short.json"],
    ["exact-n", "--L", "9", "--s", "3", "--r", "1"],
    ["exact-n", "--L", "10", "--s", "3", "--r", "1"],
    ["simulate", "--db", "{dir}/db.txt", "--code", "{dir}/code.json",
     "--x", "110000", "--seed", "7"],
    ["simulate", "--db", "{dir}/db8.txt", "--code", "{dir}/extremal.json",
     "--x", "11000000", "--seed", "7"],
    ["simulate", "--db", "{dir}/jdb.txt", "--code", "{dir}/johnson.json",
     "--x", "{1,2,3,4,6}", "--seed", "7"],
    ["simulate", "--db", "{dir}/jdb.txt", "--code", "{dir}/johnson.json",
     "--x", "{1,2,3,4,6}", "--seed", "7", "--r", "0"],
    ["simulate", "--db", "{dir}/qdb.txt", "--code", "{dir}/code.json",
     "--q", "3", "--x", "1,0,0,0,0,0", "--seed", "7"],
    ["simulate", "--db", "{dir}/qdb.txt", "--code", "{dir}/code.json",
     "--q", "3", "--x", "1,0,0,0,0,0", "--seed", "7", "--r", "1"],
]


def run_case(argv, workdir) -> dict:
    real = [a.replace("{dir}", str(workdir)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(real)
    return {"argv": argv, "exit": rc, "stdout": out.getvalue()}


def write_files(workdir: Path) -> None:
    for name, text in FILES.items():
        (workdir / name).write_text(text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_files(path)
    return path


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert [g["argv"] for g in golden] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[" ".join(c) for c in CASES])
def test_cli_golden(index, golden, workdir):
    assert run_case(CASES[index], workdir) == golden[index]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        docs = [run_case(argv, tmp) for argv in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1) + "\n")
