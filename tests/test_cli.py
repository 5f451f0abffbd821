"""Exit codes and error reporting of the lpa command."""

import pytest

from leavitt.cli import main

R1_TEXT = "vertices: v\nedge e: v -> v\n"


@pytest.fixture
def r1(tmp_path):
    path = tmp_path / "r1.graph"
    path.write_text(R1_TEXT)
    return str(path)


def test_lambda_reduce_rejects_strings_for_lists(r1, capsys):
    for poly in ('{"cycle": ["e"], "coeffs": "11"}', '{"cycle": "e", "coeffs": ["1", "1"]}'):
        assert main(["lambda-reduce", "--graph", r1, "--ideal", '{"polys": [%s]}' % poly]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "must be a list" in err
    assert main(["lambda-reduce", "--graph", r1, "--ideal",
                 '{"polys": [{"cycle": ["e"], "coeffs": ["1", "1"]}]}']) == 0
    assert capsys.readouterr().out == "vertices {} with x + 1 on (e)\n"


def test_unreadable_files_exit_1(tmp_path, r1, capsys):
    directory = tmp_path / "dir"
    directory.mkdir()
    latin1 = tmp_path / "latin1.graph"
    latin1.write_bytes("vertices: vé\n".encode("latin-1"))
    for path in (directory, latin1, tmp_path / "missing.graph"):
        for argv in (
            ["check-k", "--graph", str(path)],
            ["lambda-reduce", "--graph", r1, "--ideal", str(path)],
        ):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "Traceback" not in err
