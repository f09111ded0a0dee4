import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from homproj import files, lp, random_frame
from homproj._simplex_py import UNBOUNDED
from homproj.cli import COMMANDS, build_parser, main
from homproj.errors import BadNumber, FormatError, MissingField

SQUARE_DOC = json.dumps(
    {"dim": 2, "vertices": [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]},
    indent=2,
) + "\n"


def test_polytope_roundtrip_is_identity():
    P, dropped = files.polytope_from_text(SQUARE_DOC)
    assert dropped == 0
    assert files.polytope_to_text(P) == SQUARE_DOC


def test_polytope_reader_canonicalizes():
    doc = '{"dim": 2, "vertices": [[0,0],[1,0],[0,1],[0.25,0.25]]}'
    P, dropped = files.polytope_from_text(doc)
    assert dropped == 1
    assert P.num_vertices == 3


def test_polytope_reader_errors():
    with pytest.raises(MissingField):
        files.polytope_from_text('{"vertices": [[0,0]]}')
    with pytest.raises(FormatError):
        files.polytope_from_text('{"dim": 3, "vertices": [[0,0]]}')
    with pytest.raises(FormatError):
        files.polytope_from_text("not json")


def test_frame_roundtrip():
    text = files.frame_to_text(
        __import__("homproj").random_frame(3, 2, 1)
    )
    F = files.frame_from_text(text)
    assert files.frame_to_text(F) == text


def test_paraboloid_roundtrip():
    spec = files.paraboloid_from_text('{"A": [[2.0, 0.0], [0.0, 1.0]]}')
    assert files.paraboloid_to_text(spec) == json.dumps(
        {"A": [[2.0, 0.0], [0.0, 1.0]]}, indent=2
    ) + "\n"


def test_paraboloid_text_roundtrip_keeps_every_bit():
    text = files.paraboloid_to_text(files.paraboloid_from_text(
        '{"A": [[1.5, -0.2], [-0.2, 0.8]]}'
    ))
    assert text == json.dumps({"A": [[1.5, -0.2], [-0.2, 0.8]]}, indent=2) + "\n"
    spec = files.paraboloid_from_text(text)
    assert files.paraboloid_to_text(spec) == text
    assert spec.coeff.tobytes() == np.array([[1.5, -0.2], [-0.2, 0.8]]).tobytes()


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"A": [[1.0, 0.5], [0.25, 1.0]]}', FormatError),  # not symmetric
        ('{"A": [[1.0, 2.0], [2.0, 1.0]]}', FormatError),  # indefinite
        ('{"A": [[0.0, 0.0], [0.0, 1.0]]}', FormatError),  # singular
        ('{"A": [[NaN, 0.0], [0.0, 1.0]]}', BadNumber),
        ('{"A": [[1.0, 0.0], [0.0, Infinity]]}', BadNumber),
        ('{"A": [[1e999, 0.0], [0.0, 1.0]]}', BadNumber),
        ('{"A": [[1.0, "0"], ["0", 1.0]]}', BadNumber),
        ('{"B": [[1.0, 0.0], [0.0, 1.0]]}', MissingField),
    ],
    ids=["asymmetric", "indefinite", "singular", "nan", "inf", "overflow", "string", "no-A"],
)
def test_paraboloid_reader_errors(text, error):
    with pytest.raises(FormatError) as info:
        files.paraboloid_from_text(text)
    assert type(info.value) is error


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    return _write(tmp_path, "square.json", SQUARE_DOC)


def test_cli_hull_roundtrip(square_file, capsys):
    assert main(["hull", square_file]) == 0
    assert capsys.readouterr().out == SQUARE_DOC


def test_cli_hull_warns_on_dropped(tmp_path, capsys):
    path = _write(
        tmp_path, "p.json", '{"dim": 2, "vertices": [[0,0],[1,0],[0,1],[0.25,0.25]]}'
    )
    assert main(["hull", path]) == 0
    assert "dropped 1" in capsys.readouterr().err


def test_cli_support(square_file, capsys):
    assert main(["support", square_file, "--dir", "1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 2.0
    assert doc["face_vertices"] == [[1.0, 1.0]]


def test_cli_project_random_frame(square_file, tmp_path, capsys):
    cube = _write(
        tmp_path,
        "cube.json",
        json.dumps(
            {
                "dim": 3,
                "vertices": [
                    [float(x), float(y), float(z)]
                    for x in (0, 1)
                    for y in (0, 1)
                    for z in (0, 1)
                ],
            }
        ),
    )
    assert main(["project", cube, "--random-frame", "2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["project", cube, "--random-frame", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first  # seeded reproducibility
    doc = json.loads(first)
    assert doc["dim"] == 2


def test_cli_minkowski_and_output_file(square_file, tmp_path, capsys):
    out = tmp_path / "sum.json"
    assert main(["minkowski", square_file, square_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["vertices"] == [[0, 0], [0, 2], [2, 0], [2, 2]]


def test_cli_diameters_and_antipodal(square_file, capsys):
    assert main(["diameters", square_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["diameters"]) == 2
    assert main(["antipodal", square_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["points"]) == 4


def test_cli_homothety(square_file, tmp_path, capsys):
    other = _write(
        tmp_path,
        "other.json",
        json.dumps({"dim": 2, "vertices": [[3, 4], [5, 4], [3, 6], [5, 6]]}),
    )
    assert main(["homothety", other, square_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["homothetic"] is True
    assert doc["lambda"] == 2.0
    assert doc["z"] == [3.0, 4.0]
    # "not homothetic" is data, not an error
    tri = _write(
        tmp_path, "tri.json", json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]})
    )
    assert main(["homothety", square_file, tri]) == 0
    assert json.loads(capsys.readouterr().out) == {"homothetic": False}


def test_cli_verify_commands_exit_codes(square_file, capsys):
    assert main(["verify-theorem2", square_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert main(["verify-lemma-parallel", square_file]) == 0
    capsys.readouterr()
    assert main(["verify-example1", "--samples", "10", "--seed", "1"]) == 0
    capsys.readouterr()


def test_cli_verify_theorem1(tmp_path, capsys):
    cube = {"dim": 3, "vertices": [
        [float(x), float(y), float(z)] for x in (0, 1) for y in (0, 1) for z in (0, 1)
    ]}
    a = _write(tmp_path, "a.json", json.dumps(cube))
    moved = {"dim": 3, "vertices": [[x + 1, y - 2, z] for x, y, z in cube["vertices"]]}
    b = _write(tmp_path, "b.json", json.dumps(moved))
    assert main(["verify-theorem1", a, b, "--m", "2", "--samples", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"


def test_cli_input_errors_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", '{"dim": 2, "vertices": []}')
    assert main(["hull", bad]) == 2
    assert "error:" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["hull", missing]) == 2
    capsys.readouterr()
    ragged = _write(tmp_path, "ragged.json", '{"dim": 2, "vertices": [[0,0],[1]]}')
    assert main(["hull", ragged]) == 2
    capsys.readouterr()
    # finite coordinates past |x|_2 < 2^1022 / sqrt(dim) used to give a 1-vertex hull and exit 0
    huge = _write(tmp_path, "huge.json", json.dumps(
        {"dim": 2, "vertices": [[1.5e308, 1.5e308], [1.5e308, 1.4e308], [0, 0], [1.4e308, 0]]}
    ))
    # each file is admitted, their sum is not
    s = 0.75 * 2.0**1021
    near = _write(tmp_path, "near.json", json.dumps(
        {"dim": 2, "vertices": [[0, 0], [s, 0], [0, s]]}
    ))
    for argv in (["hull", huge], ["minkowski", near, near]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert main(["hull", near]) == 0


def test_cli_failed_margin_lp_exits_2(monkeypatch, tmp_path, capsys):
    # a kernel that loses a bounded program reports UNBOUNDED: an input error line, not exit 1;
    # the centre of the R^4 cross-polytope is no lone face of any direction, and no planar or
    # facet screen sees R^4, so its LP runs
    cross = np.vstack([np.eye(4), -np.eye(4), np.zeros((1, 4))])
    centred = _write(tmp_path, "p.json", json.dumps({"dim": 4, "vertices": cross.tolist()}))

    def unbounded(A, b, c):
        return np.full(len(A), UNBOUNDED), np.zeros(len(A)), np.zeros((len(A), A.shape[2]))

    monkeypatch.setattr(lp, "_kernel", SimpleNamespace(simplex_maximize_batch=unbounded))
    assert main(["hull", centred]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: separation LP reported unbounded: the simplex pivoting failed\n"


def test_cli_random_polytope_and_frame(capsys):
    assert main(["random", "--dim", "2", "--points", "8", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2 and len(doc["vertices"]) <= 8
    assert main(["random", "--dim", "3", "--frame-dim", "2", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ambient_dim"] == 3 and doc["sub_dim"] == 2


TRIANGLE = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}
CUBE = {"dim": 3, "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}
SKEW_TRIANGLE = {"dim": 2, "vertices": [[0, 0], [3, 0], [1, 1]]}


@pytest.mark.parametrize(
    "argv",
    [
        # every --seed option: numpy rejects negative seeds
        ["random", "--dim", "3", "--seed", "-1"],
        ["random", "--dim", "3", "--frame-dim", "2", "--seed", "-1"],
        ["project", "{square}", "--random-frame", "1", "--seed", "-1"],
        ["verify-theorem1", "{cube}", "{cube}", "--m", "2", "--samples", "1", "--seed", "-1"],
        ["verify-corollary1", "{cube}", "{cube}", "--m", "2", "--samples", "1", "--seed", "-1"],
        ["verify-example1", "--samples", "1", "--seed", "-1"],
        ["random", "--dim", "3", "--seed", "x"],
        # a tolerance must be finite and positive; nan used to say "homothetic"
        ["homothety", "{triangle}", "{skew}", "--tol", "nan"],
        ["homothety", "{triangle}", "{skew}", "--tol", "inf"],
        ["homothety", "{triangle}", "{skew}", "--tol", "0"],
        # non-finite directions used to print "value": NaN, which is not JSON
        ["support", "{square}", "--dir", "nan,1"],
        ["support", "{square}", "--dir", "inf,1"],
        # JSON true, or a string, is not a number
        ["hull", "{bool_vertex}"],
        ["hull", "{string_vertex}"],
        # counts and dimensions out of range
        ["verify-theorem1", "{cube}", "{cube}", "--m", "2", "--samples", "-1"],
        ["verify-example1", "--samples", "-1"],
        ["random", "--dim", "3", "--points", "-1"],
        ["random", "--dim", "0"],
        ["random", "--dim", "2", "--frame-dim", "3"],
        ["project", "{square}", "--random-frame", "3"],
        ["verify-corollary1", "{cube}", "{cube}", "--m", "9"],
        # a frame of the wrong ambient dimension, a top-level array, a mis-shaped frame
        ["project", "{square}", "--frame", "{plane3}"],
        ["hull", "{array}"],
        ["project", "{cube}", "--frame", "{misshaped}"],
    ],
)
def test_cli_bad_arguments_exit_2(argv, tmp_path, capsys):
    paths = {
        "square": _write(tmp_path, "square.json", SQUARE_DOC),
        "cube": _write(tmp_path, "cube.json", json.dumps(CUBE)),
        "triangle": _write(tmp_path, "tri.json", json.dumps(TRIANGLE)),
        "skew": _write(tmp_path, "skew.json", json.dumps(SKEW_TRIANGLE)),
        "bool_vertex": _write(
            tmp_path, "bool.json", '{"dim": 2, "vertices": [[0,0],[1,0],[0,true]]}'
        ),
        "string_vertex": _write(
            tmp_path, "str.json", '{"dim": 2, "vertices": [[0,0],[1,0],[0,"1"]]}'
        ),
        "plane3": _write(tmp_path, "plane3.json", files.frame_to_text(random_frame(3, 2, 0))),
        "array": _write(tmp_path, "array.json", "[[0, 0], [1, 0]]"),
        "misshaped": _write(
            tmp_path, "misshaped.json", '{"ambient_dim": 3, "sub_dim": 2, "basis": [[1, 0, 0]]}'
        ),
    }
    try:
        code = main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # argparse rejects a value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert any(line.startswith("error:") or ": error:" in line for line in captured.err.splitlines())


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [line.split("#")[0].strip() for line in block.splitlines()
            if line.startswith("homproj ")]


def test_readme_cli_block_matches_the_command_table():
    lines = _readme_cli_lines()
    parser = build_parser()
    for line in lines:
        argv = [re.sub(r"^\S+\.json$", "FILE.json", arg) for arg in shlex.split(line)[1:]]
        parser.parse_args(argv)
    assert {line.split()[1] for line in lines} == {name for name, *_ in COMMANDS}
