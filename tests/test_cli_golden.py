"""Golden CLI output: stdout bytes, exit code and -o of every subcommand.

Each case pins the sha256 of what ``main`` prints (or the text itself when
it is short) on small fixtures, so a refactor of the CLI or of the JSON
writers cannot change a single byte unnoticed. Every case runs on the active
LP backend and again on the C kernel (the ``kernel`` fixture), so one set of
bytes pins both. The parser test pins each subcommand's options and defaults.
"""

import argparse
import hashlib
import json

import pytest

import homproj.verify
from homproj.cli import build_parser, main

SQUARE = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}
MOVED_SQUARE = {"dim": 2, "vertices": [[3, 4], [5, 4], [3, 6], [5, 6]]}
TRIANGLE = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}
SEGMENT = {"dim": 2, "vertices": [[0, 0], [1, 0]]}
CUBE = {"dim": 3, "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}
MOVED_CUBE = {"dim": 3, "vertices": [[2 * x + 1, 2 * y - 2, 2 * z] for x, y, z in CUBE["vertices"]]}
SIMPLEX4 = {"dim": 4, "vertices": [[0] * 4] + [[float(i == j) for j in range(4)] for i in range(4)]}
MOVED_SIMPLEX4 = {"dim": 4, "vertices": [[-3 * c + 1 for c in v] for v in SIMPLEX4["vertices"]]}
PLANE_FRAME = {"ambient_dim": 3, "sub_dim": 2, "basis": [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]}
LINE4 = {"ambient_dim": 4, "sub_dim": 1, "basis": [[0.0, 0.0, 0.6, 0.8]]}

FIXTURES = {
    "square": SQUARE,
    "moved_square": MOVED_SQUARE,
    "triangle": TRIANGLE,
    "segment": SEGMENT,
    "cube": CUBE,
    "moved_cube": MOVED_CUBE,
    "simplex4": SIMPLEX4,
    "moved_simplex4": MOVED_SIMPLEX4,
    "plane_frame": PLANE_FRAME,
    "line4": LINE4,
    "square_plus": {"dim": 2, "vertices": SQUARE["vertices"] + [[0.5, 0.25]]},
    "tetra": {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "point": {"dim": 2, "vertices": [[1, 2]]},
}

SUPPORT_SEGMENT_UP = """{
  "value": 0.0,
  "face_indices": [
    0,
    1
  ],
  "face_vertices": [
    [
      0.0,
      0.0
    ],
    [
      1.0,
      0.0
    ]
  ],
  "margin": "inf"
}
"""

# (argv, exit code, sha256 of stdout or the exact stdout, exact stderr)
CASES = [
    (["hull", "{square}"], 0,
     "0ee0906e7df4d3359b10546047a7e12362a51b42e456255fea1cefa20dbf79c8", ""),
    (["hull", "{square_plus}"], 0,
     "0ee0906e7df4d3359b10546047a7e12362a51b42e456255fea1cefa20dbf79c8",
     "warning: dropped 1 non-extreme point(s) from {square_plus}\n"),
    (["support", "{square}", "--dir", "1,1"], 0,
     "00f4d882bf52f07c1b71c800f424a420e34dbe4ea54c393b0a2acdad59c1311c", ""),
    (["support", "{segment}", "--dir", "0,1"], 0, SUPPORT_SEGMENT_UP, ""),
    (["project", "{cube}", "--frame", "{plane_frame}"], 0,
     "b03a452e4c199ef7334c8c8d8397604d5474970daf0ea4e62b15bfc9084bcc1a", ""),
    (["project", "{cube}", "--random-frame", "2", "--seed", "7"], 0,
     "3320671376a38475775456e5b7649ee3d573a341040fbbc81ab05d84d8c4fb07", ""),
    (["minkowski", "{square}", "{triangle}"], 0,
     "7adb794a9ec0880f04d6c97078c53085f7eb970c62d381b79e600ab0b3954fcd", ""),
    (["diameters", "{triangle}"], 0,
     "b4beba3140d75f9b846b4d786100ecf77324f736a627084a5f03304dbb5a94ca", ""),
    (["diameters", "{cube}"], 0,
     "b4559024f0585ee54b176feff12b1ca3f01a223a9d3cce60fa4726f778144c15", ""),
    (["antipodal", "{triangle}"], 0,
     "e673d3b95666f210b3207352f5382d0e995111107434ad6e4bd75f1eabb4c3bb", ""),
    (["homothety", "{moved_square}", "{square}"], 0,
     "fcd5fa6cb2868b31e53ab00824e2a9db335a9450b1227b932c648ff4014c7730", ""),
    (["homothety", "{moved_square}", "{square}", "--tol", "1e-6"], 0,
     "fcd5fa6cb2868b31e53ab00824e2a9db335a9450b1227b932c648ff4014c7730", ""),
    (["homothety", "{square}", "{triangle}"], 0, '{\n  "homothetic": false\n}\n', ""),
    (["verify-theorem1", "{moved_cube}", "{cube}", "--m", "2", "--samples", "4",
      "--seed", "3"], 0,
     "aa449ebc7d75af6003655758c23c29fee3a7feec3269f226aab8a18c28faabbc", ""),
    (["verify-theorem1", "{cube}", "{tetra}", "--m", "2", "--samples", "3"], 0,
     "bd0a9f1c4ad745ac6606fa3780a7dbcc9f515a4758c1df570fa7ed160f2b24f5", ""),
    (["verify-corollary1", "{moved_cube}", "{cube}", "--m", "2", "--samples", "3"], 0,
     "b7e9d20a41b1ecbf69619b29209e6bfb141b2c8c5a5fbb86b294b0edd05c7b63", ""),
    (["verify-corollary1", "{moved_simplex4}", "{simplex4}", "--subspace", "{line4}",
      "--m", "3", "--samples", "3", "--seed", "2"], 0,
     "a974b387d97f3166ce18ea5d425a26452787e23c672d7b6d9d4eba896670aa9b", ""),
    (["verify-theorem2", "{square}"], 0,
     "a034372c83f6644ffe1a8daf31f1c9d65c2f915c3b538f3e23ee32ac2c923cbe", ""),
    (["verify-lemma-parallel", "{square}"], 0,
     "1451070306bfc7ce1ddc406f6395cd9c7ab18b0dda610a8bfd4cb75190f66e83", ""),
    (["verify-transfer", "{moved_square}", "{square}"], 0,
     "11097e22693faa6aef894b1d3a9a164285ff9e6ee162d5975416670cfe4acb60", ""),
    (["verify-transfer", "{square}", "{triangle}"], 0,
     "1980a8610f2fc9cad9ddd82afeea389f9eb3c9aa5c3178802dfc235d00d26cfc", ""),
    (["verify-example1", "--samples", "5", "--seed", "1"], 0,
     "9db1352e2ee2ff2f6d425c5d680c5da728603e217dd734fd64dfd68b993382b4", ""),
    (["random", "--dim", "3", "--points", "6", "--seed", "1"], 0,
     "84c8f3ebc36f0009fb7169de4b626d92b6a613f771d1d6278de2f8f6a49ca00b", ""),
    (["random", "--dim", "3", "--frame-dim", "2", "--seed", "3"], 0,
     "d9d847eb78c3dc88a4eae1ae11f9e4da7670122bbd8baf262eb4b39a2b9838ec", ""),
    # errors the handlers raise: exit 2, nothing on stdout
    (["project", "{cube}", "--frame", "{plane_frame}", "--random-frame", "2"], 2, "",
     "error: give exactly one of --frame or --random-frame\n"),
    (["project", "{cube}"], 2, "", "error: give exactly one of --frame or --random-frame\n"),
    (["support", "{square}", "--dir", "1,x"], 2, "",
     "error: bad direction '1,x'; expected comma-separated numbers\n"),
    (["verify-theorem2", "{point}"], 2, "", "error: theorem 2 excludes singletons\n"),
]

EXIT_1_OUT = "94e0515bb8e46c5604c59a545876ae2a90afcb2c17bfe7db5117a31d32eb29fd"

# per subcommand: its help, then (option strings or dest, default, required, type)
PARSER = {
    "hull": ["canonicalize a point set to its extreme points",
             (("-o",), None, False, None), ("points", None, True, None)],
    "support": ["support function value and face in a direction",
                (("-o",), None, False, None), ("polytope", None, True, None),
                (("--dir",), None, True, None)],
    "project": ["orthogonal projection onto a subspace frame",
                (("-o",), None, False, None), ("polytope", None, True, None),
                (("--frame",), None, False, None), (("--random-frame",), None, False, "int"),
                (("--seed",), 0, False, "_seed")],
    "minkowski": ["Minkowski sum of two polytopes",
                  (("-o",), None, False, None), ("first", None, True, None),
                  ("second", None, True, None)],
    "diameters": ["all exposed diameters",
                  (("-o",), None, False, None), ("polytope", None, True, None)],
    "antipodal": ["antipodally exposed points",
                  (("-o",), None, False, None), ("polytope", None, True, None)],
    "homothety": ["detect a homothety between two polytopes",
                  (("-o",), None, False, None), ("first", None, True, None),
                  ("second", None, True, None), (("--tol",), 1e-09, False, "float")],
    "verify-theorem1": ["projection sweep over random m-frames",
                        (("-o",), None, False, None), ("first", None, True, None),
                        ("second", None, True, None), (("--m",), None, True, "int"),
                        (("--samples",), 100, False, "int"), (("--seed",), 0, False, "_seed")],
    "verify-corollary1": ["sweep over m-frames containing a subspace",
                          (("-o",), None, False, None), ("first", None, True, None),
                          ("second", None, True, None), (("--subspace",), None, False, None),
                          (("--m",), None, True, "int"), (("--samples",), 100, False, "int"),
                          (("--seed",), 0, False, "_seed")],
    "verify-theorem2": ["all vertices antipodally exposed",
                        (("-o",), None, False, None), ("polytope", None, True, None)],
    "verify-lemma-parallel": ["no two exposed diameters parallel",
                              (("-o",), None, False, None), ("polytope", None, True, None)],
    "verify-transfer": ["exposed diameters map under the homothety",
                        (("-o",), None, False, None), ("first", None, True, None),
                        ("second", None, True, None)],
    "verify-example1": ["paraboloid sharpness example",
                        (("-o",), None, False, None), (("--samples",), 100, False, "int"),
                        (("--seed",), 0, False, "_seed")],
    "random": ["emit a random polytope (or frame with --frame-dim)",
               (("-o",), None, False, None), (("--dim",), None, True, "int"),
               (("--points",), 8, False, "int"), (("--frame-dim",), None, False, "int"),
               (("--seed",), 0, False, "_seed")],
}


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, doc in FIXTURES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = str(path)
    return out


def _run(argv, paths, capsys):
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_pinned(text, expected):
    if len(expected) == 64 and "\n" not in expected:
        assert hashlib.sha256(text.encode()).hexdigest() == expected
    else:
        assert text == expected


def _subcommands():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action


# every case on the active backend (id "i-command") and on the C kernel (id "c-i-command")
ON_BOTH_KERNELS = [
    pytest.param(*case, kernel, id=f"{prefix}{i}-{case[0][0]}")
    for kernel, prefix in (("active", ""), ("c", "c-"))
    for i, case in enumerate(CASES)
]


@pytest.mark.parametrize("argv, code, out, err, kernel", ON_BOTH_KERNELS, indirect=["kernel"])
def test_cli_golden_output(argv, code, out, err, kernel, paths, tmp_path, capsys):
    got = _run(argv, paths, capsys)
    assert got[0] == code
    _assert_pinned(got[1], out)
    assert got[2] == err.format(**paths)
    if code == 2:
        return
    target = tmp_path / "out.json"
    assert _run(argv + ["-o", str(target)], paths, capsys) == (code, "", got[2])
    assert target.read_text() == got[1]


def test_cli_golden_exit_1(paths, tmp_path, monkeypatch, capsys):
    # a tolerance of 2 calls every pair of unit directions parallel
    monkeypatch.setattr(homproj.verify, "PARALLEL_TOL", 2.0)
    argv = ["verify-lemma-parallel", "{square}"]
    code, out, err = _run(argv, paths, capsys)
    assert (code, err) == (1, "")
    _assert_pinned(out, EXIT_1_OUT)
    target = tmp_path / "out.json"
    assert _run(argv + ["-o", str(target)], paths, capsys) == (1, "", "")
    assert target.read_text() == out


def test_cli_golden_covers_every_subcommand():
    assert {argv[0] for argv, *_ in CASES} == set(_subcommands().choices)


def test_cli_parser_options_are_pinned():
    action = _subcommands()
    helps = {a.dest: a.help for a in action._choices_actions}
    got = {}
    for name, sub in action.choices.items():
        got[name] = [helps[name]] + [
            (tuple(a.option_strings) or a.dest, a.default, a.required,
             getattr(a.type, "__name__", None))
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
    assert got == PARSER
