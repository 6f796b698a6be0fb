import json
import os

import pytest

from deltader.cli import canonical_json, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_make_and_solve_zassenhaus(tmp_path, capsys):
    path = str(tmp_path / "w11.json")
    code, out, _ = run(capsys, "make", "zassenhaus", "--p", "5", "--n", "1", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "solve", path, "--delta", "1/2")
    assert code == 0
    assert "dim = 5" in out


def test_solve_delta_zero_perfect(tmp_path, capsys):
    path = str(tmp_path / "sl2.json")
    assert run(capsys, "make", "sl", "--n", "2", "--field", "Q", "--out", path)[0] == 0
    code, out, _ = run(capsys, "solve", path, "--delta", "0")
    assert code == 0
    assert "dim = 0" in out


def test_solve_parametric(tmp_path, capsys):
    path = str(tmp_path / "sl2.json")
    run(capsys, "make", "sl", "--n", "2", "--field", "Q", "--out", path)
    code, out, _ = run(capsys, "solve", path, "--parametric")
    assert code == 0
    assert "generic dim = 0" in out
    assert "-1" in out and "1/2" in out


def test_decimal_rejected(tmp_path, capsys):
    path = str(tmp_path / "sl2.json")
    run(capsys, "make", "sl", "--n", "2", "--field", "Q", "--out", path)
    code, _, err = run(capsys, "solve", path, "--delta", "0.5")
    assert code == 2
    assert "decimal" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "solve", "does_not_exist.json", "--delta", "1")
    assert code == 2


def test_invalid_algebra_rejected(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    data = {
        "field": {"kind": "Q"},
        "dim": 3,
        "flavor": "lie",
        "basis": ["a", "b", "c"],
        "products": [
            {"i": 0, "j": 1, "terms": [[2, "1"]]},
            {"i": 0, "j": 2, "terms": [[0, "1"]]},
            {"i": 1, "j": 2, "terms": [[0, "1"]]},
        ],
    }
    path_obj = tmp_path / "bad.json"
    path_obj.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", str(path_obj))
    assert code == 2
    assert "jacobi" in err


@pytest.mark.parametrize("key", ["field", "dim", "basis", "i", "j", "terms"])
def test_missing_key_named(tmp_path, capsys, key):
    entry = {"i": 0, "j": 1, "terms": [[0, "1"]]}
    data = {"field": {"kind": "Q"}, "dim": 2, "flavor": "lie", "basis": ["a", "b"], "products": [entry]}
    where = "products[0]: " if key in entry else ""
    del (entry if key in entry else data)[key]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err == f"error: {path}: {where}missing key {key!r}\n"


@pytest.mark.parametrize("command", [["validate"], ["solve", "--delta", "1"]], ids=["validate", "solve"])
@pytest.mark.parametrize(
    "entry,bad",
    [({"i": 0, "j": 1, "terms": [[7, "1"]]}, 7), ({"i": 0, "j": 5, "terms": [[1, "1"]]}, 5)],
    ids=["term", "pair"],
)
def test_out_of_range_index_rejected(tmp_path, capsys, command, entry, bad):
    data = {"field": {"kind": "Q"}, "dim": 2, "flavor": "lie", "basis": ["a", "b"], "products": [entry]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: product e_0 e_{entry['j']}: index {bad} outside range(2)\n"


BAD_MAPS = {
    "list": [[["0"] * 5] * 5],
    "maps_not_list": {"maps": {"0": [["0"] * 5] * 5}},
    "maps_5x3": {"maps": [[["0"] * 3] * 5]},
    "maps_null_entry": {"maps": [[[None] * 5] * 5]},
}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["make", "zassenhaus"], "make zassenhaus requires --p"),
        (["make", "divided-powers"], "make divided-powers requires --p"),
        (["make", "abelian"], "make abelian requires --dim"),
        (["make", "witt"], "make witt requires --support"),
        (["make", "current"], "make current requires --left"),
        (["make", "current", "--left", "{alg}"], "make current requires --right"),
        (["solve", "{alg}", "--delta", "1/0"], "zero denominator in scalar literal '1/0'"),
        (["grade", "{alg}", "{maps_5x3}", "--delta", "1/0"], "zero denominator in scalar literal '1/0'"),
        (["grade", "{alg}", "{list}", "--delta", "1"], "expected a JSON object with a 'basis' or 'maps' list"),
        (["grade", "{alg}", "{maps_not_list}", "--delta", "1"], "expected a JSON object with a 'basis' or 'maps' list"),
        (["grade", "{alg}", "{maps_5x3}", "--delta", "1"], "map 0 is not a 5 x 5 matrix"),
        (["grade", "{alg}", "{maps_null_entry}", "--delta", "1"], "not a scalar literal: None"),
    ],
    ids=[
        "zassenhaus-no-p", "divided-powers-no-p", "abelian-no-dim", "witt-no-support",
        "current-no-left", "current-no-right", "solve-zero-denominator", "grade-zero-denominator",
        "maps-json-list", "maps-not-list", "maps-5x3", "maps-null-entry",
    ],
)
def test_input_error_exit_2(tmp_path, capsys, argv, message):
    alg = tmp_path / "w11.json"
    assert run(capsys, "make", "zassenhaus", "--p", "5", "--out", str(alg))[0] == 0
    files = {"alg": str(alg)}
    for name, obj in BAD_MAPS.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = [a.format(**files) if a.startswith("{") else a for a in argv]
    if argv[0] == "make":
        argv += ["--out", str(tmp_path / "out.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden")
GOLDEN_MAKE = [
    ("W11_GF5", ["zassenhaus", "--p", "5", "--n", "1"]),
    ("W11_GF7", ["zassenhaus", "--p", "7", "--n", "1"]),
    ("sl3_Q", ["sl", "--n", "3", "--field", "Q"]),
    ("osp12_GF7", ["osp12", "--field", "gf7"]),
]


def golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name,make_args", GOLDEN_MAKE, ids=[n for n, _ in GOLDEN_MAKE])
def test_make_and_solve_match_golden(tmp_path, capsys, name, make_args):
    made = tmp_path / f"{name}.made.json"
    assert run(capsys, "make", *make_args, "--out", str(made))[0] == 0
    assert made.read_bytes() == golden(f"{name}.make.out.json")
    half = tmp_path / f"{name}.half.json"
    code, out, _ = run(capsys, "solve", str(made), "--delta", "1/2", "--out", str(half))
    assert code == 0
    assert out.encode() == golden(f"{name}.solve.stdout")
    assert half.read_bytes() == golden(f"{name}.solve.out.json")


@pytest.mark.parametrize(
    "name,make_args,derivs",
    [(n, a, d) for (n, a), d in zip(GOLDEN_MAKE, [[1], [1], [6, 7], [1]])],
    ids=[n for n, _ in GOLDEN_MAKE],
)
def test_grade_and_report_match_golden(tmp_path, capsys, name, make_args, derivs):
    from deltader.cli import load_algebra

    made = tmp_path / f"{name}.json"
    assert run(capsys, "make", *make_args, "--out", str(made))[0] == 0
    maps = tmp_path / f"{name}.maps.json"
    alg = load_algebra(str(made))
    maps.write_text(json.dumps({"maps": [alg.ad(i).to_json() for i in derivs]}))
    code, out, _ = run(capsys, "grade", str(made), str(maps), "--delta", "1")
    assert code == 0
    assert out.encode() == golden(f"{name}.grade.stdout")
    code, out, _ = run(capsys, "report", str(made))
    assert code == 0
    assert out.encode() == golden(f"{name}.report.stdout")


def test_parametric_out_matches_golden(tmp_path, capsys):
    made = tmp_path / "W11_GF5.json"
    run(capsys, "make", "zassenhaus", "--p", "5", "--n", "1", "--out", str(made))
    out_path = tmp_path / "W11_GF5.parametric.json"
    code, out, _ = run(capsys, "solve", str(made), "--parametric", "--out", str(out_path))
    assert code == 0
    assert out.encode() == golden("W11_GF5.parametric.stdout")
    assert out_path.read_bytes() == golden("W11_GF5.parametric.out.json")


def test_round_trip_byte_identical(tmp_path, capsys):
    from deltader.algebras import algebra_from_json, algebra_to_json

    path = tmp_path / "e4.json"
    run(capsys, "make", "elduque4", "--field", "gf5", "--out", str(path))
    text = path.read_text()
    back = algebra_from_json(json.loads(text))
    assert canonical_json(algebra_to_json(back)) == text
    assert text.endswith("\n")
    assert "\r" not in text


def test_grade_command(tmp_path, capsys):
    alg_path = str(tmp_path / "e4.json")
    run(capsys, "make", "elduque4", "--field", "gf5", "--out", alg_path)
    der_path = str(tmp_path / "d.json")
    code, out, _ = run(
        capsys, "solve", alg_path, "--delta", "-1", "--out", der_path
    )
    assert code == 0
    # grading with the full solution space basis does not split nicely;
    # use the single expected witness map instead
    witness = {
        "maps": [
            [
                ["0", "0", "0", "0"],
                ["0", "0", "0", "0"],
                ["0", "0", "0", "4"],
                ["0", "0", "1", "0"],
            ]
        ]
    }
    w_path = tmp_path / "w.json"
    w_path.write_text(json.dumps(witness))
    code, out, _ = run(capsys, "grade", alg_path, str(w_path), "--delta", "-1")
    assert code == 0
    rep = json.loads(out)
    assert rep["semigroup_verdict"] == "NonSemigroup"
    assert sorted(rep["dims"]) == [1, 1, 2]


def test_grade_non_splitting_exit_3(tmp_path, capsys):
    alg_path = str(tmp_path / "e4q.json")
    run(capsys, "make", "elduque4", "--field", "Q", "--out", alg_path)
    witness = {
        "maps": [
            [
                ["0", "0", "0", "0"],
                ["0", "0", "0", "0"],
                ["0", "0", "0", "-1"],
                ["0", "0", "1", "0"],
            ]
        ]
    }
    w_path = tmp_path / "w.json"
    w_path.write_text(json.dumps(witness))
    code, _, err = run(capsys, "grade", alg_path, str(w_path), "--delta", "-1")
    assert code == 3


def test_report_command(tmp_path, capsys):
    path = str(tmp_path / "w11.json")
    run(capsys, "make", "zassenhaus", "--p", "5", "--n", "1", "--out", path)
    code, out, _ = run(capsys, "report", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["half_ring"]["is_local"]
    assert rep["half_ring"]["zero_divisor_witness"] is not None


def test_report_abelian_hypotheses(tmp_path, capsys):
    path = str(tmp_path / "ab2.json")
    run(capsys, "make", "abelian", "--dim", "2", "--field", "Q", "--out", path)
    code, out, _ = run(capsys, "report", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["desk_check"]["hypotheses_met"] is False


def test_make_current(tmp_path, capsys):
    sl2 = str(tmp_path / "sl2.json")
    run(capsys, "make", "sl", "--n", "2", "--field", "Q", "--out", sl2)
    dp = str(tmp_path / "o11.json")
    run(capsys, "make", "divided-powers", "--p", "5", "--n", "1", "--out", dp)
    # current algebra needs matching fields; build both over GF(5)
    w11 = str(tmp_path / "w11.json")
    run(capsys, "make", "zassenhaus", "--p", "5", "--n", "1", "--out", w11)
    cur = str(tmp_path / "cur.json")
    code, out, _ = run(capsys, "make", "current", "--left", w11, "--right", dp, "--out", cur)
    assert code == 0
    assert "dim = 25" in out


def test_superder_requires_parity(tmp_path, capsys):
    import os

    from deltader.superstd import fixture_dir

    fx = os.path.join(fixture_dir(), "osp12_gf7.json")
    code, _, err = run(capsys, "solve", fx, "--kind", "superder", "--delta", "1")
    assert code == 2
    code, out, _ = run(
        capsys, "solve", fx, "--kind", "superder", "--delta", "1", "--parity", "1"
    )
    assert code == 0
    assert "dim = 2" in out
