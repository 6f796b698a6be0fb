import json
import os
import pathlib

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


SL2 = {
    "field": {"kind": "Q"}, "dim": 3, "flavor": "lie", "basis": ["e", "f", "h"],
    "products": [
        {"i": 0, "j": 1, "terms": [[2, "1"]]},
        {"i": 0, "j": 2, "terms": [[0, "-2"]]},
        {"i": 1, "j": 2, "terms": [[1, "2"]]},
    ],
}


@pytest.mark.parametrize("command", [["validate"], ["solve", "--delta", "1"]], ids=["validate", "solve"])
@pytest.mark.parametrize(
    "change,message",
    [
        ("[", "invalid JSON: Expecting value: line 1 column 2 (char 1)"),
        ({"products": 1, "term": [0, "x"]}, "products[1]: invalid scalar 'x'"),
        ({"products": 2, "term": [1, "1/0"]}, "products[2]: invalid scalar '1/0'"),
        ({"products": 0, "term": [2, 0.5]}, "products[0]: invalid scalar 0.5"),
        ({"dim": "3"}, "'dim' must be an integer, got '3'"),
        ({"dim": 3.0}, "'dim' must be an integer, got 3.0"),
        ({"dim": True}, "'dim' must be an integer, got True"),
        ({"products": 1, "i": 0.7}, "products[1]: 'i' must be an integer, got 0.7"),
        ({"products": 2, "j": "2"}, "products[2]: 'j' must be an integer, got '2'"),
        ({"products": 0, "term": ["2", "1"]}, "products[0]: term index must be an integer, got '2'"),
    ],
    ids=[
        "json", "scalar", "zero-denominator", "float-scalar", "dim-string", "dim-float", "dim-bool",
        "float-index", "string-index", "string-term-index",
    ],
)
def test_bad_algebra_file_named(tmp_path, capsys, command, change, message):
    """A malformed algebra file is an input error naming the file, and for
    a product term also the product."""
    data = json.loads(json.dumps(SL2))
    if isinstance(change, str):
        text = change
    else:
        change = dict(change)
        if "products" in change:
            entry = data["products"][change.pop("products")]
            if "term" in change:
                entry["terms"] = [change.pop("term")]
            entry.update(change)
        else:
            data.update(change)
        text = json.dumps(data)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


def test_sl2_file_is_valid(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2))
    assert run(capsys, "solve", str(path), "--delta", "1") == (0, "dim = 3\n", "")


def test_python_m_runs_the_cli(tmp_path):
    import subprocess
    import sys

    import deltader

    src = os.path.dirname(os.path.dirname(os.path.abspath(deltader.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "sl2.json"
    argv = [sys.executable, "-m", "deltader", "make", "sl", "--n", "2", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {out} (dim = 3)\n", "")
    proc = subprocess.run(argv[:3] + ["solve", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr == "error: --delta is required unless --parametric is given\n"
    proc = subprocess.run(argv[:3] + ["solve"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr.endswith("error: the following arguments are required: algebra\n")


BAD_MAPS = {
    "list": [[["0"] * 5] * 5],
    "maps_not_list": {"maps": {"0": [["0"] * 5] * 5}},
    "maps_5x3": {"maps": [[["0"] * 3] * 5]},
    "maps_null_entry": {"maps": [[[None] * 5] * 5]},
}
BAD_ALGEBRAS = {
    "field_string": dict(SL2, field="Q"),
    "basis_string": dict(SL2, basis="efh"),
    "term_single": dict(SL2, products=[{"i": 0, "j": 1, "terms": [[2]]}]),
    "products_object": dict(SL2, products={"0": []}),
    "p_float": dict(SL2, field={"kind": "GFp", "p": 7.9}),
    "modulus_string": dict(SL2, field={"kind": "quot", "base": {"kind": "Q"}, "modulus": "201"}),
    "form_number": dict(SL2, form=5),
    "form_1x1": dict(SL2, form=[["1"]]),
    "form_ragged": dict(SL2, form=[["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]),
    "grading_number": dict(SL2, grading=5),
    "term_decimal": dict(SL2, products=[{"i": 0, "j": 1, "terms": [[2, "0.5"]]}]),
    "term_bool": dict(SL2, products=[{"i": 0, "j": 1, "terms": [[2, True]]}]),
    "form_exponent": dict(SL2, form=[["1e2", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
    "modulus_decimal": dict(SL2, field={"kind": "quot", "base": {"kind": "Q"}, "modulus": ["0.5", "1"]}),
    "p_mersenne89": dict(SL2, field={"kind": "GFp", "p": 2**89 - 1}),
    # a repeated entry would otherwise overwrite the first silently
    "pair_twice": dict(SL2, field={"kind": "GFp", "p": 5}, products=[*SL2["products"], {"i": 0, "j": 1, "terms": [[2, "3"]]}]),
    "term_twice": dict(SL2, products=[{"i": 0, "j": 1, "terms": [[2, "1"], [2, "1"]]}]),
}
# valid files, for commands that cannot use them
VALID_FILES = {
    "sl2_quot": dict(SL2, field={"kind": "quot", "base": {"kind": "Q"}, "modulus": ["-2", "0", "1"]}),
    "sl2_ad_h": {"maps": [[["-2", "0", "0"], ["0", "2", "0"], ["0", "0", "0"]]]},
    **{
        f"abelian23_{flavor}": {
            "field": {"kind": "Q"}, "dim": 23, "flavor": flavor, "basis": [f"e{i}" for i in range(23)], "products": [],
        }
        for flavor in ("lie", "assoc")
    },
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
        (["solve", "{alg}", "--delta", "1/5"], "scalar literal '1/5' has a denominator that is zero in GF(5)"),
        (["grade", "{alg}", "{list}", "--delta", "1"], "expected a JSON object with a 'basis' or 'maps' list"),
        (["grade", "{alg}", "{maps_not_list}", "--delta", "1"], "expected a JSON object with a 'basis' or 'maps' list"),
        (["grade", "{alg}", "{maps_5x3}", "--delta", "1"], "map 0 is not a 5 x 5 matrix"),
        (["grade", "{alg}", "{maps_null_entry}", "--delta", "1"], "not a scalar literal: None"),
        (["grade", "{alg}", "{not_json}", "--delta", "1"], "not_json.json: invalid JSON: Expecting property name"),
        (["make", "sl", "--n", "1"], "sl(1) is zero-dimensional: n must be at least 2"),
        (["make", "sl", "--n", "0"], "sl(0) is zero-dimensional: n must be at least 2"),
        (["make", "sl", "--n", "-30"], "sl(-30) is zero-dimensional: n must be at least 2"),
        (["make", "sl"], "make sl requires --n"),
        (["make", "abelian", "--dim", "0"], "dimension 0 < 1: zero-dimensional algebras are not supported"),
        (["solve", "{alg}", "--parametric", "--delta", "1"], "--delta cannot be combined with --parametric"),
        (["solve", "{alg}", "--parametric", "--kind", "superder", "--parity", "1"],
         "--kind superder does not take --parametric"),
        (["solve", "{alg}", "--parametric", "--kind", "centroid"], "--kind centroid does not take --parametric"),
        (["solve", "{alg}", "--parametric", "--kind", "quasider"], "--kind quasider does not take --parametric"),
        (["solve", "{alg}", "--delta", "1", "--parity", "0"], "--kind der does not take --parity"),
        (["solve", "{alg}", "--parametric", "--parity", "1"], "--kind der does not take --parity"),
        (["solve", "{alg}", "--kind", "centroid", "--parity", "1"], "--kind centroid does not take --parity"),
        (["solve", "{alg}", "--kind", "quasider", "--parity", "0"], "--kind quasider does not take --parity"),
        (["solve", "{alg}", "--kind", "centroid", "--delta", "1"], "--kind centroid does not take --delta"),
        (["solve", "{alg}", "--kind", "quasider", "--delta", "1/2"], "--kind quasider does not take --delta"),
        (["make", "witt", "--support", "0,1,2,3,4", "--modulus", "5", "--field", "Q"],
         "Witt Z/5 is Lie only in characteristic 5, not over Q"),
        (["make", "witt", "--support", "0,1,2,3,4,5,6", "--modulus", "7", "--field", "gf5"],
         "Witt Z/7 is Lie only in characteristic 7, not over gf5"),
        (["make", "witt", "--support=-1,0,1", "--modulus", "0"], "--modulus must be at least 2, got 0"),
        (["make", "witt", "--support", "0,1,2", "--modulus", "-3", "--field", "gf5"],
         "--modulus must be at least 2, got -3"),
        (["make", "witt", "--support", "0", "--modulus", "1"], "--modulus must be at least 2, got 1"),
        (["make", "witt", "--support", "1,,2"], "--support entry '' is not an integer"),
        (["make", "witt", "--support", "a"], "--support entry 'a' is not an integer"),
        (["validate", "{field_string}"], """field_string.json: 'field': expected an object such as {"kind": "Q"}, got 'Q'"""),
        (["validate", "{basis_string}"], "basis_string.json: 'basis' must be a list of names, got 'efh'"),
        (["solve", "{term_single}", "--delta", "1"],
         "term_single.json: products[0]: 'terms' must be a list of [index, scalar] pairs, got [[2]]"),
        (["validate", "{products_object}"], "products_object.json: 'products' must be a list"),
        (["validate", "{p_float}"], "p_float.json: 'field': p must be an integer, got 7.9"),
        (["validate", "{modulus_string}"],
         "modulus_string.json: 'field': modulus must be a list of coefficients, got '201'"),
        (["validate", "{form_number}"], "form_number.json: 'form' must be a list of rows, got 5"),
        (["validate", "{form_1x1}"], "form_1x1.json: 'form' must be 3 x 3, got rows of lengths [1]"),
        (["validate", "{form_ragged}"], "form_ragged.json: 'form' must be 3 x 3, got rows of lengths [3, 2, 3]"),
        (["validate", "{grading_number}"], "grading_number.json: 'grading' must be a list of parities, got 5"),
        (["validate", "{term_decimal}"], "term_decimal.json: products[0]: invalid scalar '0.5'"),
        (["validate", "{term_bool}"], "term_bool.json: products[0]: invalid scalar True"),
        (["validate", "{form_exponent}"], "form_exponent.json: form: invalid scalar '1e2'"),
        (["validate", "{modulus_decimal}"],
         "modulus_decimal.json: 'field': decimal literals are rejected, use exact fractions: '0.5'"),
        (["solve", "{alg}", "--delta", "true"], "not a scalar literal: 'true'"),
        (["grade", "{sl2_quot}", "{sl2_ad_h}", "--delta", "1"],
         "root decomposition needs a rational or prime base field"),
        (["make", "zassenhaus", "--p", "5", "--n", "-1"], "W_1(-1) needs height n >= 1"),
        (["make", "zassenhaus", "--p", "5", "--n", "0"], "W_1(0) needs height n >= 1"),
        (["make", "divided-powers", "--p", "5", "--n", "-1"], "O_1(-1) needs height n >= 1"),
        (["make", "zassenhaus", "--p", "5", "--field", "gf7"], "make zassenhaus does not take --field"),
        (["make", "divided-powers", "--p", "5", "--dim", "3"], "make divided-powers does not take --dim"),
        (["make", "elduque4", "--n", "2"], "make elduque4 does not take --n"),
        (["make", "abelian", "--dim", "2", "--p", "5"], "make abelian does not take --p"),
        (["make", "sl", "--n", "2", "--support", "0,1"], "make sl does not take --support"),
        (["make", "osp12", "--modulus", "5"], "make osp12 does not take --modulus"),
        (["make", "witt", "--support", "0,1", "--left", "{alg}"], "make witt does not take --left"),
        (["make", "current", "--left", "{alg}", "--right", "{alg}", "--field", "gf5"],
         "make current does not take --field"),
        (["solve", "{alg}", "--kind", "superder", "--delta", "1"], "--kind superder requires --parity"),
        (["solve", "{alg}", "--kind", "superder", "--parity", "1"], "--kind superder requires --delta"),
        (["solve", "{alg}"], "--delta is required unless --parametric is given"),
        (["validate", "{pair_twice}"], "pair_twice.json: products[3]: the pair (0, 1) is given twice"),
        (["solve", "{term_twice}", "--delta", "1"], "term_twice.json: products[0]: the term index 2 is given twice"),
        (["validate", "{p_mersenne89}"],
         "p_mersenne89.json: 'field': p = 618970019642690137449562111 is too large: "
         "primality is decided only below 318665857834031151167461"),
        (["make", "abelian", "--dim", "1", "--field", "gf618970019642690137449562111"],
         "p = 618970019642690137449562111 is too large: primality is decided only below 318665857834031151167461"),
        (["make", "sl", "--n", "2", "--field", "R"], "unknown field spec 'R' (use Q or gf<p>)"),
        (["make", "zassenhaus", "--p", "5", "--n", "7"],
         "make zassenhaus would build an algebra of dimension 78125, above the bound 512"),
        (["make", "zassenhaus", "--p", "5", "--n", "1000000000000"],
         "make zassenhaus would build an algebra of dimension 5^1000000000000, above the bound 512"),
        (["make", "zassenhaus", "--p", "1000003"],
         "make zassenhaus would build an algebra of dimension 1000003, above the bound 512"),
        (["make", "divided-powers", "--p", "5", "--n", "4"],
         "make divided-powers would build an algebra of dimension 625, above the bound 512"),
        (["make", "abelian", "--dim", "1000000000000"],
         "make abelian would build an algebra of dimension 1000000000000, above the bound 512"),
        (["make", "sl", "--n", "1000000"], "make sl would build an algebra of dimension 999999999999, above the bound 512"),
        (["make", "sl", "--n", "23"], "make sl would build an algebra of dimension 528, above the bound 512"),
        (["make", "witt", "--support", ",".join(map(str, range(513))), "--modulus", "1021", "--field", "gf1021"],
         "make witt would build an algebra of dimension 513, above the bound 512"),
        (["make", "current", "--left", "{abelian23_lie}", "--right", "{abelian23_assoc}"],
         "make current would build an algebra of dimension 529, above the bound 512"),
    ],
    ids=[
        "zassenhaus-no-p", "divided-powers-no-p", "abelian-no-dim", "witt-no-support",
        "current-no-left", "current-no-right", "solve-zero-denominator", "grade-zero-denominator",
        "solve-denominator-divisible-by-p",
        "maps-json-list", "maps-not-list", "maps-5x3", "maps-null-entry", "maps-invalid-json",
        "sl1", "sl0", "sl-negative", "sl-no-n", "abelian-dim-0", "parametric-with-delta",
        "parametric-superder", "parametric-centroid", "parametric-quasider", "parity-der",
        "parity-parametric", "parity-centroid", "parity-quasider", "delta-centroid", "delta-quasider",
        "witt-Z5-over-Q", "witt-Z7-over-GF5", "witt-modulus-0", "witt-modulus-negative",
        "witt-modulus-1", "witt-support-empty-entry", "witt-support-not-integer",
        "field-string", "basis-string", "term-single", "products-object",
        "p-float", "modulus-string", "form-number", "form-1x1", "form-ragged", "grading-number",
        "term-decimal", "term-bool", "form-exponent", "modulus-decimal", "delta-true",
        "grade-quot-field", "zassenhaus-n-negative", "zassenhaus-n-0", "divided-powers-n-negative",
        "zassenhaus-field", "divided-powers-dim", "elduque4-n", "abelian-p", "sl-support", "osp12-modulus",
        "witt-left", "current-field", "superder-no-parity", "superder-no-delta", "solve-no-delta",
        "pair-twice", "term-twice", "p-beyond-bound-file", "p-beyond-bound-flag", "field-unknown",
        "zassenhaus-above-size-bound", "zassenhaus-height-past-64", "zassenhaus-p-above-size-bound",
        "divided-powers-above-size-bound", "abelian-above-size-bound", "sl-huge", "sl23", "witt-above-size-bound",
        "current-above-size-bound",
    ],
)
def test_input_error_exit_2(tmp_path, capsys, argv, message):
    alg = tmp_path / "w11.json"
    assert run(capsys, "make", "zassenhaus", "--p", "5", "--out", str(alg))[0] == 0
    files = {"alg": str(alg)}
    for name, obj in {**BAD_MAPS, **BAD_ALGEBRAS, **VALID_FILES}.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    files["not_json"] = str(tmp_path / "not_json.json")
    (tmp_path / "not_json.json").write_text("{\n")
    argv = [a.format(**files) if a.startswith("{") else a for a in argv]
    if argv[0] == "make":
        argv += ["--out", str(tmp_path / "out.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_make_builds_at_the_size_bound(tmp_path, capsys):
    path = str(tmp_path / "abelian512.json")
    assert run(capsys, "make", "abelian", "--dim", "512", "--out", path) == (0, f"wrote {path} (dim = 512)\n", "")


def test_make_witt_in_its_characteristic_validates(tmp_path, capsys):
    path = str(tmp_path / "witt5.json")
    argv = ["make", "witt", "--support", "0,1,2,3,4", "--modulus", "5", "--field", "gf5", "--out", path]
    assert run(capsys, *argv) == (0, f"wrote {path} (dim = 5)\n", "")
    assert run(capsys, "validate", path) == (0, "ok: dim = 5, flavor = lie\n", "")


def test_make_witt_takes_a_separate_negative_support(tmp_path, capsys):
    """``--support -1,0,1`` (two arguments) writes what ``--support=-1,0,1`` does."""
    joined, separate = str(tmp_path / "joined.json"), str(tmp_path / "separate.json")
    assert run(capsys, "make", "witt", "--support=-1,0,1", "--field", "Q", "--out", joined)[0] == 0
    assert run(capsys, "make", "witt", "--support", "-1,0,1", "--field", "Q", "--out", separate) == (
        0, f"wrote {separate} (dim = 3)\n", "")
    with open(joined, "rb") as a, open(separate, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("command", ["solve", "grade"])
def test_separate_negative_fraction_delta(tmp_path, capsys, command):
    """``--delta -1/3`` (two arguments) runs as ``--delta=-1/3`` does: argparse
    alone reads "-1/3", which is no plain negative number, as an option."""
    if command == "solve":
        alg = tmp_path / "sl2.json"
        alg.write_text(json.dumps(SL2))
        argv, delta = ["solve", str(alg)], "-1/3"
    else:
        alg = tmp_path / "ab.json"
        assert run(capsys, "make", "abelian", "--dim", "2", "--field", "Q", "--out", str(alg))[0] == 0
        maps = tmp_path / "diag.json"
        maps.write_text(json.dumps({"maps": [[["1", "0"], ["0", "2"]]]}))
        argv, delta = ["grade", str(alg), str(maps)], "-1/2"
    joined, separate = tmp_path / "joined.json", tmp_path / "separate.json"
    expected = run(capsys, *argv, f"--delta={delta}", "--out", str(joined))
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, *argv, "--delta", delta, "--out", str(separate)) == expected
    assert separate.read_bytes() == joined.read_bytes()
    assert json.loads(joined.read_text())["delta"] == delta


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


def test_report_solves_half_once(tmp_path, capsys, monkeypatch):
    """One report solves delta = 1/2 once, for the half-derivation ring and
    the desk check, and takes the ring's nilradical once."""
    from deltader import cli, halfring, superstd

    path = str(tmp_path / "w11.json")
    run(capsys, "make", "zassenhaus", "--p", "5", "--n", "1", "--out", path)
    _, expected, _ = run(capsys, "report", path)
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append((name, args[1:]))
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module in (cli, halfring, superstd):
        counted(module, "solve_delta_derivations")
    counted(halfring, "nilradical")
    code, out, _ = run(capsys, "report", path)
    assert (code, out) == (0, expected)
    assert calls.count(("solve_delta_derivations", (3,))) == 1  # 1/2 in GF(5)
    assert [c for c, _ in calls].count("nilradical") == 1
    assert len(calls) == 7  # delta = -1, 0, 1/2, 1, 2, 1/3 and the nilradical


def test_report_abelian_hypotheses(tmp_path, capsys):
    path = str(tmp_path / "ab2.json")
    run(capsys, "make", "abelian", "--dim", "2", "--field", "Q", "--out", path)
    code, out, _ = run(capsys, "report", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["desk_check"]["hypotheses_met"] is False


HEISENBERG = {
    "field": {"kind": "Q"}, "dim": 3, "flavor": "lie", "basis": ["x", "y", "z"],
    "products": [{"i": 0, "j": 1, "terms": [[2, "1"]]}],
}


def test_report_heisenberg_ring_not_closed(tmp_path, capsys):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(HEISENBERG))
    code, out, err = run(capsys, "report", str(path))
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["half_ring"] == {"closed": False, "half_derivations_dim": 6, "witness": [0, 2]}
    assert rep["desk_check"]["hypotheses_met"] is False


def test_report_quotient_ring_half_ring_error(tmp_path, capsys):
    path = tmp_path / "sl2_quot.json"
    path.write_text(json.dumps(VALID_FILES["sl2_quot"]))
    code, out, err = run(capsys, "report", str(path))
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["half_ring"] == {"error": "nilradical computation needs a rational or prime field"}


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


def test_solve_centroid_and_quasider_out(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2))
    for kind, dim in [("centroid", 1), ("quasider", 9)]:
        out = tmp_path / f"{kind}.json"
        assert run(capsys, "solve", str(path), "--kind", kind, "--out", str(out)) == (0, f"dim = {dim}\n", "")
        data = json.loads(out.read_text())
        assert (data["kind"], data["dim"], len(data["basis"])) == (kind, dim, dim)


@pytest.mark.parametrize("argv", [["--kind", "quasider"], ["--parametric"]], ids=["quasider", "parametric"])
def test_solve_out_that_cannot_be_written_prints_nothing(tmp_path, capsys, argv):
    """A --out in a missing directory exits 2 with nothing on stdout: the
    file is written before the result is printed."""
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2))
    code, out, err = run(capsys, "solve", str(path), *argv, "--out", str(tmp_path / "missing" / "q.json"))
    assert (code, out) == (2, "")
    assert "No such file or directory" in err


def test_grade_and_report_out_match_stdout(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2))
    maps = tmp_path / "ad_h.json"
    maps.write_text(json.dumps(VALID_FILES["sl2_ad_h"]))
    for argv in (["grade", str(path), str(maps), "--delta", "1"], ["report", str(path)]):
        out = tmp_path / f"{argv[0]}.json"
        code, text, err = run(capsys, *argv, "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_bytes() == text.encode()


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


# calls in one process, in this order: each make after the first must not
# see the defaults _select filled in for the one before it (elduque4 fills
# --field, which zassenhaus refuses; zassenhaus fills --n, which abelian
# refuses), and the der solve after superder must not see its --parity
SEQUENCE = [
    ["make", "elduque4", "--out", "{e4}"],
    ["make", "zassenhaus", "--p", "5", "--out", "{w11}"],
    ["make", "abelian", "--dim", "2", "--out", "{ab}"],
    ["make", "zassenhaus", "--p", "5", "--field", "gf7", "--out", "{z}"],
    ["make", "sl", "--n", "2", "--field", "Q", "--out", "{sl2}"],
    ["make", "osp12", "--field", "gf7", "--out", "{osp}"],
    ["validate", "{w11}"],
    ["solve", "{w11}", "--delta", "1/2", "--out", "{half}"],
    ["solve", "{sl2}", "--parametric", "--out", "{par}"],
    ["solve", "{sl2}", "--kind", "centroid"],
    ["solve", "{sl2}", "--kind", "quasider", "--out", "{quasi}"],
    ["solve", "{osp}", "--kind", "superder", "--delta", "1", "--parity", "1"],
    ["solve", "{osp}", "--delta", "1"],
    ["solve", "{sl2}", "--kind", "centroid", "--parity", "0"],
    ["grade", "{w11}", "{half}", "--delta", "1/2"],
    ["report", "{w11}", "--out", "{report}"],
    ["solve"],
    ["bogus"],
    ["make", "zassenhaus", "--p", "five", "--out", "{z}"],
    ["--help"],
    ["solve", "--help"],
]


def _run_sequence(tmp_path, capsys, before_each=None):
    """(code, stdout, stderr, bytes of the --out file) of each call of
    SEQUENCE, in order; ``before_each`` runs before every call."""
    names = {a[1:-1] for argv in SEQUENCE for a in argv if a.startswith("{")}
    files = {name: str(tmp_path / f"{name}.json") for name in names}
    results = []
    for argv in SEQUENCE:
        argv = [a.format(**files) if a.startswith("{") else a for a in argv]
        out = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if out:
            out.unlink(missing_ok=True)
        if before_each:
            before_each()
        code, text, err = run(capsys, *argv)
        results.append((code, text, err, out.read_bytes() if out and out.exists() else None))
    return results


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    import argparse

    from deltader import cli

    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        codes = [code for code, *_ in _run_sequence(tmp_path, capsys)]
        assert set(codes) == {0, 2}
    assert built.count("deltader") == 1
    assert len(built) == 6  # the parser and its five subcommands


def test_shared_parser_answers_as_fresh_parsers_do(tmp_path, capsys):
    """Every call of SEQUENCE, made in turn with the one parser of the
    process, gives what the same call gives with a parser built for it."""
    from deltader import cli

    cli.build_parser.cache_clear()
    shared = _run_sequence(tmp_path, capsys)
    fresh = _run_sequence(tmp_path, capsys, before_each=cli.build_parser.cache_clear)
    assert shared == fresh
    assert [code for code, *_ in shared[:4]] == [0, 0, 0, 2]
    assert shared[3][2] == "error: make zassenhaus does not take --field\n"
    assert shared[12][:3] == (0, "dim = 3\n", "")
    assert shared[13][2] == "error: --kind centroid does not take --parity\n"
    assert [code for code, *_ in shared[-5:]] == [2, 2, 2, 0, 0]


@pytest.mark.parametrize(
    "argv,out",
    [
        (["--delta", "1/2"], None),
        (["--parametric"], None),
        (["--kind", "centroid"], None),
        (["--kind", "quasider"], None),
        (["--delta", "1/2", "--out", "{out}"], "SolutionSpace"),
        (["--parametric", "--out", "{out}"], "ParametricResult"),
    ],
    ids=["der", "parametric", "centroid", "quasider", "der-out", "parametric-out"],
)
def test_solve_makes_json_only_for_out(tmp_path, capsys, monkeypatch, argv, out):
    from deltader.solver import ParametricResult, SolutionSpace

    calls = []
    for cls in (SolutionSpace, ParametricResult):
        def counted(self, *args, _cls=cls, _fn=cls.to_json):
            calls.append(_cls.__name__)
            return _fn(self, *args)

        monkeypatch.setattr(cls, "to_json", counted)
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2))
    argv = [a.format(out=tmp_path / "out.json") for a in argv]
    code, _, err = run(capsys, "solve", str(path), *argv)
    assert (code, err) == (0, "")
    assert calls == ([out] if out else [])


def test_usage_error_and_help_return_their_codes(capsys):
    code, out, err = run(capsys, "solve")
    assert (code, out) == (2, "")
    assert err.startswith("usage: deltader solve ")
    assert err.endswith("deltader solve: error: the following arguments are required: algebra\n")
    code, out, err = run(capsys, "make", "bogus", "--out", "x.json")
    assert (code, out) == (2, "")
    assert "argument kind: invalid choice: 'bogus'" in err
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: deltader ")
