"""Fuzz of the command line: mutated algebra files, map files and argv lists.

Every failure of the CLI maps to exit 2 (bad input) or 3 (a mathematical
precondition fails), with a readable ``error:`` line on stderr; a traceback,
or any other exit code, is a bug.  Each example starts from valid files and a
valid command and applies a few drawn mutations: dropped keys and list
items, values of the wrong type, indices out of range or huge, fractions
whose denominator p divides, scalars that break the Jacobi identity,
repeated entries, and dropped, empty or repeated options.  ``cli.main`` runs
in-process on ``make``, ``validate``, ``solve``, ``grade`` and ``report``.
"""

import copy
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from deltader.algebras import (
    Algebra,
    algebra_to_json,
    make_osp12,
    make_special_linear,
    make_zassenhaus,
)
from deltader.cli import main
from deltader.fields import PrimeField, QuotientRing, Rationals

Q = Rationals()


def _maps_doc(alg, *maps):
    """{"maps": [...]}: a map file of the given linear maps."""
    F = alg.field
    return {"maps": [[[F.fmt(c) for c in row] for row in m.rows] for m in maps]}


def _documents():
    """Valid algebra files and map files, by name."""
    sl2 = make_special_linear(2, Q)
    w11 = make_zassenhaus(5, 1)
    osp = make_osp12(PrimeField(7))
    sl2_quot = make_special_linear(2, QuotientRing(Q, [Fraction(-2), Fraction(0), Fraction(1)]))
    # Q[t]/(t^2), commutative and associative: the right factor of a current algebra
    trunc = Algebra(Q, 2, ["1", "t"], {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}}, flavor="assoc")
    algebras = {"sl2": sl2, "w11": w11, "osp": osp, "sl2_quot": sl2_quot, "trunc": trunc}
    docs = {name: algebra_to_json(alg) for name, alg in algebras.items()}
    docs["sl2_ad_h"] = _maps_doc(sl2, sl2.ad(2))
    # ad(e - f) has the eigenvalues +-2i: its characteristic polynomial
    # does not split over Q, and grade exits 3
    docs["sl2_ad_e_minus_f"] = _maps_doc(sl2, sl2.ad(0).add(sl2.ad(1).scale(Fraction(-1))))
    docs["w11_ad_e0"] = _maps_doc(w11, w11.ad(1))
    docs["w11_ad_e0_e1"] = _maps_doc(w11, w11.ad(1), w11.ad(2))
    docs["osp_ad_h"] = _maps_doc(osp, osp.ad(0))
    return json.loads(json.dumps(docs))


DOCS = _documents()
ALGEBRAS = ["sl2", "w11", "osp", "sl2_quot", "trunc"]
MAPS = ["sl2_ad_h", "sl2_ad_e_minus_f", "w11_ad_e0", "w11_ad_e0_e1", "osp_ad_h"]

# wrong types, indices out of range and huge, zero denominators in GF(5)
# and GF(7), decimals, and scalars that break the laws of a valid file
JUNK = st.sampled_from(
    [
        None, True, False, 0, 1, 2, 3, 5, 7, 25, -1, 2**64, 10**30, -(10**30), 0.5,
        "", "x", "0", "1", "2", "-1", "1/2", "-1/3", "3/7", "1/5", "2/7", "1/0", "0.5", "1e2",
        [], {}, [0], [0, "1"], [7, "1"], ["1", "2"], [[0, "1"]], [["1"]],
        {"kind": "Q"}, {"kind": "GFp", "p": 5}, {"kind": "GFp", "p": 4}, {"kind": "quot"},
    ]
)


def _paths(doc, prefix=()):
    """Every path of keys and indices into a JSON document, the root first."""
    out = [prefix]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out += _paths(value, prefix + (key,))
    return out


@st.composite
def mutated(draw, name):
    """The document ``name`` after zero to three drawn mutations."""
    doc = copy.deepcopy(DOCS[name])
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(_paths(doc)))
        if not path:
            if draw(st.booleans()):
                doc = copy.deepcopy(draw(JUNK))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["drop", "replace", "repeat"]))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = copy.deepcopy(draw(JUNK))
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], parent[key]]
    return doc


# valid commands, with {name} placeholders for the files they read and write
COMMANDS = [
    ["make", "zassenhaus", "--p", "5", "--out", "{out}"],
    ["make", "divided-powers", "--p", "5", "--n", "1", "--out", "{out}"],
    ["make", "elduque4", "--out", "{out}"],
    ["make", "abelian", "--dim", "3", "--field", "gf7", "--out", "{out}"],
    ["make", "sl", "--n", "2", "--field", "gf5", "--out", "{out}"],
    ["make", "osp12", "--field", "gf7", "--out", "{out}"],
    ["make", "witt", "--support", "-1,0,1", "--out", "{out}"],
    ["make", "witt", "--support", "0,1,2,3,4", "--modulus", "5", "--field", "gf5", "--out", "{out}"],
    ["make", "current", "--left", "{sl2}", "--right", "{trunc}", "--out", "{out}"],
    ["validate", "{osp}"],
    ["solve", "{w11}", "--delta", "1/2"],
    ["solve", "{sl2}", "--parametric", "--out", "{out}"],
    ["solve", "{osp}", "--kind", "superder", "--delta", "1", "--parity", "1"],
    ["solve", "{sl2}", "--kind", "centroid", "--out", "{out}"],
    ["solve", "{sl2_quot}", "--kind", "quasider"],
    ["grade", "{sl2}", "{sl2_ad_h}", "--delta", "1"],
    ["grade", "{sl2}", "{sl2_ad_e_minus_f}", "--delta", "1"],
    ["grade", "{w11}", "{w11_ad_e0}", "--delta", "1", "--out", "{out}"],
    ["grade", "{osp}", "{osp_ad_h}", "--delta", "1"],
    ["report", "{w11}"],
    ["report", "{sl2_quot}", "--out", "{out}"],
]
# options, and values valid and not.  No value is above 3, so that no size
# is large enough for a slow run: the largest algebra a mutated make can
# build is W(1,3) over GF(5), of dimension 125
OPTIONS = [
    "--p", "--n", "--dim", "--field", "--support", "--modulus", "--left", "--right",
    "--out", "--delta", "--parametric", "--kind", "--parity",
]
VALUES = [
    "3", "2", "1", "0", "-1", "-5", "x", "",
    "1/2", "-1/3", "-1/2", "1/5", "1/7", "1/0", "0.5", "1e2",
    "Q", "q", "QQ", "gf5", "f7", "gf4", "gf1", "gf", "R", "gf618970019642690137449562111",
    "0,1", "-1,0,1", "-2,2", "1,,2", "a",
    "der", "centroid", "quasider", "superder", "bogus",
    "zassenhaus", "sl", "witt", "current", "make", "solve",
] + ["{%s}" % name for name in ALGEBRAS + MAPS + ["missing", "not_json", "out", "no_dir"]]


def _name(arg):
    """The file name a {name} placeholder stands for, or None."""
    return arg[1:-1] if arg[:1] == "{" and arg[-1:] == "}" else None


@st.composite
def runs(draw):
    """(documents, argv): a valid command, with each file it names after
    zero to three drawn mutations (see ``mutated``) and its argv after
    zero to three more: an argument replaced or dropped, an option added,
    one repeated, or an empty argument inserted."""
    argv = list(draw(st.sampled_from(COMMANDS)))
    docs = {name: draw(mutated(name)) for name in map(_name, argv) if name in DOCS}
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["value", "add", "drop", "repeat", "empty"]))
        i = draw(st.integers(0, len(argv) - 1))
        if action == "value":
            argv[i] = draw(st.sampled_from(VALUES))
        elif action == "add":
            argv += [draw(st.sampled_from(OPTIONS)), draw(st.sampled_from(VALUES))]
        elif action == "drop" and len(argv) > 1:
            del argv[i]
        elif action == "repeat":
            argv += argv[i : i + 2]
        else:
            argv.insert(i, "")
    return docs, argv


def run_cli(argv, cwd):
    """Exit code, stdout and stderr of ``cli.main`` run in the directory
    cwd, where a mutated ``--out`` value such as "Q" writes its file."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def write_files(root, docs):
    """Write the documents as <name>.json under root, plus an invalid JSON
    file; return the placeholder names mapped to their paths."""
    files = {}
    for name, doc in docs.items():
        files[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(doc))
    (root / "not_json.json").write_text("{\n")
    files["not_json"] = str(root / "not_json.json")
    files["missing"] = str(root / "missing.json")
    files["out"] = str(root / "out.json")
    files["no_dir"] = str(root / "no_dir" / "out.json")
    return files


@settings(
    derandomize=True, deadline=None, max_examples=500, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(drawn=runs())
def test_cli_exits_0_2_or_3_with_an_error_line(tmp_path, drawn):
    docs, argv = drawn
    files = write_files(tmp_path, {**DOCS, **docs})
    code, _, err = run_cli([files[_name(a)] if _name(a) else a for a in argv], tmp_path)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert re.search(r"error: \S", err), (argv, code, err)
