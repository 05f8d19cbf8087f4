"""Malformed diagram and chamber JSON fed to the CLI: always exit code 1 with
an `error:` line, never a traceback."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from artin import cli

SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
JUNK = st.one_of(SCALAR, st.lists(SCALAR, max_size=2), st.dictionaries(st.text(max_size=3), SCALAR, max_size=2))
NOT_LIST = JUNK.filter(lambda x: not isinstance(x, list))
NOT_NAME = st.one_of(JUNK.filter(lambda x: not isinstance(x, str)), st.just(""))
BAD_LABEL = st.one_of(
    st.integers(-3, 2),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4).filter(lambda x: x != "inf"),
    st.lists(st.integers(3, 5), max_size=2),
)


def base():
    return {
        "vertices": ["s", "t", "u"],
        "edges": [{"a": "s", "b": "t", "m": 3}, {"a": "t", "b": "u", "m": "inf"}],
    }


@st.composite
def bad_diagrams(draw):
    obj = base()
    how = draw(st.integers(0, 12))
    if how == 0:
        return "{" + draw(st.text(max_size=8)).replace("}", "")
    if how == 1:
        return json.dumps(draw(st.lists(JUNK, max_size=3)))
    if how == 2:
        obj["vertices"] = draw(NOT_LIST)
    elif how == 3:
        obj["vertices"].insert(draw(st.integers(0, 3)), draw(NOT_NAME))
    elif how == 4:
        obj["vertices"] = [] if draw(st.booleans()) else ["s", "t", "u", "t"]
    elif how == 5:
        obj[draw(st.text(max_size=5).filter(lambda k: k not in obj))] = draw(JUNK)
    elif how == 6:
        obj["edges"] = draw(NOT_LIST)
    elif how == 7:
        obj["edges"].append(draw(JUNK.filter(lambda x: not isinstance(x, dict))))
    elif how == 8:
        obj["edges"][0][draw(st.text(max_size=3).filter(lambda k: k not in "abm" or not k))] = 1
    elif how == 9:
        obj["edges"][1][draw(st.sampled_from("ab"))] = draw(NOT_NAME)
    elif how == 10:
        obj["edges"][0]["b"] = draw(st.sampled_from(["s", "x", "S"]))
    elif how == 11:
        obj["edges"][0]["m"] = draw(BAD_LABEL)
    else:
        obj["edges"].append({"a": "t", "b": "s", "m": 4})
    return json.dumps(obj)


NOT_INT = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.text(alphabet="abxyz -", max_size=4),
    st.text(alphabet="0123456789", min_size=1, max_size=3),
)


@st.composite
def bad_chambers(draw):
    obj = {"n": 1, "chambers": [["a", "b"], ["b", "c"]], "index": [0, 1]}
    how = draw(st.integers(0, 7))
    if how == 0:
        return "{" + draw(st.text(max_size=8)).replace("}", "")
    if how == 1:
        return json.dumps(draw(st.lists(JUNK, max_size=3)))
    if how == 2:
        del obj[draw(st.sampled_from(["n", "chambers"]))]
    elif how == 3:
        obj[draw(st.text(max_size=5).filter(lambda k: k not in obj))] = draw(JUNK)
    elif how == 4:
        obj["n"] = draw(NOT_INT)
    elif how == 5:
        obj["chambers"] = draw(st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3)))
    elif how == 6:
        obj["chambers"].append(
            draw(st.one_of(st.integers(), st.none(), st.just([["a"]]), st.text(max_size=3)))
        )
    else:
        obj["index"] = draw(
            st.one_of(
                st.integers(),
                st.text(alphabet="0123456789", min_size=1, max_size=3),
                st.lists(NOT_INT, min_size=1, max_size=2),
            )
        )
    return json.dumps(obj)


def run_cli(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, path])
    return code, out.getvalue(), err.getvalue()


@given(bad_diagrams(), st.sampled_from(["classify", "sf", "taxonomy"]))
def test_malformed_diagram_json_is_an_error_line(text, command):
    code, out, err = run_cli([command, "--file"], text)
    assert code == 1, (text, out, err)
    assert any(line.startswith("error:") for line in err.splitlines()), err
    assert "Traceback" not in out + err


@given(bad_chambers(), st.sampled_from(["shelling-check", "is-shelling"]))
def test_malformed_chamber_json_is_an_error_line(text, command):
    code, out, err = run_cli([command, "--chambers"], text)
    assert code == 1, (text, out, err)
    assert any(line.startswith("error:") for line in err.splitlines()), err
    assert "Traceback" not in out + err
