"""CLI surface: subcommand coverage, output stability, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import artin
from artin import cli

SUBCOMMANDS = [
    "classify", "taxonomy", "sf", "form", "signature", "rep-check",
    "cox-nf", "enumerate", "longest", "reflections", "tmin",
    "coxeter-elements", "mon-nf", "mon-equal", "divides", "gcd", "lcm",
    "delta", "sigma", "garside-nf", "axioms", "grp-nf", "grp-equal",
    "fraction", "section", "project", "salvetti", "davis", "deligne-fd",
    "homology", "quotient-cells", "abelianization", "shelling-check",
    "is-shelling",
]

# every library operation is reachable from exactly one subcommand
OPERATION_MAP = {
    "diagram.parse_diagram": "classify",  # via --file on every subcommand
    "diagram.is_finite_type": "classify",
    "diagram.classify_taxonomy": "taxonomy",
    "diagram.finite_type_subsets": "sf",
    "tits.bilinear_form": "form",
    "tits.signature": "signature",
    "tits.reflection_matrices": "rep-check",
    "tits.pair_order": "rep-check",
    "coxeter.normalize": "cox-nf",
    "coxeter.enumerate_elements": "enumerate",
    "coxeter.longest_element": "longest",
    "coxeter.reflections": "reflections",
    "coxeter.t_minimal_representative": "tmin",
    "coxeter.coxeter_elements": "coxeter-elements",
    "monoid.canonicalize": "mon-nf",
    "monoid.monoid_equal": "mon-equal",
    "monoid.divides": "divides",
    "monoid.gcd": "gcd",
    "monoid.lcm": "lcm",
    "monoid.garside_element": "delta",
    "monoid.garside_permutation": "sigma",
    "monoid.garside_normal_form": "garside-nf",
    "monoid.verify_garside_axioms": "axioms",
    "group.from_letters": "grp-nf",
    "group.equal": "grp-equal",
    "group.fraction_decomposition": "fraction",
    "group.canonical_section": "section",
    "group.project": "project",
    "group.is_pure": "project",
    "complexes.salvetti_poset": "salvetti",
    "complexes.davis_poset": "davis",
    "complexes.deligne_fundamental_domain": "deligne-fd",
    "complexes.homology": "homology",
    "diagram.salvetti_quotient_cells": "quotient-cells",
    "diagram.abelianization": "abelianization",
    "shelling.verify_claims": "shelling-check",
    "shelling.is_shelling": "is-shelling",
}


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_all_subcommands_exist():
    parser = cli.build_parser()
    actions = [a for a in parser._actions if a.dest == "command"]
    assert actions
    registered = set(actions[0].choices)
    assert registered == set(SUBCOMMANDS)


def test_operation_coverage():
    assert set(OPERATION_MAP.values()) <= set(SUBCOMMANDS)
    # every subcommand backs at least one operation
    assert set(SUBCOMMANDS) <= set(OPERATION_MAP.values())


def test_classify_example(capsys):
    code, out, _ = run(["classify", "--preset", "Atilde2"], capsys)
    assert code == 0
    assert json.loads(out) == {"finite_type": False}


def test_grp_equal_example(capsys):
    code, out, _ = run(
        ["grp-equal", "--preset", "A2", "--left", "s t s", "--right", "t s t"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "true"


def test_homology_example(capsys):
    code, out, _ = run(
        ["homology", "--preset", "A1", "--complex", "salvetti",
         "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "H_0 = Z, H_1 = Z"


def test_version(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert out.startswith("artin ")
    assert "format" in out


def test_deterministic_output(capsys):
    argv = ["salvetti", "--preset", "B2", "--format", "json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    argv2 = ["axioms", "--preset", "A2"]
    _, a1, _ = run(argv2, capsys)
    _, a2, _ = run(argv2, capsys)
    assert a1 == a2


def test_exit_codes(capsys):
    code, _, err = run(["classify", "--preset", "NoSuch"], capsys)
    assert code == 1
    assert "error" in err
    code2, _, _ = run(["classify"], capsys)
    assert code2 == 2
    code3, _, _ = run(["cox-nf", "--preset", "A2", "--word", "s x"], capsys)
    assert code3 == 1
    code4, _, _ = run(
        ["classify", "--preset", "A2", "--file", "/tmp/nope.json"], capsys
    )
    assert code4 == 2
    code5, _, _ = run(["delta", "--preset", "Atilde2"], capsys)
    assert code5 == 1  # FiniteTypeRequiredError is a domain error


def test_delta_error_text_does_not_depend_on_the_hash_seed():
    # string hashing orders set iteration; the message lists T in vertex order
    runs = []
    for seed in ("0", "1"):
        p = subprocess.run(
            [sys.executable, "-m", "artin", "delta", "--preset", "Atilde2"],
            capture_output=True, text=True, timeout=60,
            env=dict(_fresh_env(), PYTHONHASHSEED=seed),
        )
        runs.append((p.returncode, p.stdout, p.stderr))
    assert runs[0] == runs[1]
    assert runs[0] == (
        1, "", "error: Delta_T requires a finite-type subset, got T = {'s', 't', 'u'}\n"
    )


def test_chamber_witnesses_do_not_depend_on_the_hash_seed(tmp_path):
    # chamber 2 meets the earlier ones in two vertices, each a maximal face
    # of the wrong dimension; the witness names the first by its repr
    path, glued = tmp_path / "c.json", tmp_path / "g.json"
    path.write_text('{"n":2,"chambers":[["p","q","r"],["q","a","s"],["p","s","x"]],'
                    '"index":[0,1,2]}')
    glued.write_text('{"n":2,"chambers":[["p","q","r"],["q","r","s"],["p","s","x"]]}')
    argvs = [["shelling-check", "--chambers", str(path)],
             ["shelling-check", "--chambers", str(path), "--format", "text"],
             ["is-shelling", "--chambers", str(glued)]]
    runs = []
    for seed in ("1", "2", "5"):
        runs.append([])
        for argv in argvs:
            p = subprocess.run(
                [sys.executable, "-m", "artin", *argv], capture_output=True, timeout=60,
                env=dict(_fresh_env(), PYTHONHASHSEED=seed),
            )
            runs[-1].append((p.returncode, p.stdout, p.stderr))
    assert runs[0] == runs[1] == runs[2]
    witness = json.loads(runs[0][0][1])["claim_a"][1]["witness"]
    assert witness == "maximal shared face ['p'] has dimension 0, expected 1"
    assert json.loads(runs[0][2][1])["witness"] == f"chamber 2: {witness}"


def test_file_source(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text('{"vertices":["x","y"],"edges":[{"a":"x","b":"y","m":5}]}')
    code, out, _ = run(["classify", "--file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["components"] == ["I2(5)"]


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(["classify", "--file", "/tmp/does-not-exist-77.json"], capsys)
    assert code == 1
    assert "error" in err


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ARTIN_CAP", "2")
    code, _, err = run(
        ["mon-nf", "--preset", "A3", "--word", "s t u s t u"], capsys
    )
    assert code == 1
    assert "cap" in err
    monkeypatch.setenv("ARTIN_CAP", "notanint")
    code2, _, _ = run(["mon-nf", "--preset", "A3", "--word", "s"], capsys)
    assert code2 == 1
    # explicit --cap flag wins over the environment
    monkeypatch.setenv("ARTIN_CAP", "2")
    code3, _, _ = run(
        ["mon-nf", "--preset", "A3", "--word", "s t u s t u", "--cap", "100000"],
        capsys,
    )
    assert code3 == 0


def test_dot_output_for_posets(capsys):
    code, out, _ = run(["salvetti", "--preset", "A1", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")
    # dot is rejected by the parser for non-poset subcommands
    code2, _, _ = run(["classify", "--preset", "A2", "--format", "dot"], capsys)
    assert code2 == 2


def test_enumerate_counts_json(capsys):
    code, out, _ = run(["enumerate", "--preset", "I2(4)"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"] == {"0": 1, "1": 2, "2": 2, "3": 2, "4": 1}
    assert obj["total"] == 8


def test_shelling_check_from_diagram(capsys):
    code, out, _ = run(
        ["shelling-check", "--preset", "I2(3)", "--format", "text"], capsys
    )
    assert code == 0
    assert "0-connected" in out


def test_shelling_check_from_file(tmp_path, capsys):
    path = tmp_path / "cc.json"
    path.write_text(json.dumps({
        "n": 1,
        "chambers": [["a", "b"], ["b", "c"], ["c", "d"]],
        "index": [0, 1, 2],
    }))
    code, out, _ = run(["shelling-check", "--chambers", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["conclusion"] == "contractible"
    # index from the flag overrides the file
    code2, out2, _ = run(
        ["shelling-check", "--chambers", str(path), "--index", "0,2,1"], capsys
    )
    assert code2 == 0
    assert json.loads(out2)["passed"] is False


def test_is_shelling_cli(capsys, tmp_path):
    code, out, _ = run(
        ["is-shelling", "--preset", "I2(4)", "--format", "text"], capsys
    )
    assert code == 0
    assert out.strip() == "true"
    path = tmp_path / "cc.json"
    path.write_text(json.dumps({
        "n": 1, "chambers": [["a", "b"], ["b", "c"], ["c", "d"]],
    }))
    code2, out2, _ = run(
        ["is-shelling", "--chambers", str(path), "--order", "0,2,1"], capsys
    )
    assert code2 == 0
    assert json.loads(out2)["ok"] is False


def test_chambers_and_preset_conflict(capsys, tmp_path):
    path = tmp_path / "cc.json"
    path.write_text(json.dumps({"n": 1, "chambers": [["a", "b"]]}))
    code, _, _ = run(
        ["is-shelling", "--chambers", str(path), "--preset", "A2"], capsys
    )
    assert code == 2


def test_json_matches_text_content(capsys):
    _, out, _ = run(["longest", "--preset", "A3"], capsys)
    word = json.loads(out)["word"]
    _, text, _ = run(["longest", "--preset", "A3", "--format", "text"], capsys)
    assert "".join(word) == text.strip()


@pytest.mark.parametrize("command, flag, text, message", [
    ("classify", "--file", '{"vertices": ["s", "t"], "edges": 5}', "edges"),
    ("classify", "--file", '{"vertices": ["s", "t"], "edges": [{"a": ["s"], "b": "t", "m": 3}]}',
     "bad edge entry"),
    ("classify", "--file", '[{"vertices": ["s"]}]', "must be an object"),
    ("shelling-check", "--chambers", '{"n": 1, "chambers": 5}', "chambers"),
    ("shelling-check", "--chambers", '{"n": 1, "chambers": [[["a"]], ["b"]]}', "chambers"),
    ("shelling-check", "--chambers", '{"n": null, "chambers": [["a", "b"]]}', "integer"),
])
def test_malformed_json_is_a_domain_error(tmp_path, capsys, command, flag, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run([command, flag, str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_cap_is_a_usage_error(capsys, monkeypatch, cap):
    code, _, err = run(["cox-nf", "--preset", "A2", "--word", "s t", "--cap", cap], capsys)
    assert code == 2 and "positive" in err
    monkeypatch.setenv("ARTIN_CAP", cap)
    code2, _, err2 = run(["cox-nf", "--preset", "A2", "--word", "s t"], capsys)
    assert code2 == 2 and "ARTIN_CAP" in err2


def test_python_m_artin():
    src = os.path.dirname(os.path.dirname(os.path.abspath(artin.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("artin", "artin.cli"):
        p = subprocess.run([sys.executable, "-m", module, "--version"],
                           capture_output=True, text=True, env=env, timeout=60)
        assert p.returncode == 0, p.stderr
        assert p.stdout.startswith("artin ")


def _fresh_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(artin.__file__)))
    return dict(os.environ, PYTHONPATH=src)


BASE_MODULES = {"artin", "artin.cli", "artin.diagram", "artin.errors"}
COXETER = BASE_MODULES | {"artin.coxeter"}
MONOID = COXETER | {"artin.monoid"}
W = ["--word", "s t u"]
LR = ["--left", "s t", "--right", "t s"]

# family -> (argv run in one fresh interpreter, exit codes, artin modules
# loaded afterwards, numpy loaded afterwards)
MODULE_SETS = {
    "import": ([], [], BASE_MODULES, False),
    "classify": (
        [["classify", "--preset", "B3"], ["taxonomy", "--preset", "B3"],
         ["classify", "--preset", "NoSuch"], ["classify"], ["nosuch"], ["--version"],
         ["sf", "--preset", "B3"], ["quotient-cells", "--preset", "B3"],
         ["abelianization", "--preset", "B3"]],
        [0, 0, 1, 2, 2, 0, 0, 0, 0], BASE_MODULES, False),
    "complexes": (
        [["salvetti", "--preset", "A2"], ["davis", "--preset", "A2"],
         ["deligne-fd", "--preset", "A2"], ["homology", "--preset", "A2", "--complex", "salvetti"]],
        [0] * 4, COXETER | {"artin.complexes"}, False),
    "coxeter": (
        [["cox-nf", "--preset", "B3", *W], ["enumerate", "--preset", "B3"],
         ["longest", "--preset", "B3"], ["reflections", "--preset", "B3"],
         ["tmin", "--preset", "B3", *W, "--t", "s"], ["coxeter-elements", "--preset", "B3"]],
        [0] * 6, COXETER, False),
    "monoid": (
        [["mon-nf", "--preset", "B3", *W], ["mon-equal", "--preset", "B3", *LR],
         ["divides", "--preset", "B3", "--dvr", "s", *W], ["gcd", "--preset", "B3", *LR],
         ["lcm", "--preset", "B3", *LR], ["delta", "--preset", "B3"],
         ["sigma", "--preset", "B3"], ["garside-nf", "--preset", "B3", *W],
         ["axioms", "--preset", "A2"]],
        [0] * 9, MONOID, False),
    "group": (
        [["grp-nf", "--preset", "B3", *W], ["grp-equal", "--preset", "B3", *LR],
         ["fraction", "--preset", "B3", *W], ["section", "--preset", "B3", *W],
         ["project", "--preset", "B3", *W]],
        [0] * 5, MONOID | {"artin.group"}, False),
    "shelling": (
        [["shelling-check", "--preset", "B3"], ["is-shelling", "--preset", "B3"]],
        [0, 0], COXETER | {"artin.shelling"}, False),
    **{
        name: ([[name, "--preset", "B3"]], [0], BASE_MODULES | {"artin.tits"}, True)
        for name in ("form", "signature", "rep-check")
    },
}


@pytest.mark.parametrize("family", MODULE_SETS)
def test_subcommand_loads_only_its_modules(family):
    """Start-up cost is the modules a process imports: a subcommand loads the
    library modules it calls and no others, and only the float subcommands
    load numpy.  Module sets are deterministic, unlike start-up time."""
    argvs, codes, modules, numpy_loaded = MODULE_SETS[family]
    script = (
        "import contextlib, io, json, sys\n"
        "import artin.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [artin.cli.main(argv) for argv in {argvs!r}]\n"
        "mods = sorted(m for m in sys.modules if m == 'artin' or m.startswith('artin.'))\n"
        "print(json.dumps([codes, mods, 'numpy' in sys.modules]))\n"
    )
    p = subprocess.run([sys.executable, "-c", script],
                       capture_output=True, text=True, env=_fresh_env(), timeout=60)
    assert p.returncode == 0, p.stderr
    got_codes, got_modules, got_numpy = json.loads(p.stdout.splitlines()[-1])
    assert got_codes == codes
    assert set(got_modules) == modules
    assert got_numpy is numpy_loaded


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def _parse(parser, argv):
    """(exit code, stderr) of a parse that fails; (0, namespace) of one that
    succeeds, without the subparser, which differs by construction."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            ns = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue()
    del ns["subparser"]
    return 0, ns


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_single_subcommand_parser_matches_full_parser(name):
    full, single = cli.build_parser(), cli._build_parser(name)
    assert _subparser(single, name).format_help() == _subparser(full, name).format_help()
    required = []
    for action in _subparser(full, name)._actions:
        if action.required:
            required += [action.option_strings[0], (action.choices or ["s"])[0]]
    valid = [name, "--preset", "A2", *required]
    cases = [
        valid,
        valid + ["--bogus"],
        valid + ["--format", "xml"],
        valid + ["--cap", "0"],
        valid + ["--cap", "x"],
        [name, "--pres", "A2", "--form", "text", *required],
        [name, "--help"],
    ]
    if required:
        cases.append(valid[:-2])
    for argv in cases:
        assert _parse(single, argv) == _parse(full, argv), argv
    assert _parse(single, valid)[0] == 0


def test_main_builds_only_the_named_subparser(monkeypatch, capsys):
    seen = []
    real = cli._build_parser

    def spy(only):
        seen.append(only)
        return real(only)

    monkeypatch.setattr(cli, "_build_parser", spy)
    for argv in (["classify", "--preset", "A2"], ["--version"], ["nosuch"], [], ["-h"],
                 ["is-shelling", "--preset", "A2"]):
        cli.main(argv)
    capsys.readouterr()
    assert seen == ["classify", None, None, None, None, "is-shelling"]


def test_closed_stdout_exits_1_without_a_traceback():
    # D5's element words are about 280 kB of JSON, several pipe buffers, so
    # the write is still under way when the reader goes away.
    p = subprocess.Popen(
        [sys.executable, "-m", "artin", "enumerate", "--preset", "D5", "--words"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(),
    )
    assert p.stdout.readline() == b"{\n"
    p.stdout.close()
    err = p.stderr.read()
    assert p.wait(timeout=60) == 1
    assert err == b""


CAP_TRIPS = [
    ["enumerate"], ["longest"], ["reflections"], ["coxeter-elements"],
    ["cox-nf", *W], ["tmin", *W, "--t", "s"],
    ["mon-nf", *W], ["gcd", *LR], ["lcm", *LR], ["delta"], ["sigma"],
    ["garside-nf", *W], ["axioms"],
    ["mon-equal", *LR], ["divides", "--dvr", "s", *W],
    ["grp-nf", "--word", "s t^-1 u"], ["grp-equal", *LR], ["fraction", "--word", "s t^-1 u"],
    ["section", *W], ["project", "--word", "s t^-1 u"],
    ["salvetti"], ["davis"], ["homology", "--complex", "salvetti"],
    ["shelling-check"], ["is-shelling"],
]


@pytest.mark.parametrize("argv", CAP_TRIPS, ids=lambda argv: argv[0])
def test_cap_trip_is_one_error_line(capsys, argv):
    from artin import coxeter

    # A CLI process starts with empty caches; warm engines would spend no
    # new work and so never reach the cap.
    coxeter._engine.cache_clear()
    code, out, err = run([argv[0], "--preset", "B3", "--cap", "1", *argv[1:]], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.endswith(" exceeded cap 1\n")
    assert err.count("\n") == 1 and "Traceback" not in err


UNCAPPED = ["classify", "taxonomy", "sf", "form", "signature", "rep-check", "deligne-fd",
            "quotient-cells", "abelianization"]


def test_cap_is_offered_by_the_subcommands_that_apply_it():
    parser = cli.build_parser()
    capped = {name for name in SUBCOMMANDS
              if "--cap" in _subparser(parser, name)._option_string_actions}
    assert capped == set(SUBCOMMANDS) - set(UNCAPPED)
    assert {argv[0] for argv in CAP_TRIPS} == capped and len(capped) == 25


@pytest.mark.parametrize("name", UNCAPPED)
def test_uncapped_subcommands_take_no_cap(capsys, monkeypatch, name):
    argv = [name, "--preset", "B3"]
    code, out, err = run([*argv, "--cap", "3"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(": error: unrecognized arguments: --cap 3\n")
    code, out, _ = run([name, "--help"], capsys)
    assert code == 0 and "--cap" not in out and "ARTIN_CAP" not in out
    expected = run(argv, capsys)
    assert expected[0] == 0
    monkeypatch.setenv("ARTIN_CAP", "0")
    assert run(argv, capsys) == expected


# Each input is checked before any capped work, so its error is the same at
# --cap 1, where the work before the check would trip the cap, and at the
# default.
@pytest.mark.parametrize("argv, code, err", [
    (["grp-nf", "--preset", "I2(6)", "--word", "s u^-1 t s"], 1,
     "error: unknown generator 'u'\n"),
    (["grp-equal", "--preset", "B3", "--left", "s t s t s t", "--right", "s zz"], 1,
     "error: unknown generator 'zz'\n"),
    (["grp-equal", "--preset", "B3", "--left", "s t s t s t", "--right", "s^2"], 1,
     "error: bad group-word token 's^2' (use s or s^-1)\n"),
    (["tmin", "--preset", "B3", "--word", "s t u", "--t", "zz"], 1,
     "error: unknown generators ['zz']\n"),
    (["shelling-check", "--preset", "B3", "--index", "x"], 2,
     ": error: argument --index: invalid int value: 'x'\n"),
    (["is-shelling", "--preset", "B3", "--order", "0,x"], 2,
     ": error: argument --order: invalid int value: 'x'\n"),
    # a repeated entry and a second index 0 need no chambers to be seen
    (["is-shelling", "--preset", "B3", "--order", "0,0"], 1,
     "error: order must be a permutation of the chamber indices\n"),
    (["shelling-check", "--preset", "B3", "--index", "1,1"], 1,
     "error: exactly one chamber must have index 0, found 0\n"),
], ids=["grp-nf", "grp-equal-letter", "grp-equal-token", "tmin", "shelling-check",
        "is-shelling", "is-shelling-repeat", "shelling-check-no-zero"])
def test_input_errors_do_not_depend_on_the_cap(capsys, argv, code, err):
    from artin import coxeter

    runs = []
    for cap in (["--cap", "1"], []):
        coxeter._engine.cache_clear()
        runs.append(run([*argv, *cap], capsys))
    assert runs[0] == runs[1]
    assert runs[0][:2] == (code, "") and runs[0][2].endswith(err)


# argparse reads a separate "-1,0" or "-1e-3" as an option; the CLI reads it
# as the value of the flag before it, abbreviated or not, so it reaches the
# value check as "--order=-1,0" does.
@pytest.mark.parametrize("argv, err", [
    (["is-shelling", "--preset", "B3", "--order", "-1,0"],
     "error: order must be a permutation of the chamber indices\n"),
    (["shelling-check", "--preset", "B3", "--index", "-1,0"],
     "error: index values must be naturals\n"),
    (["signature", "--preset", "A2", "--tol", "-1e-3"],
     "error: tolerance must be positive, got -0.001\n"),
    (["is-shelling", "--preset", "B3", "--ord", "-1,0"],
     "error: order must be a permutation of the chamber indices\n"),
], ids=["order", "index", "tol", "ord"])
def test_negative_lists_read_the_same_in_both_spellings(capsys, argv, err):
    *head, flag, value = argv
    joined = run([*head, f"{flag}={value}"], capsys)
    assert run(argv, capsys) == joined == (1, "", err)


@pytest.mark.parametrize("argv, err", [
    # argparse already reads "-5" as a value
    (["enumerate", "--preset", "A2", "--cap", "-5"],
     "artin enumerate: error: argument --cap: cap must be positive, got -5\n"),
    # "--w" names the flag --words, which takes no value
    (["enumerate", "--preset", "A2", "--w", "-1"],
     "artin enumerate: error: unrecognized arguments: -1\n"),
    (["signature", "--preset", "A2", "--", "-1e-3"],
     "artin signature: error: unrecognized arguments: -- -1e-3\n"),
], ids=["cap", "no-value", "end-of-flags"])
def test_negative_values_join_only_flags_that_take_one(capsys, argv, err):
    code, out, stderr = run(argv, capsys)
    assert (code, out) == (2, "") and stderr.endswith(err)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_unrecognized_flags_get_the_subcommand_usage(capsys, name):
    # every required flag is given, so the extra flag is the only usage error
    sp = _subparser(cli.build_parser(), name)
    required = [x for a in sp._actions if a.required
                for x in (a.option_strings[0], a.choices[0] if a.choices else "s")]
    code, out, err = run([name, "--preset", "B3", *required, "--bogus"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: artin {name} [-h]")
    assert err.endswith(f"\nartin {name}: error: unrecognized arguments: --bogus\n")


def test_delta_rejects_unknown_generators(capsys):
    code, out, err = run(["delta", "--preset", "A3", "--t", "s,zz"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: unknown generators ['zz']\n"
    code, out, _ = run(["delta", "--preset", "A3", "--t", "s,t", "--format", "text"], capsys)
    assert (code, out) == (0, "sts\n")


def test_delta_takes_an_empty_t_as_the_empty_subset(capsys):
    for t in ("", " ", ","):
        code, out, _ = run(["delta", "--preset", "A2", "--t", t, "--format", "text"], capsys)
        assert (code, out) == (0, "e\n"), t
    code, out, _ = run(["delta", "--preset", "A2", "--format", "text"], capsys)
    assert (code, out) == (0, "sts\n")


def test_lcm_past_an_explicit_length_bound_is_null(capsys):
    argv = ["lcm", "--preset", "A2", "--left", "s", "--right", "t"]
    code, out, err = run([*argv, "--length-bound", "2"], capsys)
    assert (code, json.loads(out), err) == (0, {"word": None}, "")
    code, out, _ = run([*argv, "--length-bound", "3", "--format", "text"], capsys)
    assert (code, out) == (0, "sts\n")


@pytest.mark.parametrize("kind", ["davis", "salvetti"])
def test_homology_counts_maximal_chains_before_listing_them(kind, capsys, monkeypatch):
    # E8 at radius 1 has 362,880 Davis and 2,419,200 Salvetti maximal chains
    from artin import complexes

    def listing(p):
        raise AssertionError("the maximal chains were listed")

    monkeypatch.setattr(complexes.Poset, "maximal_chains", listing)
    code, out, err = run(["homology", "--preset", "E8", "--ball", "1", "--complex", kind], capsys)
    assert (code, out, err) == (1, "", "error: homology face count exceeded cap 200000\n")


def test_deligne_homology_counts_maximal_chains_before_listing_them(capsys, monkeypatch):
    # A9's Deligne poset is the Boolean lattice on 9 generators: 9! = 362,880 chains
    from artin import complexes

    def listing(p):
        raise AssertionError("the maximal chains were listed")

    monkeypatch.setattr(complexes.Poset, "maximal_chains", listing)
    code, out, err = run(["homology", "--preset", "A9", "--complex", "deligne-fd"], capsys)
    assert (code, out, err) == (1, "", "error: homology face count exceeded cap 200000\n")


def test_deligne_homology_of_a8_answers_as_a_cone(capsys):
    # 8! = 40,320 maximal chains, under the face guard, list 2,183,339 faces,
    # past it; the domain is a cone on A_{}, so homology needs its facets only
    code, out, err = run(["homology", "--preset", "A8", "--complex", "deligne-fd"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "complex": "deligne-fd",
        "betti": [1] + [0] * 8,
        "torsion": [[]] * 9,
        "pretty": "H_0 = Z, " + ", ".join(f"H_{k} = 0" for k in range(1, 9)),
        "euler": 1,
    }


def test_index_override_applies_to_a_diagram_source(capsys):
    code, out, err = run(
        ["shelling-check", "--preset", "A2", "--index", "0,0,0,0,0,0"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "error: exactly one chamber must have index 0, found 6\n"
    # the chamber system's own index function, passed explicitly, still passes
    from artin import shelling

    _, idx = shelling.coxeter_chamber_system(artin.preset("A2"))
    _, default, _ = run(["shelling-check", "--preset", "A2"], capsys)
    code, out, _ = run(
        ["shelling-check", "--preset", "A2", "--index", ",".join(map(str, idx))], capsys
    )
    assert code == 0 and out == default


@pytest.mark.parametrize("argv", [
    ["signature", "--tol", "nan"], ["signature", "--tol", "inf"], ["signature", "--tol", "-1"],
    ["rep-check", "--tol", "nan"], ["rep-check", "--tol", "-1"], ["rep-check", "--tol", "0"],
])
@pytest.mark.parametrize("preset", ["A1", "A3"])
def test_tolerance_must_be_finite_and_positive(capsys, argv, preset):
    code, out, err = run([*argv[:1], "--preset", preset, *argv[1:]], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: tolerance must be positive, got ")


@pytest.mark.parametrize("argv, flag", [
    (["salvetti", "--preset", "Atilde2", "--ball"], "--ball"),
    (["axioms", "--preset", "A2", "--length-cap"], "--length-cap"),
    (["lcm", "--preset", "A2", "--left", "s", "--right", "t", "--length-bound"], "--length-bound"),
])
def test_negative_lengths_are_usage_errors_that_name_their_flag(capsys, argv, flag):
    code, out, err = run([*argv, "-1"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {flag}: must be non-negative, got -1\n")
    code, _, err = run([*argv, "0"], capsys)
    assert (code, err) == (0, "")


def test_max_length_is_all_or_a_natural_number(capsys):
    argv = ["enumerate", "--preset", "A2", "--max-length"]
    for value, message in (("x", "invalid int value: 'x'"), ("-1", "must be non-negative, got -1")):
        code, out, err = run([*argv, value], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument --max-length: {message}\n")
    for value, total in (("all", 6), ("0", 1)):
        code, out, err = run([*argv, value], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["total"] == total


CHAMBER_KEYS = ["level", "chambers", "ok", "witness"]


# JSON key order is part of the output: pin it where objects are built from
# dataclass fields.  The --index makes claims A and B fail, so each has entries.
@pytest.mark.parametrize("argv, keys, nested", [
    (["taxonomy", "--preset", "A2"], ["finite_type", "fc_type", "two_dimensional", "large_type",
     "locally_reducible", "free_of_infinity", "almost_spherical", "components"], {}),
    (["signature", "--preset", "A2"],
     ["n_pos", "n_zero", "n_neg", "tol", "eigenvalues", "positive_definite"], {}),
    (["axioms", "--preset", "A2", "--length-cap", "1"], ["length_cap", "finite_type",
     "cancellative", "length_additive", "gcd_ok", "lcm_ok", "lcm_failures", "divisors_symmetric",
     "divisors_match_section", "divisor_count", "group_order", "passed"], {}),
    (["homology", "--preset", "A2", "--complex", "salvetti"],
     ["complex", "betti", "torsion", "pretty", "euler"], {}),
    (["abelianization", "--preset", "A2"], ["rank", "torsion", "pretty"], {}),
    (["quotient-cells", "--preset", "A2"], ["f_vector", "euler"], {}),
    (["shelling-check", "--chambers", "CHAMBERS", "--index", "0,2,1,1"],
     ["n", "claim_a", "claim_b", "levels", "passed", "conclusion"],
     {"claim_a": CHAMBER_KEYS, "claim_b": CHAMBER_KEYS,
      "levels": ["level", "chambers", "claim_a_passed", "pairs", "claim_b_passed"]}),
    (["is-shelling", "--chambers", "CHAMBERS", "--order", "0,2,1,3"],
     ["ok", "violation_position", "witness"], {}),
], ids=lambda v: v[0] if isinstance(v, list) and v[0] in SUBCOMMANDS else None)
def test_json_key_order(capsys, tmp_path, argv, keys, nested):
    path = tmp_path / "chambers.json"
    path.write_text(json.dumps({"n": 1, "chambers": [["a", "b"], ["b", "c"], ["c", "d"],
                                                     ["a", "d"]]}))
    code, out, err = run([str(path) if a == "CHAMBERS" else a for a in argv], capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert list(obj) == keys
    for key, inner in nested.items():
        assert obj[key] and list(obj[key][0]) == inner


TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [
    {"a": "a", "b": "b", "m": "inf"}, {"a": "a", "b": "c", "m": 3}, {"a": "b", "b": "c", "m": 6}]}
POSET_GUARD = "error: poset size exceeded cap 3000\n"


# README's quoted --cap thresholds: on cold engines, each command succeeds, or
# stops at the poset guard rather than the root cap, at its quoted cap, so a
# threshold may fall but not rise.  The triangle's Davis ball at 43 is
# test_complexes.py::test_davis_cells_spend_no_roots_on_descents.
@pytest.mark.parametrize("argv, cap, err", [
    (["salvetti", "--file", "TRIANGLE", "--ball", "2"], 237, ""),
    (["shelling-check", "--preset", "Atilde2", "--ball", "1"], 6, ""),
    (["davis", "--preset", "E6"], 234, POSET_GUARD),
    (["davis", "--preset", "H4"], 946, POSET_GUARD),
    (["davis", "--preset", "Atilde2", "--ball", "60"], 795, POSET_GUARD),
    (["enumerate", "--preset", "E6"], 252, ""),
    (["enumerate", "--preset", "H4"], 1004, ""),
    (["enumerate", "--preset", "Atilde2", "--max-length", "60"], 1065, ""),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "guard" if v == POSET_GUARD else None)
def test_readme_cap_thresholds_hold(capsys, tmp_path, argv, cap, err):
    from artin import coxeter

    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    argv = [str(path) if a == "TRIANGLE" else a for a in argv]
    coxeter._engine.cache_clear()
    code, _, got = run([*argv, "--cap", str(cap)], capsys)
    assert (code, got) == (1 if err else 0, err)
