"""tools/cli_diff.py covers every subcommand, finds no difference between a
checkout and itself, and names the one argv an edit changes."""

import importlib.util
import pathlib
import shutil

from artin import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)


def test_corpus_covers_every_subcommand_format_and_help(tmp_path):
    corpus = cli_diff._corpus(str(tmp_path))
    names = list(cli._COMMANDS)
    assert sorted(cli_diff.SUBCOMMANDS) == sorted(names)
    for name in names:
        formats = {argv[argv.index("--format") + 1] for argv in corpus
                   if argv[:1] == [name] and "--format" in argv}
        assert {"json", "text"} <= formats, name
        assert ("dot" in formats) == (name in cli_diff.DOT), name
        assert [name, "--help"] in corpus
    assert ["--help"] in corpus and len(corpus) == len({tuple(argv) for argv in corpus})


def test_one_checkout_against_itself_and_an_edited_copy(tmp_path, monkeypatch, capsys):
    corpus = [["classify", "--preset", "A2"], ["classify", "--preset", "A2", "--format", "text"],
              ["classify", "--preset", "Atilde2", "--format", "text"], ["sf", "--preset", "B3"]]
    monkeypatch.setattr(cli_diff, "_corpus", lambda tmp: corpus)
    assert cli_diff.main(["--parent", str(ROOT), "--change", str(ROOT)]) == 0
    assert capsys.readouterr().out == "0 of 4 argv differ\n"

    edited = tmp_path / "edited"
    shutil.copytree(ROOT / "src", edited / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = edited / "src" / "artin" / "cli.py"
    text = path.read_text()
    assert text.count('"finite type: yes') == 1
    path.write_text(text.replace('"finite type: yes', '"finite type: YES'))
    assert cli_diff.main(["--parent", str(ROOT), "--change", str(edited)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["classify --preset A2 --format text",
                   "  stdout: 'finite type: yes\\ncomponents: A2\\n' -> "
                   "'finite type: YES\\ncomponents: A2\\n'",
                   "1 of 4 argv differ"]
