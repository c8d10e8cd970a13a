import importlib.util
import shutil
from pathlib import Path

from wavesnap import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_base", ROOT / "scripts" / "compare_base.py")
compare_base = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_base)


def test_every_verb_is_compared():
    # a verb that starts no row is held to the base commit by its help text alone
    commands = [command.split() for kind, command in compare_base.TABLE if kind != "bench"]
    for group, (_, *rest) in cli.VERBS.items():
        for words in ([[group, verb] for verb in rest[0]] if isinstance(rest[0], dict) else [[group]]):
            assert any(command[: len(words)] == words for command in commands), words


def test_rows_that_differ_are_named(tmp_path):
    # the row runner on scratch copies of src/, with no git and no bench: identical copies differ nowhere,
    # and one patched member of `dio cfrac` and one patched verb help are named by their rows' ids alone
    trees = {}
    for name in ("base", "same", "patched"):
        trees[name] = tmp_path / name
        shutil.copytree(ROOT / "src", trees[name] / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = trees["patched"] / "src" / "wavesnap" / "cli.py"
    text = cli_py.read_text(encoding="utf-8")
    for old, new in (('"convergents": list', '"convergent": list'),
                     ('"continued fraction of an exact rational"', '"continued fraction of a rational"')):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    cli_py.write_text(text, encoding="utf-8")
    rows = [("out", "dio cfrac --value 415/93"), ("texts", "dio --help"), ("texts", "dio cfrac --help")]
    assert compare_base.compare(rows, trees["base"], trees["same"], tmp_path) == []
    assert compare_base.compare(rows, trees["base"], trees["patched"], tmp_path) == [
        "out dio cfrac --value 415/93", "texts dio --help"]
