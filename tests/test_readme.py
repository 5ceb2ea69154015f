"""README's `$ a2w ...` examples, run in-process on its w2.json, must print
what README shows: every line, except the wall time, and with `...`
standing for any run of lines."""

import re
import shlex
from pathlib import Path

import pytest

from a2w.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
W2_SPEC = re.search(r"A 2x2 power matrix:\s*```json\n(.*?)```", README, re.S).group(1)
EXAMPLES = re.findall(r"^```\n(\$ a2w .*?)^```", README, re.S | re.M)


def _shown(lines):
    return [line for line in lines if not line.startswith("wall time: ")]


def _matches(expected, actual) -> bool:
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(_matches(expected[1:], actual[k:]) for k in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and _matches(expected[1:], actual[1:])


def test_readme_shows_one_example_per_command():
    assert [shlex.split(block)[2] for block in EXAMPLES] == [
        "check", "constant", "divergence", "verify"]


@pytest.mark.parametrize("block", EXAMPLES, ids=lambda b: shlex.split(b)[2])
def test_readme_example_output_is_current(block, tmp_path, monkeypatch, capsys):
    command, *expected = block.splitlines()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w2.json").write_text(W2_SPEC, encoding="utf-8")
    code = main(shlex.split(command)[2:])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    actual = _shown(captured.out.splitlines())
    assert _matches(_shown(expected), actual), "\n".join(actual)
