"""The README's examples run, and print what their comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from oscigeo.cli import main

README = Path(__file__).parent.parent / "README.md"


def _fenced(text: str, heading: str, language: str) -> str:
    """The first ```language block after the heading."""
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _quick_tour_mismatches(text: str) -> list[str]:
    """Run the quick tour; each printed line must equal its print's comment."""
    block = _fenced(text, "## Library quick tour", "python")
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(.*?)\s*$", block, re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick tour", "exec"), {})
    printed = out.getvalue().splitlines()
    return [] if printed == expected else [f"quick tour printed {printed}, its comments say {expected}"]


def _classify_mismatches(text: str) -> list[str]:
    """Run each ``oscigeo classify`` example; its output must equal the ``# ->`` line under it."""
    block = _fenced(text, "## CLI", "sh")
    examples = re.findall(r"^oscigeo (classify .*)\n# -> (.*)$", block, re.M)
    assert len(examples) == 2, examples
    found = []
    for command, expected in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(shlex.split(command))
        if (code, out.getvalue()) != (0, expected + "\n"):
            found.append(f"{command!r} exited {code} with {out.getvalue()!r}, the README says {expected!r}")
    return found


def test_readme_examples_print_what_they_say():
    text = README.read_text()
    assert _quick_tour_mismatches(text) + _classify_mismatches(text) == []


def test_readme_example_checker_sees_an_edited_line():
    text = README.read_text()
    tour = "# null periodic 1/2*pi"
    line = '# -> {"causal": "null", "kind": "periodic", "minimal_T": "1/4", "witness_m": null}'
    assert text.count(tour) == text.count(line) == 1
    assert _quick_tour_mismatches(text.replace(tour, "# null periodic pi"))
    assert _classify_mismatches(text.replace(line, line.replace("1/4", "1/2")))
    with pytest.raises(AssertionError):
        _quick_tour_mismatches(text.replace("assert not fiber_preserving", "assert fiber_preserving"))
