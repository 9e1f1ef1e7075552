"""The README's library example runs as printed, and the automaton members
it names exist."""

import re
from pathlib import Path

from ecomac_backoff import Automaton

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library)", "exec"), namespace)
    # the example presents a quick call: keep its model small
    assert namespace["d"].n_states < 200_000


def test_named_automaton_members_exist():
    names = re.findall(r"`Automaton\.(\w+)", README.read_text())
    assert names
    assert [n for n in names if not hasattr(Automaton, n)] == []
