"""The README's `Library use` block runs, and every expression in it that
carries a comment evaluates to the value the comment states."""

import re
from pathlib import Path

import coxwalk

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_states_its_values():
    namespace = {}
    checked = 0
    for line in _library_use_block().splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if comment:
            expected = eval(comment, {**vars(coxwalk), **namespace})
            assert eval(code, namespace) == expected, line
            checked += 1
        elif code:
            exec(code, namespace)
    assert checked == 8
