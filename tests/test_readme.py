"""The README's library example runs against the current public names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

CIRCUIT = """\
rails 3
sep q0 delay=0ps
sep q1 delay=0ps
sep q2 delay=0ps empty
dualrail t q1 q2
fredkin q0 q1 q2
segment q1 2um
segment q2 2um
set q0
set q1
set q2
"""


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library usage\n+```python\n(.*?)^```", text,
                      re.DOTALL | re.MULTILINE)
    assert match, "README has no python block under '## Library usage'"
    return match.group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "circuit.fq").write_text(CIRCUIT)
    monkeypatch.chdir(tmp_path)
    code = library_example()
    assert "outcome_probabilities" in code
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert "{5: 10000} {'1': 10000}" in capsys.readouterr().out
