"""The README's library example runs against the current public names."""

import math
import re
from pathlib import Path

from flyqsim import PhaseShifter

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


def test_readme_lists_the_syntheses_phases_outside_the_dot_range(tmp_path, monkeypatch):
    # the Hadamard's two -pi/2 trims on its 1-rail and the Fredkin's pi bias
    # on its first target; the Fredkin's pi/2 compensations lie in (0, pi)
    text = CIRCUIT.replace("fredkin q0 q1 q2\n", "hadamard q1 q2\nfredkin q0 q1 q2\n")
    (tmp_path / "circuit.fq").write_text(text)
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_example"}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["unrealizable"] == [
        PhaseShifter(2, -math.pi / 2), PhaseShifter(2, -math.pi / 2),
        PhaseShifter(1, math.pi)]
