import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_programmatic_use_runs(capsys):
    # the README example must stay a working program
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Minimal programmatic use:\s*```python\n(.*?)```", text, re.S)
    assert match, "README lost its 'Minimal programmatic use' code block"
    exec(compile(match.group(1), str(README), "exec"), {})
    q_c, best_fitness = capsys.readouterr().out.split()
    assert int(q_c) >= 1
    assert 0.0 <= float(best_fitness) <= 1.0
