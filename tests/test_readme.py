"""The README's "Library use" example runs as written, from the repository
root, so a renamed or removed entry point fails here."""

import re
from pathlib import Path

import fixtures

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_snippet_runs_from_the_repository_root(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n")[1]
    snippet = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    with fixtures.leaves_nothing_behind():
        exec(compile(snippet, "README.md", "exec"), {})
    classification, q = capsys.readouterr().out.splitlines()
    assert classification in ("small-world", "lattice-like", "random-like")
    assert 0.0 < float(q) < 1.0
