"""README's library example runs as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_prints_the_optimum(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "165"
    assert "('alert_radio', 1)" in printed[1] and "('store_local', 1)" in printed[1]
