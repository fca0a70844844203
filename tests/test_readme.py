"""The README's library quick start runs as written, and its namespace list
names exactly ``ebct.__all__``."""

import re
from pathlib import Path

import ebct

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under 'Library quick start'"
    return match.group(1)


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(quick_start(), str(README), "exec"), {})
    max_corr, residual = (float(line) for line in capsys.readouterr().out.split())
    assert max_corr < 1e-6
    assert residual <= 1e-8
    lines = (tmp_path / "drf.csv").read_text().splitlines()
    assert lines[0] == "t,drf,derivative,se,significant"
    assert all(float(line.split(",")[3]) > 0 for line in lines[1:])


def test_namespace_bullets_name_the_public_api():
    text = README.read_text(encoding="utf-8")
    bullets = text.split("The `ebct` namespace is the user API:", 1)[1].split("\n\n", 2)[1]
    assert bullets.startswith("- ")
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(ebct.__all__)
