"""The demos run to completion against the library as it stands."""

import runpy
from pathlib import Path

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


def test_every_demo_runs(tmp_path, monkeypatch, capsys):
    demos = sorted(DEMO_DIR.glob("*.py"))
    assert len(demos) == 5
    monkeypatch.chdir(tmp_path)
    for demo in demos:
        runpy.run_path(str(demo), run_name="__main__")
        assert capsys.readouterr().out, f"{demo.name} printed nothing"
