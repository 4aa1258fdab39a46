"""Every demo script must import against the current package, and the
quick ones must run."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# 04 takes about 30 s, and C8 already runs its study
RUN = [p for p in DEMOS if p.name[:2] in ("01", "02", "03")]


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports; main() is left uncalled
    return module


def test_demos_found():
    assert DEMOS and len(RUN) == 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("path", RUN, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    load(path).main()
    assert capsys.readouterr().out
