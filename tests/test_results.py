"""The committed results/ tables regenerate byte for byte."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reproduce_module():
    spec = importlib.util.spec_from_file_location(
        "reproduce_results", ROOT / "scripts" / "reproduce_results.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_results_regenerate_byte_identical(tmp_path):
    reproduce = _reproduce_module()
    assert reproduce.run_all(tmp_path) == 0
    expected = sorted(f"{name}.{fmt}" for name, _ in reproduce.RUNS for fmt in ("csv", "json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / name).read_bytes(), name
