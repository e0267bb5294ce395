"""Start-up cost: the package never imports scipy or click.

Each check runs in a fresh interpreter, because the test process itself has
imported scipy long before (the dense oracles use it).
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent

RUNS_SCRIPT = r"""
import importlib.util, json, os, sys
import ddcrb, ddcrb.cli
loaded = [("import", 0, "scipy" in sys.modules, "click" in sys.modules)]
spec = importlib.util.spec_from_file_location("reproduce_results", sys.argv[1])
reproduce = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reproduce)
for name, args in reproduce.RUNS:
    args = list(args)
    if "--trials" in args:
        args[args.index("--trials") + 1] = "3"
    code = ddcrb.cli.main([*args, "--format", "json", "--out", os.devnull])
    loaded.append((name, code, "scipy" in sys.modules, "click" in sys.modules))
print(json.dumps(loaded))
"""

ELIMINATE_SCRIPT = r"""
import json, sys
import numpy as np
import ddcrb as d
from ddcrb.fim import FimMatrix, schur_complement
before = "scipy" in sys.modules
# wide pulse centred near the period edge: adjacent copies overlap, so the
# nuisance block is a Gram matrix, not a multiple of the identity
pt = d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, np.array([0.8 + 0.5j, -0.3 + 1.1j, 1.2 - 0.2j]))
sc = d.Scenario(tau0=0.5, f0=0.7, looks_direct=2, looks_reflected=1, sigma_w2=0.5)
scaled = d.Scenario(tau0=0.5, f0=0.7, looks_direct=2, looks_reflected=1, sigma_w2=0.5, scale=1.3)
out = {}
for name, fim in (("known_structure", d.fim_known_structure(pt, sc)),
                  ("unknown_a", d.fim_unknown_a(pt, scaled, structure=True))):
    e = fim.entries
    oracle = e[:2, :2] - e[:2, 2:] @ np.linalg.solve(e[2:, 2:], e[2:, :2])
    out[name] = (fim.meta["blocks"], schur_complement(fim, 2).tolist(),
                 schur_complement(FimMatrix(e, fim.labels), 2).tolist(), oracle.tolist())
print(json.dumps([before, "scipy" in sys.modules, out]))
"""


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@functools.cache
def fresh_runs():
    """[(step, exit code, scipy loaded, click loaded)] of the import and each run."""
    loaded = run_fresh(RUNS_SCRIPT, str(ROOT / "scripts" / "reproduce_results.py"))
    assert [name for name, *_ in loaded] == [
        "import", "table1", "sweep_L", "sweep_np", "sweep_a", "overlap_m16", "montecarlo"]
    assert all(code == 0 for _, code, _, _ in loaded[1:])
    return loaded


def test_cli_runs_never_import_scipy():
    assert not any(scipy_loaded for _, _, scipy_loaded, _ in fresh_runs())


def test_cli_runs_never_import_click():
    assert not any(click_loaded for _, _, _, click_loaded in fresh_runs())


def test_no_solve_imports_scipy():
    # the Gram-matrix Schur complement and the dense solve, each against a
    # numpy-only elimination of the dense FIM
    before, after, out = run_fresh(ELIMINATE_SCRIPT)
    assert not before and not after
    for name, (blocks, structured, dense, oracle) in out.items():
        assert blocks == "general", name
        floor = 1e-12 * np.max(np.abs(oracle))
        np.testing.assert_allclose(structured, oracle, rtol=1e-10, atol=floor, err_msg=name)
        np.testing.assert_allclose(dense, oracle, rtol=1e-10, atol=floor, err_msg=name)
