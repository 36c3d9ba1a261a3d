"""The package runs on its runtime dependencies alone: numpy and PyYAML.

scipy is a test dependency only (tests/oracles.py); each test here runs
a fresh interpreter, some with scipy blocked before any import.
"""

import os
import subprocess
import sys

import kslogistic

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kslogistic.__file__)))
# an import of scipy or any scipy.* module raises ImportError
BLOCK = "import sys; sys.modules['scipy'] = None\n"


def _python(code: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd
    )


def _cli(args: list, cwd=None) -> subprocess.CompletedProcess:
    return _python(BLOCK + f"from kslogistic.cli import main\nsys.exit(main({args!r}))", cwd)


def test_import_loads_no_scipy_module():
    out = _python(
        "import sys, kslogistic.acceptance, kslogistic.cli\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_run_without_scipy(tmp_path):
    out = _cli(["run", "mass_decay_1d", "--out", str(tmp_path)])
    assert out.returncode == 0, out.stderr
    assert "overall: ok" in out.stdout
    assert (tmp_path / "mass_decay_1d" / "report.json").is_file()


def test_verify_all_without_scipy():
    out = _cli(["verify-all", "--only", "elliptic_exactness", "operator_bounds", "convergence_order"])
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count("[PASS]") == 3
