"""Every package entry point imports cleanly when it is imported first.

An import cycle between packages only fails for the entry point that
enters it from the wrong side, so a cycle can hide behind whichever module
a test session happens to import first.  Each module here is imported
alone, in a fresh interpreter, so a new cycle fails this test instead of
one user's entry point.
"""

import os
import subprocess
import sys

import pytest

import repro

#: the package roots and the modules that sit where cycles used to close
FIRST_IMPORTS = (
    "repro",
    "repro.core",
    "repro.api",
    "repro.api.responses",
    "repro.runtime",
    "repro.runtime.jobs",
    "repro.runtime.scheduler",
    "repro.tasks",
    "repro.cli",
    "repro.server.app",
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    result = subprocess.run([sys.executable, "-c", f"import {module}"],
                            env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
