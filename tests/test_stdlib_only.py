"""The library has no runtime dependency: importing the CLI in a fresh
interpreter loads only bnloci and standard-library modules, and none of the
modules that generate and compile code at import time."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bnloci

PROBE = """
import json, sys
before = set(sys.modules)
import bnloci.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"loaded": sorted(loaded), "present": sorted(sys.modules)}))
"""
# dataclasses pulls in inspect, which pulls in ast, dis and tokenize.
CODE_GENERATION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.fixture(scope="module")
def cli_import():
    src = str(Path(bnloci.__file__).resolve().parents[1])
    # -S skips site-packages, so nothing installed there can be picked up.
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def test_cli_imports_only_the_standard_library(cli_import):
    loaded = set(cli_import["loaded"])
    assert sorted(loaded - {"bnloci"} - set(sys.stdlib_module_names)) == []


def test_cli_import_loads_no_code_generation_module(cli_import):
    assert sorted(CODE_GENERATION & set(cli_import["present"])) == []
