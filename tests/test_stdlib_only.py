"""The library has no runtime dependency: importing the CLI in a fresh
interpreter loads only bnloci and standard-library modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bnloci

PROBE = """
import json, sys
before = set(sys.modules)
import bnloci.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - {"bnloci"} - set(sys.stdlib_module_names))))
"""


def test_cli_imports_only_the_standard_library():
    src = str(Path(bnloci.__file__).resolve().parents[1])
    # -S skips site-packages, so nothing installed there can be picked up.
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == []
