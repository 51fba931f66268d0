"""The drift kernels and the oracles import nothing from ndspin."""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules_after_import(module):
    code = (f"import sys; sys.path.insert(0, {BENCH!r}); import {module}; "
            f"import json; print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=BENCH).stdout
    return json.loads(out)


def test_kernel_imports_nothing_from_ndspin():
    assert not [m for m in _modules_after_import("kernel") if m.startswith("ndspin")]


def test_oracles_import_nothing_from_ndspin():
    assert not [m for m in _modules_after_import("oracles") if m.startswith("ndspin")]
