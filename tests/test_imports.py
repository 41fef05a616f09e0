"""The battery's entry points import no graph library.

``networkx`` used to be a runtime dependency for one structural helper
that only a test called; importing it cost every battery process and pool
worker about 0.15 s and 14 MB.  A fresh interpreter imports the entry
points and must not have pulled it in.
"""

import json
import os
import subprocess
import sys

import repro

_SCRIPT = """
import json, sys
import repro.cli, repro.eval.runner, repro.eval.accuracy, repro.report.tables
print(json.dumps(sorted(m for m in sys.modules
                        if m == "networkx" or m.startswith("networkx."))))
"""


def test_entry_points_do_not_import_networkx():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
