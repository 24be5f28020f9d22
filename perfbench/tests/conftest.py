"""Import paths for the benchmark's own tests: the program under ``src/``
and the benchmark's modules beside this directory.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
