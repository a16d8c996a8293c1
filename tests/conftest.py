"""Shared test set-up.

The black-box CLI tests start ``python -m archflow`` in child processes,
some of them with ``cwd`` set to a temporary directory. A relative ``PYTHONPATH``
such as ``src`` would then point nowhere, so the checkout's ``src`` is put
first on ``PYTHONPATH`` as an absolute path. Every child then imports the
same package as the in-process tests; existing entries are kept after it.
"""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
)
