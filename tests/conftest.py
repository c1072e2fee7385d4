import os
import tempfile
from pathlib import Path

# Even without a database, Hypothesis's pytest plugin caches constants found in
# the source on disk when it collects property tests; keep that out of the tree.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      str(Path(tempfile.gettempdir()) / "hilbench-hypothesis"))
