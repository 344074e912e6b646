"""Start the benchmark's probe in every interpreter the benchmark starts.

Python imports ``sitecustomize`` at start-up from the first directory
of ``PYTHONPATH`` that has one; the benchmark puts this directory
first, and pool workers inherit it. Outside the benchmark (no
``PERFSUITE_PROBE_DIR``) this does nothing.
"""

import os

if os.environ.get("PERFSUITE_PROBE_DIR"):
    import perfsuite_probe

    perfsuite_probe.install(os.environ["PERFSUITE_PROBE_DIR"],
                            traced=os.environ.get("PERFSUITE_TRACE") == "1")
