"""Make the benchmark's modules importable by their plain names, as
``run.py`` sees them when run as a script."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
