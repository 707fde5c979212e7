import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# tests that run `python -m hicourant.cli` in a subprocess need the checkout's
# package there too, as pytest's `pythonpath = ["src"]` only reaches this process
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
