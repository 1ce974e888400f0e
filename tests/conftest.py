import sys
from pathlib import Path

# ecdkit pins numpy's BLAS to one thread only if it is imported before numpy;
# importing it here, before any test module imports numpy, runs the tests
# under the thread count the command line uses
import ecdkit  # noqa: F401

sys.path.insert(0, str(Path(__file__).parent))
