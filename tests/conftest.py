import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, keep no example
# database, set no per-example deadline (a first example builds its
# field) and draw few enough examples to keep the suite fast.
settings.register_profile("qdf", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("qdf")
