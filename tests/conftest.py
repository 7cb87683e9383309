import os
import sys

from hypothesis import settings

# derandomized and without an example database, so the suite is
# reproducible and leaves no files behind
settings.register_profile(
    "homoclinic-lab", deadline=None, derandomize=True, database=None)
settings.load_profile("homoclinic-lab")

try:
    import homoclinic_lab  # noqa: F401
except ImportError:
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
