import tempfile
from pathlib import Path

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # hypothesis is a test extra; its property tests need it
    pass
else:
    # While collecting, the hypothesis pytest plugin caches constants it reads
    # from the source tree, database or not; keep that cache out of the checkout.
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "storyvae-hypothesis")
