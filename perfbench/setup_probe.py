"""One cold set-up, timed by the parent from process start to the ready line.

Usage: python3 setup_probe.py SRC_DIR DATA_DIR

Imports the package from SRC_DIR, loads the IDX files in DATA_DIR through
``ffa.data.load_mnist`` and builds the label codebook, then prints
``ready`` and exits.
"""

import sys

sys.path.insert(0, sys.argv[1])

from ffa.data import LabelCodebook, load_mnist  # noqa: E402

train, test = load_mnist(sys.argv[2])
codebook = LabelCodebook()
print("ready", len(train), len(test), flush=True)
