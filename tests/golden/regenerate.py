"""Regenerate the fixed-seed golden snapshots under ``tests/golden/``.

Run only when a deliberate behavior change invalidates the goldens::

    PYTHONPATH=src:. python tests/golden/regenerate.py

The committed goldens were produced by the pre-rewrite (PR 2) kernel;
``tests/test_determinism.py`` holds the optimized kernel and columnar
span store to byte-identical output against them.  The
``*_exports.json`` files carry sha256 digests of the fig9 and net span
exports (JSONL and Chrome trace_event), taken while the per-span object
backend still existed and agreed with the columnar store.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from tests._golden import GOLDEN_DIR, snapshots  # noqa: E402


def main() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in snapshots().items():
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
