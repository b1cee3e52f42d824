"""Rewrite the golden outputs in this directory from the current code.

    python3 tests/golden/rewrite.py

``systole-NAME.json`` holds ``spheresys --json systole fixture:NAME``
for each named triangulation fixture; tests/test_cli.py compares the
command's output with it byte for byte.  A change that alters these
answers on purpose reruns this script and says why in CHANGES.md.
"""

import contextlib
import io
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from spheresys import cli  # noqa: E402


def main():
    for name in cli.NAMED_GRAPHS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.main(["--json", "systole", f"fixture:{name}"])
        (HERE / f"systole-{name}.json").write_text(text.getvalue())


if __name__ == "__main__":
    main()
