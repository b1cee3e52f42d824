"""Rewrite the golden outputs in this directory from the current code.

    python3 tests/golden/rewrite.py

``NAME.json`` holds the output of ``spheresys ARGV`` for each NAME,
ARGV in ``CASES``; tests/test_cli.py runs each command and compares its
output with the file byte for byte.  ``verify-paper-all.json`` holds
``spheresys --json verify-paper all`` with each row's ``seconds``
dropped: Tier-1 compares the detail of each row it runs with it, and CI
reruns this script and fails on any difference under tests/golden/,
which covers the slow rows.  Every command must exit 0.  A change that
alters these answers on purpose reruns this script and says why in
CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from spheresys import cli, fixtures  # noqa: E402

INPUTS = HERE / "inputs"
TEN_TREE = "0-2,2-1,2-3,3-4,5-2,2-6,7-6,8-5,5-9"

CASES = {
    **{f"{command}-{name}": ["--json", command, f"fixture:{name}"]
       for command in ("validate", "density", "develop", "systole")
       for name in fixtures.GRAPHS},
    **{f"systole-{name}": ["--json", "systole", f"fixture:{name}",
                           "--trace-bound", "14"] for name in ("a7", "b7")},
    # the certified ten-cusp sweeps: witness words and prune counters
    **{f"systole-{name}": ["--json", "systole", f"fixture:{name}",
                           "--trace-bound", "18"]
       for name in ("gamma10", "alpha10")},
    # a two-generator file, swept without a "diameter", with one, with a
    # decimal one (0.3) that no binary float holds, and with the string
    # "3/10", read as an entry is, whose output equals the decimal one's
    **{f"systole-{stem}": ["--json", "systole", str(INPUTS / f"{stem}.json")]
       for stem in ("two-generators", "two-generators-diameter",
                    "two-generators-decimal-diameter",
                    "two-generators-string-diameter")},
    "develop-ten-tree": ["--json", "develop", "fixture:ten",
                         "--tree", TEN_TREE, "--seed-edge", "3-4"],
}


def run(argv) -> str:
    """What ``spheresys ARGV`` prints; SystemExit unless it exits 0."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"spheresys {' '.join(argv)}: exit code {code}")
    return text.getvalue()


def verify_paper_rows() -> str:
    rows = json.loads(run(["--json", "verify-paper", "all"]))
    for row in rows:
        del row["seconds"]
    return json.dumps(rows, indent=2) + "\n"


def main():
    for name, argv in CASES.items():
        (HERE / f"{name}.json").write_text(run(argv))
    (HERE / "verify-paper-all.json").write_text(verify_paper_rows())


if __name__ == "__main__":
    main()
