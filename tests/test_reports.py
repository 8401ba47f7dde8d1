"""Report bytes of six reference CLI commands, pinned in ``tests/data/reports``.

Each case writes its JSON and CSV reports through ``cli.main`` and compares
them with ``<case>.json`` and ``<case>.csv`` byte for byte.  The sources are
files, ``single:`` and ``const-`` tables, which do not depend on numpy's
random stream, apart from README's ``random --seed 42`` command.  After an
intended report change, rewrite the files with
``PYTHONPATH=src python tests/test_reports.py``.
"""

from pathlib import Path

import pytest

from spinparity.cli import main

DATA = Path(__file__).parent / "data" / "reports"

CASES = {
    # the three README commands
    "readme-random-n6": ["--n", "6", "--function", "random", "--seed", "42", "--verify"],
    "readme-single-n3": ["--n", "3", "--function", "single:5", "--verify"],
    "readme-file-n5": ["--function", f"file:{DATA / 'table-n5.txt'}"],
    "snr-n8": ["--n", "8", "--function", "single:5", "--snr", "--verify"],
    "const-minus-n5": ["--n", "5", "--function", "const-minus", "--verify"],
    "single-n12": ["--n", "12", "--function", "single:2741", "--verify"],
}


def write_report(argv, fmt: str, path: Path) -> bytes:
    assert main(argv + ["--format", fmt, "--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_pinned(case, fmt, tmp_path):
    got = write_report(CASES[case], fmt, tmp_path / f"report.{fmt}")
    assert got == (DATA / f"{case}.{fmt}").read_bytes()


if __name__ == "__main__":
    for case, argv in CASES.items():
        for fmt in ("json", "csv"):
            write_report(argv, fmt, DATA / f"{case}.{fmt}")
