"""The README's command examples, pinned byte for byte.

Each case runs one README command in-process through `cli.main`, in the
human and the json-lines format, in a directory holding the small files
below.  `readme_outputs.json` holds the exit code, stdout and stderr each
case gave when recorded; re-record it after a deliberate output change
with `PYTHONPATH=src python tests/test_readme_examples.py`.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from radiuskit.cli import main

EXPECTED_PATH = Path(__file__).with_name("readme_outputs.json")

FILES = {
    "k4.edges": "v1 v2\nv1 v3\nv1 v4\nv2 v3\nv2 v4\nv3 v4\n",
    "k33.edges": "".join(f"x{i} y{j}\n" for i in range(1, 4)
                         for j in range(1, 4)),
    "p3.edges": "v1 v2\nv2 v3\n",
    "seq.txt": "v1 v2 v3 v4 v1\n",
    "cov.txt": "v1 v2 v3\nv1 v2 v4\nv1 v3 v4\n",
    "path.txt": "x1 y1 x2 y2 x3 y3\n",
    "cover.txt": "v1 v2\nv2 v3\n",
}

CASES = {
    "ak-cycle": "ak --k 4 --cycle",
    "ak-ternary": "ak --k 3 --alphabet 3",
    "zk": "zk --k 5",
    "wk": "wk --k 2 --s 5",
    "lowbad": "lowbad --k 2 --s 9",
    "bounds": "bounds --k 2 --graph k33.edges",
    "verify-radius": "verify radius --k 2 --graph k4.edges --seq seq.txt",
    "verify-radius-cyclic":
        "verify radius --k 1 --graph k4.edges --seq seq.txt --cyclic",
    "verify-cover": "verify cover --k 2 --graph k4.edges --seq cov.txt",
    "construct-bipartite":
        "construct bipartite --k 2 --m 8 --n 8 --epsilon 0.5 --seed 7",
    "construct-cover-bipartite": "construct cover-bipartite --k 2 --m 4 --n 5",
    "construct-euler1": "construct euler1 --graph k4.edges",
    "exact-fk": "exact fk --k 2 --graph k4.edges --time-limit 30",
    "exact-fk-cyclic": "exact fk --k 2 --graph k4.edges --cyclic",
    "exact-ck": "exact ck --k 2 --graph k4.edges",
    "exact-maxcut": "exact maxcut --graph k33.edges",
    "maxcut-circulant": "maxcut circulant --n 8 --k 2 --brute-check",
    "reduce-ham-radius":
        "reduce ham-radius --k 2 --graph k33.edges --witness path.txt",
    "reduce-cover1-coverk":
        "reduce cover1-coverk --k 2 --graph p3.edges --witness cover.txt",
    "table2": "table2",
    "conjecture": "conjecture --max-k 8",
}

FORMATS = ("human", "json-lines")


def write_files(directory):
    for name, text in FILES.items():
        Path(directory, name).write_text(text)


def run_in(directory, argv):
    """(exit code, stdout, stderr) of main(argv) run inside directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return [code, out.getvalue(), err.getvalue()]


def case_argv(case, fmt):
    return CASES[case].split() + ["--format", fmt]


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED_PATH.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("readme")
    write_files(directory)
    return directory


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_readme_example_byte_stable(case, fmt, expected, workdir):
    assert run_in(workdir, case_argv(case, fmt)) == expected[case][fmt]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        record = {case: {fmt: run_in(directory, case_argv(case, fmt))
                         for fmt in FORMATS} for case in sorted(CASES)}
    EXPECTED_PATH.write_text(json.dumps(record, indent=1, sort_keys=True)
                             + "\n")
