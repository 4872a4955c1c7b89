"""Golden CLI cases and their regenerator.

Each case runs ``run_command`` in-process, in a directory holding the input
files below, and is stored as the sha256 of its exit code, stdout and
stderr.  ``tests/test_golden_cli.py`` checks every case against
``tests/golden_cli.json``.  Regenerate that file only when an output is meant
to change:

    PYTHONPATH=src python tests/make_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from diffeokit.catalog import catalog_names
from diffeokit.cli import run_command

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden_cli.json"


def _readme_file() -> str:
    """The example file under "Presentation files" in README.md."""
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Presentation files", 1)[1]
    return re.search(r"```text\n(.*?)```", section, re.S).group(1)


FILES = {
    "readme.dk": _readme_file(),
    "wedge.dk": "space w\nwedge\nchart o : R^0\nchart x : R^1\nchart y : R^1\n"
    "arrow a : o -> x = []\narrow b : o -> y = []\n"
    "section t : tangent on w\non x : [s1]\non y : [1]\n"
    "section ell : cotangent on w\non x : [1 + s1]\non y : [2]\n"
    "functional = [1, 2]\n",
    "bad_char.dk": "space demo\nchart x : R^1\narrow f : x -> x = [s1 $ 2]\n",
    "bad_dim.dk": "space demo\nchart x : R^\n",
    "empty.dk": "\n",
}


def _cases() -> list[list[str]]:
    cases = []
    for name in catalog_names():
        ref = f"catalog:{name}"
        cases += [["tangent", ref, "--k", str(k)] for k in range(3)]
        cases += [["rho", ref, "--k", str(k)] for k in (1, 2)]
        cases.append(["filtered", ref, "--depth", "4"])
        cases += [["catalog", name], ["catalog", name, "--export"]]
    cases += [
        ["check-form", "readme.dk", "--form", "volume"],
        ["eval-form", "readme.dk", "--form", "volume"],
        ["sections", "readme.dk", "--data", "readme.dk"],
        ["sections", "wedge.dk", "--data", "wedge.dk"],
        # negative verdicts under --strict, each exit 1
        ["sections", "wedge.dk", "--data", "wedge.dk", "--strict"],
        ["rho", "catalog:z2_quotient", "--k", "2", "--strict"],
        ["filtered", "catalog:z2_quotient", "--strict"],
    ]
    cases = [argv + json_flag for argv in cases for json_flag in ([], ["--json"])]
    # input errors, each exit 2
    cases += [
        ["tangent", "missing.dk"],
        ["tangent", "catalog:torus"],
        ["catalog", "torus", "--json"],
        ["tangent", "bad_char.dk", "--json"],
        ["rho", "bad_dim.dk", "--k", "1"],
        ["tangent", "catalog:spaghetti", "--params", "m=lots"],
        ["catalog", "euclidean", "--params", "m=3"],
        ["check-form", "readme.dk", "--form", "nope"],
        ["eval-form", "catalog:euclidean", "--form", "volume"],
        ["sections", "catalog:wedge_lines", "--data", "empty.dk"],
        ["filtered", "catalog:z2_quotient", "--depth", "4", "--params", "m=1"],
    ]
    return cases


CASES = {" ".join(argv): argv for argv in _cases()}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def input_directory():
    """A temporary working directory that holds ``FILES``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def main() -> None:
    with input_directory():
        golden = {case: digest(run_case(argv)) for case, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
