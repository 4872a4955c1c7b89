"""Every library case of ``make_golden`` hashes as recorded in ``golden.json``:
the same matrices and polynomials, bit for bit, also under another string
hash seed."""

import json
import os
import subprocess
import sys

from make_golden import GOLDEN_LIBRARY, LIBRARY_CASES, TESTS, library_digests


def _first_difference(digests: dict, golden: dict) -> str | None:
    assert list(golden) == list(LIBRARY_CASES), "the case list changed; regenerate golden.json"
    return next((case for case in golden if digests[case] != golden[case]), None)


def test_library_outputs_match_the_golden_digests():
    golden = json.loads(GOLDEN_LIBRARY.read_text(encoding="utf-8"))
    case = _first_difference(library_digests(), golden)
    assert case is None, f"first differing case: {case}"


def test_library_outputs_do_not_depend_on_the_string_hash_seed():
    src = str(TESTS.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="1")
    env["PYTHONPATH"] = os.pathsep.join([src, str(TESTS), env.get("PYTHONPATH", "")])
    script = "import json, make_golden; print(json.dumps(make_golden.library_digests()))"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    golden = json.loads(GOLDEN_LIBRARY.read_text(encoding="utf-8"))
    case = _first_difference(json.loads(out), golden)
    assert case is None, f"first differing case under PYTHONHASHSEED=1: {case}"
