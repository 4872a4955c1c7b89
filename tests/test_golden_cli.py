"""Every CLI case of ``make_golden`` hashes as recorded in ``golden_cli.json``:
the same exit code, stdout and stderr, byte for byte."""

import json

from make_golden import CASES, GOLDEN, digest, input_directory, run_case


def test_cli_output_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == list(CASES), "the case list changed; regenerate golden_cli.json"
    with input_directory():
        for case, argv in CASES.items():
            code, out, err = run_case(argv)
            assert digest((code, out, err)) == golden[case], (
                f"first differing case: {case}\n"
                f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
            )
