"""The repository's pytest configuration still reports property failures."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # The configuration turns every warning into an error. Hypothesis
    # imports extra modules only when a property fails, so a warning raised
    # there would end the run in INTERNALERROR and hide the example.
    (tmp_path / "test_failing_property.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(database=None, derandomize=True)
            @given(st.integers())
            def test_always_fails(x):
                assert x != x
            """
        )
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", str(tmp_path / "test_failing_property.py"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )  # fmt: skip
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
