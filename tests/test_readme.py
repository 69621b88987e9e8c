"""The README's quick library example runs and prints what its comments say."""
import contextlib
import io
import pathlib

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_example_prints_its_commented_outputs():
    code = quick_example()
    expected = [line.split("#", 1)[1].strip() if "#" in line else None
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    assert [want for want in expected if want is not None] == ["[1, -1.5, 0.5]", "True", "nonexistent"]
    for got, want in zip(printed, expected):
        if want is None:
            continue
        if want.startswith("["):
            assert np.array_equal(np.array(got.strip("[]").split(), dtype=float),
                                  np.array(want.strip("[]").split(","), dtype=float))
        else:
            assert got == want
