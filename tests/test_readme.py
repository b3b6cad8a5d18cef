"""The README's library sketch runs as written and prints what its comments say."""

import ast
import json
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def commented_values(code: str) -> dict[str, str]:
    """``expression -> value`` for every ``cert.<field>  # <value>`` line."""
    return dict(re.findall(r"^(cert\.\w+)\s+# (array\(\[[^\]]*\]\)|\([^)]*\)|[-\d.]+)", code, re.M))


def test_library_sketch_runs_and_matches_its_comments():
    code = library_sketch()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    comments = commented_values(code)
    assert set(comments) == {"cert.epsilon_star", "cert.exposure_bound", "cert.repaired",
                             "cert.binding"}
    cert = namespace["cert"]
    assert comments["cert.epsilon_star"] == "0.750"
    assert comments["cert.exposure_bound"] == "1.500"
    for expression, value in comments.items():
        got = getattr(cert, expression.split(".", 1)[1])
        if value.startswith("array("):
            want = json.loads(value[len("array("):-1])
            assert np.allclose(got, want, rtol=0.0, atol=5e-4), expression
        elif value.startswith("("):
            assert got == ast.literal_eval(value), expression
        else:  # a number printed to its shown decimals
            assert abs(got - float(value)) <= 0.5 * 10.0 ** -len(value.split(".")[1]), expression
    assert len(namespace["certs"]) == 2
    assert namespace["certs"][0].to_json() == cert.to_json()
