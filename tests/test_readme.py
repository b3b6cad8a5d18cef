"""The README's library sketch and input formats match what the code does."""

import ast
import json
import re
from pathlib import Path

import numpy as np

from coherify.cli import main

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


# a valid record per input format, holding every field its README line names
VALID_INPUTS = {
    "project": ("project", {"id": "p", "relation": "partition", "m": 3,
                            "questions": ["a", "b", "c"], "labels": [0, 1, 0],
                            "quote": [0.2, 0.3, 0.5]}),
    "certify": ("certify", {"clique_id": "c", "owners": [0, 1],
                            "coupling": [{"kind": "frechet-halfspace", "coords": [0, 1],
                                          "b": 1.5, "a": [1.0, 1.0]}],
                            "locals": [[0.3], [0.6]]}),
    "monitor": ("monitor", {"eps_sq": 0.0625, "m": 2, "K": 8}),
    "regret and gate": ("regret", {"clique_id": "n", "seed": 0, "naive": [0.4, 0.6],
                                   "repaired": [0.5, 0.5], "labels": [1, 0], "eps_star": 0.1}),
}


def input_formats() -> dict[str, dict[str, bool]]:
    """``input -> {field: optional}`` from the README's wire-format lines."""
    text = README.read_text()
    section = text[text.index("### Wire formats"):text.index("### Scenario config")]
    lines = re.findall(r"\(([^()]*?)input\):\s*`(\{[^`]*\})`", section)
    return {re.sub(r".*; ", "", name).strip(): dict(
                (field, mark == "?") for field, mark in re.findall(r'"(\w+)"(\??):', line))
            for name, line in lines}


def field_paths(record, path=()):
    """``(path, name)`` of every key in ``record``, nested objects and arrays of them too."""
    if isinstance(record, list):
        for i, item in enumerate(record):
            yield from field_paths(item, path + (i,))
    elif isinstance(record, dict):
        for key, value in record.items():
            yield path + (key,), key
            yield from field_paths(value, path + (key,))


def without(record, path):
    record = json.loads(json.dumps(record))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return record


def test_readme_input_formats_are_the_fields_the_readers_take(tmp_path, capsys):
    formats = input_formats()
    assert set(formats) == set(VALID_INPUTS)

    def run(command, record):
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps(record) + "\n")
        code = main([command, str(inp), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    for name, (command, record) in VALID_INPUTS.items():
        fields = formats[name]
        paths = list(field_paths(record))
        assert {key for _, key in paths} == set(fields), name
        assert run(command, record) == (0, "")
        for path, key in paths:
            code, err = run(command, without(record, path))
            if key == "a":  # optional in the reader, required by frechet-halfspace
                assert fields[key] and code == 2 and "needs an explicit normal" in err
            elif fields[key]:
                assert (code, err) == (0, ""), (name, key)
            else:
                assert (code, err) == (2, f"error: line 1: {key} is missing\n"), (name, key)
