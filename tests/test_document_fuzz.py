"""Seeded fuzz of the input path: mutated fixture documents either load or
raise ValidationError, and ``concurv validate`` exits 0 or 1 on them, in
agreement with load_graph."""

import copy
import json
import math

import numpy as np

from concurv import ValidationError, load_graph
from concurv.cli import main
from concurv.fixtures import fixture_document, fixture_names

DOCUMENTS = 300
BAD_VALUES = [None, True, False, "2", "x", math.nan, 1e400, -1.0, 0, 2.5, 10**400, [], {}, [[1]]]
BAD_SIGMAS = [None, [], [[None]], [[[1, 0], [0, 0]], [[0, 0]]], [[[1, 0, 5]]], [[[1]]],
              [[["1", "0"]]], [[[math.nan, 0]]], [[[1e400, 0]]], "I", [[[2, 0]]]]
BAD_DIMENSIONS = [0, -1, 2.5, "2", True, None, 3, 2048, 10**30]


def _entry(doc, rng, key):
    """A random object of the list doc[key], or None if there is none."""
    items = doc.get(key)
    if not isinstance(items, list) or not items:
        return None
    entry = items[int(rng.integers(len(items)))]
    return entry if isinstance(entry, dict) else None


def drop_key(doc, rng):
    if rng.uniform() < 0.2:
        doc.pop(str(rng.choice(["dimension", "field", "vertices", "edges"])), None)
        return
    entry = _entry(doc, rng, str(rng.choice(["vertices", "edges"])))
    if entry:
        entry.pop(str(rng.choice(sorted(entry))))


def bad_value(doc, rng):
    key = str(rng.choice(["vertices", "edges"]))
    entry = _entry(doc, rng, key)
    if entry is not None:
        fields = ["id", "measure"] if key == "vertices" else ["u", "v", "weight", "sign"]
        entry[str(rng.choice(fields))] = BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]


def bad_sigma(doc, rng):
    entry = _entry(doc, rng, "edges")
    if entry is not None:
        entry["sigma"] = copy.deepcopy(BAD_SIGMAS[int(rng.integers(len(BAD_SIGMAS)))])


def duplicate(doc, rng):
    key = str(rng.choice(["vertices", "edges"]))
    entry = _entry(doc, rng, key)
    if entry is not None:
        entry = copy.deepcopy(entry)
        if key == "edges" and rng.uniform() < 0.5 and "u" in entry and "v" in entry:
            entry["u"], entry["v"] = entry["v"], entry["u"]
        doc[key].append(entry)


def unknown_endpoint(doc, rng):
    entry = _entry(doc, rng, "edges")
    if entry is not None:
        entry[str(rng.choice(["u", "v"]))] = "nowhere"


def bad_dimension(doc, rng):
    doc["dimension"] = BAD_DIMENSIONS[int(rng.integers(len(BAD_DIMENSIONS)))]


def bad_container(doc, rng):
    key = str(rng.choice(["vertices", "edges"]))
    if rng.uniform() < 0.5:
        doc[key] = BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]
    elif isinstance(doc.get(key), list):
        doc[key].append(BAD_VALUES[int(rng.integers(len(BAD_VALUES)))])


MUTATIONS = [drop_key, bad_value, bad_sigma, duplicate, unknown_endpoint, bad_dimension,
             bad_container]


def mutated_documents():
    """DOCUMENTS fixture documents with one to three seeded mutations each."""
    rng = np.random.default_rng(2024)
    names = fixture_names()
    for _ in range(DOCUMENTS):
        doc = fixture_document(names[int(rng.integers(len(names)))])
        for _ in range(1 + int(rng.integers(3))):
            MUTATIONS[int(rng.integers(len(MUTATIONS)))](doc, rng)
        yield doc


def test_mutated_documents_load_or_fail_validation(tmp_path, capsys):
    path = tmp_path / "doc.json"
    outcomes = {True: 0, False: 0}
    for doc in mutated_documents():
        text = json.dumps(doc)
        try:
            load_graph(text)
            ok = True
        except ValidationError:
            ok = False
        outcomes[ok] += 1
        path.write_text(text)
        assert main(["validate", str(path)]) == (0 if ok else 1), text
        err = capsys.readouterr().err
        assert ok or err.startswith("validation error:"), text
    assert min(outcomes.values()) >= 10, outcomes   # both outcomes are exercised
