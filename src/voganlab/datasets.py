"""
Curated orbit tables shipped as data files with provenance headers.

Dataset rows are immutable published values, never computed here; the check
entry point verifies the dataset's own consistency rule.
"""

from __future__ import annotations

import json

from .errors import InputError
from .report import format_table

DATASETS = ("so7-cfmmx16",)

_FILES = {"so7-cfmmx16": "so7_cfmmx16.json"}


def load_dataset(name: str) -> dict:
    if name not in _FILES:
        raise InputError(f"unknown dataset {name!r}; available: {', '.join(DATASETS)}")
    # imported here: importlib.resources costs more to import than the
    # rest of the package, and only the dataset command reads data files
    from importlib import resources

    text = resources.files("voganlab.data").joinpath(_FILES[name]).read_text()
    return json.loads(text)


def dataset_check(doc: dict) -> list[str]:
    """Apply the dataset's consistency rule; returns a list of violations."""
    problems = []
    for row in doc["rows"]:
        if row["open"] or row["closed"]:
            continue
        if row["arthur"] != (not row["smooth_closure"]):
            problems.append(
                f"{row['label']}: arthur={row['arthur']} but smooth_closure={row['smooth_closure']}"
            )
    return problems


def dataset_table(doc: dict) -> str:
    """Grouped table in the layout of the source: rows sharing a profile are
    printed together (open/closed first, then the Arthur-type group)."""
    groups: list[tuple[tuple, list[str]]] = []
    for row in doc["rows"]:
        profile = (row["open"] or row["closed"], row["smooth_closure"], row["arthur"])
        for p, labels in groups:
            if p == profile:
                labels.append(row["label"])
                break
        else:
            groups.append((profile, [row["label"]]))
    groups.sort(key=lambda g: (not g[0][0], not g[0][2]))
    header = ["Langlands parameter", "Open/Closed", "Closure smooth", "Arthur type"]
    body = [
        [", ".join(labels), _yn(p[0]), _yn(p[1]), _yn(p[2])]
        for p, labels in groups
    ]
    return format_table(header, body)


def _yn(b: bool) -> str:
    return "Yes" if b else "No"
