"""Shipped, versioned run fixtures (loaded from package data)."""

from __future__ import annotations

import json
from importlib import resources

PRESET_NAMES = ("stage1-default", "stage2-cliff-sweep", "stage3-intersection")


def load(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    text = resources.files(__name__).joinpath(f"{name}.json").read_text("utf-8")
    return json.loads(text)

