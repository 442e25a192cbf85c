"""Bundled circuit fixtures.

``toffoli_unopt.icm`` is an ICM netlist with one wire per qubit
lifetime; ``toffoli.icm`` is its wire-recycled form (nine wires, seven
A and fourteen Y initialisations).  ``toffoli_outcomes.txt`` scripts
five rounds of box outcomes that, together with the ``temporal:15``
condition, reproduce the reference trace shape: 21 steps, five
scheduling rounds, pools capped at ten.
"""

from importlib import resources
from pathlib import Path

from ..engine import read_outcome_script

TOFFOLI_CONDITION = ("temporal", 15)


def fixture_path(name: str) -> Path:
    return Path(resources.files(__package__) / name)


def toffoli_text() -> str:
    return fixture_path("toffoli.icm").read_text(encoding="utf-8")


def toffoli_unopt_text() -> str:
    return fixture_path("toffoli_unopt.icm").read_text(encoding="utf-8")


def toffoli_outcome_script() -> tuple:
    return read_outcome_script(fixture_path("toffoli_outcomes.txt").read_text(encoding="utf-8"))
