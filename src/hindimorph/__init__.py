"""Finite-state morphology toolkit for Hindi.

Root-word lexicons and handwritten inflection/derivation rules compile
into minimized finite-state transducers that analyze and generate word
forms; a maximum-entropy POS tagger sits on top and falls back on the
morphology for words outside its training dictionary.

Subpackage map:

- :mod:`hindimorph.fst` - transducer data structures and algebra
- :mod:`hindimorph.rules` - the rule language and its compiler
- :mod:`hindimorph.lexicon` - root lists, their machines, and corpus word extraction
- :mod:`hindimorph.morph` - analysis/generation over a compiled grammar
- :mod:`hindimorph.tagger` - log-linear POS tagging
- :mod:`hindimorph.cli` - the ``hindimorph`` command

A small demonstration grammar with its root list, an indeclinable
dictionary, and a tagged mini-corpus ship under :func:`data_path`.
"""

from __future__ import annotations

from pathlib import Path

from .fst import SymbolTable, Transducer
from .morph import Analysis, MorphModel

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "MorphModel",
    "RuleFile",
    "SymbolTable",
    "TaggedCorpus",
    "TagModel",
    "Transducer",
    "data_path",
    "__version__",
]


def data_path(*parts: str) -> Path:
    """Path of a bundled data file (demo grammar, lexicon, corpus)."""
    return Path(__file__).resolve().parent.joinpath("data", *parts)


# Names whose modules are imported on first use, so that ``analyze``
# loads neither the rule compiler nor the tagger (PEP 562).
_LAZY = {"RuleFile": "rules", "TaggedCorpus": "tagger", "TagModel": "tagger"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
