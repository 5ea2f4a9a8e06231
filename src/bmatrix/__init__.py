"""Compressed in-memory RDF triple store over k2-tree encoded binary matrices."""

from .bitvector import BitVector, SAMPLE_PRESETS
from .dac import Dac
from .dictionary import Dictionary
from .k2tree import (K2Config, K2Tree, LeafVocabulary,
                     VOCAB_COLS_FULL, VOCAB_COLS_RANK, VOCAB_PLAIN)
from .ntriples import RawTriple, ParseError, format_triple, iter_file, iter_triples
from .oracle import TripleList
from .store import PredicateIndex, TripleStore, load, save

__version__ = "0.1.0"

__all__ = [
    "BitVector", "SAMPLE_PRESETS", "Dac", "Dictionary",
    "K2Config", "K2Tree", "LeafVocabulary",
    "VOCAB_COLS_FULL", "VOCAB_COLS_RANK", "VOCAB_PLAIN",
    "RawTriple", "ParseError", "format_triple", "iter_file", "iter_triples",
    "TripleList", "PredicateIndex", "TripleStore", "load", "save",
    "__version__",
]
