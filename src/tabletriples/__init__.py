"""tabletriples: build data-to-text corpora from annotated tables.

Flat tables plus column-parent annotations become rooted ontology trees;
connected subtrees of those trees, instantiated with row values, yield
subject-predicate-object triplesets. Adapters fold in dialogue-act meaning
representations, XML entry collections, and question/SQL pairs, predicates
are canonicalized against a mapping table, and similarity-controlled splits
keep near-duplicate tables out of training.
"""

from importlib import import_module

# the names each module exports; a module is imported when one of its names
# is first looked up, so ``import tabletriples.cli`` loads only what it needs
_EXPORTS = {
    "adapters": ("Dropped", "align_row", "e2e_to_tripleset", "parse_mr", "parse_sql",
                 "webnlg_ingest"),
    "entries": ("Annotator", "CorpusEntry", "Provenance", "Realization", "Triple",
                "check_entry"),
    "errors": ("BadIndexError", "BoundError", "CycleError", "DegenerateSplitError",
               "DuplicateHeaderError", "EmptyTreeError", "MalformedEntryError",
               "OversizeError", "ParseError", "PredicateMapError", "TableTriplesError"),
    "formats": ("linearize",),
    "sampling": ("Component", "SamplerConfig", "sample_component", "sample_for_table"),
    "splits": ("SplitConfig", "SplitName", "TableSignature", "jaccard", "split"),
    "stats": ("CorpusStats", "compute_stats"),
    "tables": ("ROOT", "TITLE", "OntologyAnnotation", "OntologyTree", "Table", "TitleShape",
               "build_tree", "load_table"),
    "triples": ("Highlight", "assemble_entry", "complete_subtree", "entry_for_highlight",
                "extract_triples", "instantiate"),
    "unify": ("PredicateMap", "load_predicate_map", "unify_entry"),
    "xmlcodec": ("read_xml", "write_xml"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
