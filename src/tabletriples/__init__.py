"""tabletriples: build data-to-text corpora from annotated tables.

Flat tables plus column-parent annotations become rooted ontology trees;
connected subtrees of those trees, instantiated with row values, yield
subject-predicate-object triplesets. Adapters fold in dialogue-act meaning
representations, XML entry collections, and question/SQL pairs, predicates
are canonicalized against a mapping table, and similarity-controlled splits
keep near-duplicate tables out of training.
"""

from .adapters import (
    Dropped,
    MeaningRepresentation,
    SqlQuery,
    Unaligned,
    align_row,
    e2e_to_tripleset,
    filter_sql,
    parse_mr,
    parse_sql,
    webnlg_ingest,
)
from .errors import (
    BadIndexError,
    CycleError,
    DegenerateSplitError,
    DuplicateHeaderError,
    EmptyRealizationError,
    EmptyTreeError,
    MalformedEntryError,
    OversizeError,
    ParseError,
    PredicateMapError,
    TableTriplesError,
)
from .formats import linearize, read_xml, write_xml
from .sampling import Component, SamplerConfig, sample_component, sample_for_table
from .splits import SplitConfig, SplitName, TableSignature, jaccard, split
from .stats import CorpusStats, compute_stats
from .tables import (
    ROOT,
    TITLE,
    OntologyAnnotation,
    OntologyStats,
    OntologyTree,
    Table,
    TitleShape,
    build_tree,
    load_table,
    ontology_stats,
    validate_tree,
)
from .triples import (
    Annotator,
    CorpusEntry,
    Highlight,
    Provenance,
    Realization,
    Triple,
    TripleSet,
    assemble_entry,
    complete_subtree,
    entry_for_highlight,
    extract_triples,
    instantiate,
)
from .unify import PredicateMap, load_predicate_map, unify_tripleset

__version__ = "0.1.0"
