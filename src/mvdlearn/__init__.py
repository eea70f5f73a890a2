"""Exact learning of dependency formulas with membership and equivalence
queries, plus the framework reductions that reuse the same learner for
database dependencies, Horn entailments and two-literal-clause entailments.
"""

from .core import (
    DEFAULT_ENUM_CAP,
    HornClause,
    HornFormula,
    Interpretation,
    MvdClause,
    MvdFormula,
    QuasiHorn2Clause,
    VariableUniverse,
    entails,
    equivalent,
    false_clause,
    find_counterexample,
    format_clause,
    format_formula,
    horn_to_mvd,
    horn_formula_to_mvd,
    mvd_to_quasi2,
    parse_clause,
    parse_formula,
    satisfies,
    violates,
)
from .errors import (
    BoundViolationError,
    ConversionError,
    EnumerationCapError,
    MvdLearnError,
    OracleContractError,
    ParseError,
    SchemaError,
    UniverseMismatchError,
)
from .learner import (
    LearnerSession,
    TheoreticalBounds,
    TraceRecord,
    construct_h0,
    learn,
)
from .oracles import (
    EntailmentTeacher,
    MvdfInterpretationTeacher,
    RelationTeacher,
)
from .reductions import (
    ReductionPair,
    horn_f_eq,
    horn_f_mem,
    horn_i_via_mvdf,
    learn_horn_from_entailments,
    learn_mvd_from_relations,
    learn_mvdf_from_quasi2,
    mvdf_to_horn,
    qh_ce_to_mvd,
    qh_f_mem,
    qh_interp_ce_substitute,
    relation_ce_to_interp,
    translate_oracles,
)
from .relations import (
    Relation,
    find_violating_pair,
    interp_to_pair,
    mvd_holds,
    read_csv,
)

__version__ = "0.1.0"
