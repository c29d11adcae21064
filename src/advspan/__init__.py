"""Adversary-bound SDP, canonical span programs, and spectral verification
for small boolean functions."""

from .boolfun import (
    BooleanFunction,
    Formula,
    RectanglePartition,
    difference_matrix,
    formula_size,
    kw_partition,
    load_function,
    minimal_formula,
    parse_formula,
)
from .advsdp import (
    AdversaryCertificate,
    SdpSolution,
    WitnessSdp,
    adversary_ratio,
    build_witness_sdp,
    extract_certificate,
    solve_sdp,
)
from .spanprog import (
    CanonicalSpanProgram,
    Evaluation,
    SpanProgram,
    canonical_from_gram,
    evaluate,
    program_witness_size,
    witness_size_input,
)
from .spectral import (
    InputGraph,
    ProgramGraph,
    anchor_measure,
    build_input_graph,
    build_program_graph,
    effective_gap_profile,
    phase_gap_profile,
    psd_spectral_bound_check,
    zero_witness_vectors,
)
from .qsim import (
    ProgressTrace,
    QueryAlgorithm,
    parity_two_query_algorithm,
    progress_trace,
    qpe_accept_probability,
    run_query_algorithm,
    search_accept_probability,
    search_noregister_probability,
)
from .pipeline import Verification, verify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
