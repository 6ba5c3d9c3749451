"""The paper's contribution: SLR and STR program transformations.

* :class:`SafeLibraryReplacement` (SLR) — replace unsafe library calls with
  bounds-aware alternatives, sizing destinations via Algorithm 1.
* :class:`SafeTypeReplacement` (STR) — replace local char buffers with the
  stralloc safe-string type, rewriting all uses per Table II.
* :func:`apply_batch` — batch both transformations over a whole program.
* :mod:`repro.core.backends` — the pluggable fix-backend registry
  (slr/str/s3lib) and per-file oracle arbitration.
"""

from .backends import (
    ARBITRATION_VERSION, ArbitrationReport, BackendCandidate,
    DEFAULT_BACKENDS, FixBackend, all_backends, arbitrate_file,
    backend_ids, get_backend, register_backend, resolve_backends,
    scoreboard, unregister_backend,
)
from .batch import (
    BatchResult, FileTask, FileTransformReport,
    ProcessPoolExecutor, SerialExecutor, SourceProgram, apply_batch,
    make_executor, transform_file,
)
from .bufferlen import BufferLength, BufferLengthAnalyzer, LengthFailure
from .session import AnalysisSession, ParsedUnit, get_session, reset_session
from .s3lib import S3_ALTERNATIVES, S3LibraryReplacement, apply_s3lib
from .slr import (
    SAFE_ALTERNATIVES, SafeLibraryReplacement, UNSAFE_FUNCTIONS, apply_slr,
)
from .stralloc import STRALLOC_DECLARATIONS, STRALLOC_FUNCTIONS
from .strtransform import REPLACEMENT_PATTERNS, SafeTypeReplacement, apply_str
from .transform import (
    PRECONDITION_FAILED, SiteOutcome, TRANSFORMED, TransformResult,
    Transformation, sort_outcomes,
)
from .validate import (
    DifferentialInput, InputVerdict, VERDICTS, ValidationReport,
    classify, default_inputs, fuzz_inputs, validate_pair, validate_result,
)

__all__ = [
    "ARBITRATION_VERSION", "ArbitrationReport", "BackendCandidate",
    "DEFAULT_BACKENDS", "FixBackend", "all_backends", "arbitrate_file",
    "backend_ids", "get_backend", "register_backend",
    "resolve_backends", "scoreboard", "unregister_backend",
    "S3_ALTERNATIVES", "S3LibraryReplacement", "apply_s3lib",
    "BatchResult", "FileTask", "FileTransformReport",
    "ProcessPoolExecutor", "SerialExecutor", "SourceProgram",
    "apply_batch", "make_executor", "transform_file",
    "BufferLength", "BufferLengthAnalyzer", "LengthFailure",
    "AnalysisSession", "ParsedUnit", "get_session", "reset_session",
    "SAFE_ALTERNATIVES", "SafeLibraryReplacement", "UNSAFE_FUNCTIONS",
    "apply_slr",
    "STRALLOC_DECLARATIONS", "STRALLOC_FUNCTIONS",
    "REPLACEMENT_PATTERNS", "SafeTypeReplacement", "apply_str",
    "PRECONDITION_FAILED", "SiteOutcome", "TRANSFORMED", "TransformResult",
    "Transformation", "sort_outcomes",
    "DifferentialInput", "InputVerdict", "VERDICTS", "ValidationReport",
    "classify", "default_inputs", "fuzz_inputs", "validate_pair",
    "validate_result",
]
