"""Step-level fill-in-the-middle toolkit for chain-of-thought corpora.

Pipeline stages, each usable as a library call or a CLI subcommand:

- decompose: split free-text solutions into ordered step chains
- fim: build prefix/suffix/middle training samples in PSM order
- expand: insert model-generated intermediate steps, gated by similarity
- synth: generate verifiable arithmetic corpora with known ground truth
- stats: before/after corpus statistics
"""

from stepfim.decompose import (
    STEP_SEPARATOR,
    DecomposeConfig,
    EmptySolution,
    NonTextSolution,
    StepChain,
    UnbalancedMath,
    decompose,
    join,
    normalize_ws,
)
from stepfim.fim import (
    FIM_MIDDLE,
    FIM_PREFIX,
    FIM_SUFFIX,
    SPECIAL_TOKENS,
    FimSample,
    MalformedPsm,
    SamplerConfig,
    SpecialTokenCollision,
    format_prompt,
    format_psm,
    parse_psm,
    reassemble,
    sample_fim,
)
from stepfim.similarity import GateConfig, GateOutcome, gate, similarity
from stepfim.expand import (
    ExpansionConfig,
    ExpansionReport,
    GapProposal,
    expand_chain,
    expand_iteratively,
    expand_records,
)
from stepfim.backends import (
    BackendConfig,
    BackendError,
    BadFixture,
    FimRequest,
    FixtureMiss,
    HttpBackend,
    OracleBackend,
    ReplayBackend,
    TransportError,
    make_backend,
    record_fixtures,
)
from stepfim.synth import (
    CorpusSpec,
    SpecError,
    SyntheticProblem,
    UnparsableQuestion,
    generate,
    oracle_fill,
)
from stepfim.stats import (
    CorpusStats,
    EmptyCorpus,
    MalformedRecord,
    StatsDelta,
    TokenizerMismatch,
    diff_stats,
    stats,
)

__version__ = "0.1.0"
