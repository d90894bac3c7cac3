"""Deterministic single-photon simulator over joint polarization/OAM modes.

Builds q-plate optical benches, runs the four one-query oracle circuits,
classifies constant vs balanced boolean functions from a single detector
click, and models heralded loss and waveplate cross-talk.  Benches can also
be described in a small text format and driven from the command line.
"""

from .deutsch import (
    OamSorterProbs,
    RunReport,
    ShotTally,
    classify,
    expected_output,
    measure_oam_superposition,
    measure_pbs,
    prepare_input,
    run,
    sample_counts,
)
from .dsl import (
    BenchFile,
    CompiledBench,
    ParseError,
    Preparation,
    compile_bench,
    parse,
    parse_with_errors,
    render,
)
from .elements import (
    QPlateSpec,
    WaveplateSpec,
    dove_prism,
    hwp,
    lens,
    qplate,
)
from .errors import (
    BenchParseError,
    CompileError,
    EncodingError,
    GateBrokenError,
    SpinOrbitError,
    TruncationError,
)
from .logic import (
    LOGICAL_STATES,
    ORACLE_IDS,
    OracleBench,
    build_oracle,
    decode,
    encode,
    logical_matrix,
    oracle_class,
    truth_table,
)
from .reference import (
    TwoQubitState,
    apply_uf,
    classify_abstract,
    computational_state,
    hadamard_both,
)
from .state import (
    ElementOp,
    ModeSpace,
    PhotonState,
    apply,
    apply_chain,
    basis_state,
    compose,
    fidelity_up_to_phase,
    make_space,
)

__version__ = "0.1.0"
