"""Parameter extraction against malleable masked-inference services.

The package bundles a from-scratch CNN evaluator with shift injection at
every non-linear boundary, a label-only oracle with query accounting, a
message-level simulator of the masked hybrid inference protocol, the
safe-error extraction attack itself, and an experiment harness with a CLI.
"""

from .extract import (
    BoundarySearchConfig,
    BoundarySearchError,
    DeadFeatureError,
    ExtractionError,
    FeatureResult,
    LayerExtractionResult,
    ScanRetryError,
    SuppressionFloorError,
    SuppressionPlan,
    conv_injection_pattern,
    extract_conv_layer,
    extract_fc_layer,
    extract_feature,
    extract_feature_maxpool,
    extract_last_layer,
    search_critical,
    zero_input_plan,
)
from .harness import (
    REFERENCE_CALLS_PER_PARAM,
    ExperimentConfig,
    ExtractionReport,
    LayerReport,
    default_target_layers,
    gauge_fix,
    layer_error_summary,
    relative_errors,
    run_attack,
    verify_models,
)
from .model import (
    KIND_ADD,
    KIND_ARGMAX,
    KIND_CONV,
    KIND_FC,
    KIND_INPUT,
    KIND_MPR,
    KIND_RELU,
    POST,
    PRE,
    LayerSpec,
    ModelGraph,
    QueryInput,
    ShiftSet,
    StructuralError,
    Trace,
    apply_linear,
    apply_maxpool_relu,
    apply_relu,
    build_model,
    count_parameters,
    forward_label,
    forward_trace,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_architecture,
    pooled_receivers,
    random_model,
    save_model,
)
from .oracle import CriticalPoint, OracleHandle
from .protocol import (
    InferenceServer,
    ProtocolError,
    RemoteOracle,
    Transcript,
    TransportError,
    connect,
    replay_transcript,
    run_session,
    serve,
)

__version__ = "0.1.0"
