"""ledleak: simulate, recover and analyse optical leakage from LED indicators.

Synthesis of Class I/II/III indicator emanations, serial data recovery from
photodetector traces, a clean-room deep-pipeline Ethernet MAC model with
cut-through access and FCS-corruption abort, and a unidirectional optical
data-diode link.
"""

from .emanation import (
    DEFAULT_ACTIVITY_WINDOW,
    MAX_SAMPLES,
    DeviceProfile,
    DriveConfig,
    EmanationClass,
    LedModel,
    activity_envelope,
    add_noise,
    apply_pulse_stretch,
    drive_stream,
    led_transduce,
    synthesize_class,
    uart_encode,
)
from .errors import ConfigError, EstimationError, FrameError, NoSignalError
from .mac import (
    EthernetFrame,
    MiiNibbleStream,
    PipelineState,
    SignatureHook,
    ValidationResult,
    abort_transmission,
    build_frame,
    crc32_fcs,
    keyed_checksum_hook,
    mii_marshal,
    sign_frame,
    validate_frame,
    verify_frame,
)
from .diode import (
    DiodeLink,
    LinkReport,
    ReceiverCircuit,
    WiredBackLink,
    assert_unidirectional,
    contention_check,
    diode_send,
    photodiode_receive,
)
from .recovery import (
    ClassificationReport,
    DecodeResult,
    bit_error_rate,
    classify_trace,
    estimate_baud,
    leakage_mutual_information,
    recover_data,
    threshold_detect,
    uart_decode,
)
from .signals import (
    STANDARD_BAUDS,
    LogicEventStream,
    NoiseModel,
    OpticalTrace,
    SerialConfig,
)

__version__ = "0.1.0"
