"""IKEv1 phase-1 aggressive mode, plain and device-gated, under test.

The package implements two variants of the three-message aggressive-mode
exchange — the classic ladder and one gated by an emulated security-key
USB device — plus a deterministic adversarial network simulator that
measures what each variant actually protects.
"""

from .protocol import Counters, HandshakeSession, Role, SessionState, Variant
from .netsim import (
    ObserverKnowledge,
    ScenarioConfig,
    ScenarioReport,
    run_matrix,
    run_scenario,
    verdicts_from_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Counters",
    "HandshakeSession",
    "ObserverKnowledge",
    "Role",
    "ScenarioConfig",
    "ScenarioReport",
    "SessionState",
    "Variant",
    "run_matrix",
    "run_scenario",
    "verdicts_from_trace",
    "__version__",
]
