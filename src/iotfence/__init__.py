"""Identify IoT device types from setup-phase traffic; derive isolation rules.

The pipeline: captured frames become 23-field feature vectors, a device's
setup-phase vectors become a fingerprint, per-type random forests nominate
candidate types, edit-distance discrimination settles multi-candidate cases,
and the outcome maps to an enforceable MAC-keyed isolation rule.
"""

__version__ = "0.1.0"

from .discriminate import (DissimilarityScore, discriminate, dl_distance,
                           normalized_distance, score_type, select_references)
from .enforce import (Decision, EnforcementRule, FlowKey, IsolationLevel,
                      Overlay, RuleCache, decide, load_flows_csv, load_rules,
                      make_rule, overlay_of, rule_hash, save_rules,
                      simulate_flows)
from .errors import IotfenceError
from .fingerprint import (FIXED_LEN, FIXED_PACKETS, Fingerprint,
                          FixedFingerprint, SetupSessionConfig, SetupWindow,
                          build_fingerprint, load_fingerprints,
                          save_fingerprints, segment_setup, to_fixed,
                          write_fixed_csv)
from .harness import (CorpusNoise, EvaluationReport, SyntheticCorpusSpec,
                      cross_validate, generate_corpus, shuffle_labels)
from .identify import (IdentificationResult, IsolationAssignment, StageTimes,
                       VulnerabilityEntry, VulnerabilityRegistry,
                       assign_isolation, identify, identify_capture)
from .ingest import (FEATURE_NAMES, DecodedPacket, DestIpCounterState,
                     PacketFeatures, RawFrame, SessionFeatures, TimedFeatures,
                     decode_frame, extract_features, extract_sessions,
                     port_class, read_pcap, write_features_csv)
from .macaddr import mac_to_str, normalize_mac
from .typemodel import (ClassifierRegistry, ForestParams, TypeClassifier,
                        TypePrediction, load_model, predict_all, save_model,
                        train_registry, train_type_classifier)

__all__ = [name for name in dir() if not name.startswith("_")]
