"""Fleet provenance: the append-only run ledger and its replay audit.

Every executed scenario run appends one NDJSON record — spec, spec
digest, code digest, engine version, runtime, golden trace digest,
wall time, metrics snapshot, round-template stats — to a crash-safe
ledger file (:class:`RunLedger`, default ``.repro_cache/ledger.ndjsonl``).
The ledger is the durable half of sweep observability: the sweep report
and result cache answer "what is the current result", the ledger answers
"what did every run *ever* produce, and can it still be re-derived".

The audit half (:mod:`repro.ledger.audit`) re-executes recorded entries
and byte-compares the golden digest and (comparable) metrics against the
record, attributing any drift to the code-digest delta between then and
now.  Exposed on the CLI as ``repro ledger show|trends|verify``.
"""

from .audit import (
    comparable_metrics,
    dedupe_entries,
    ledger_trends,
    verify_entries,
    verify_entry,
)
from .store import (
    DEFAULT_LEDGER_KEEP,
    DEFAULT_LEDGER_MAX_BYTES,
    LEDGER_VERSION,
    RunLedger,
    record_from_result,
    spec_digest,
)

__all__ = [
    "DEFAULT_LEDGER_KEEP",
    "DEFAULT_LEDGER_MAX_BYTES",
    "LEDGER_VERSION",
    "RunLedger",
    "comparable_metrics",
    "dedupe_entries",
    "ledger_trends",
    "record_from_result",
    "spec_digest",
    "verify_entries",
    "verify_entry",
]
