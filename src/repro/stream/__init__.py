"""An LSM-style mutable delta run over the static GENIE base.

Online ``insert``/``delete``/``update`` on an
:class:`~repro.api.session.IndexHandle` land in one mutable
:class:`DeltaRun` instead of refitting; searches compose the
CSR base with the delta exactly (plan: ``Scan(base) + DeltaScan`` under
one merge, tombstones filtered before top-k), and a threshold-driven
:meth:`~repro.stream.state.StreamState.compact` rewrites everything back
into a fresh base. See :mod:`repro.stream.state` for the orchestration
and :mod:`repro.stream.manifest` for the versioning contract.
"""

from repro.stream.delta import DeltaRun, StreamConfig
from repro.stream.manifest import SegmentManifest
from repro.stream.state import StreamState

__all__ = ["DeltaRun", "SegmentManifest", "StreamConfig", "StreamState"]
