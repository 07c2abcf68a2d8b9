"""The shipped rules; importing this package registers all of them.

One module per rule, named after the invariant it encodes:

* :mod:`~tools.lint.rules.determinism`  — REPRO001
* :mod:`~tools.lint.rules.taxonomy`     — REPRO002
* :mod:`~tools.lint.rules.accounting`   — REPRO003
* :mod:`~tools.lint.rules.metrics`      — REPRO004
* :mod:`~tools.lint.rules.defaults`     — REPRO005
* :mod:`~tools.lint.rules.seeds`        — REPRO006
* :mod:`~tools.lint.rules.retries`      — REPRO007
"""

from tools.lint.rules import (  # noqa: F401
    accounting,
    defaults,
    determinism,
    metrics,
    retries,
    seeds,
    taxonomy,
)
