"""The paper's Algorithm-1 structures and the per-query specification of the scan.

* :mod:`~paper.reference.bitmap_counter`, :mod:`~paper.reference.zipper`,
  :mod:`~paper.reference.hash_table` and :mod:`~paper.reference.cpq` — the
  Bitmap Counter, the Gate (ZipperArray + AuditThreshold), the Robin Hood
  Hash Table and the c-PQ they assemble (Section III-C), update by update,
* :mod:`~paper.reference.reference` — the match / select pipeline one query
  at a time, which the production scan is tested against field by field,
* :mod:`~paper.reference.count_table` and :mod:`~paper.reference.spq_select`
  — the plain Count Table and SPQ selection that c-PQ replaces (the GEN-SPQ
  and GPU-SPQ baselines).

None of this is a code path of the installed package: the engine computes
the same answers with flat arrays and prices these structures analytically
(:func:`repro.core.engine.per_query_device_bytes`; the two sizing helpers
:func:`~repro.core.engine.bits_for_bound` and
:func:`~repro.core.engine.hash_table_capacity` live beside it).
"""
