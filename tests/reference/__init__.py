"""Executable specifications of the shipped fast paths.

Each module here is the straightforward version of one mechanism that
``src/`` implements in an optimized form.  Nothing in the package ships
or is selectable at run time; it exists so the property tests, goldens
and bench guards can prove the fast path equal to the obvious one.

- :mod:`tests.reference.sync` — the row-object blocked-list pull
  (``sync_for_as`` / ``apply_sync``) beside the columnar
  ``ServerDB.sync_batch_for_as`` / ``GlobalView.apply_batch``;
- :mod:`tests.reference.fleet` — the per-client fleet pull sweep
  (``SpecCohort``) beside ``ClientCohort``'s group-applied sweep;
- :mod:`tests.reference.policy` — the first-match linear rule scan
  beside ``CompiledPolicy``'s per-stage indexes;
- :mod:`tests.reference.voting` — vote statistics recomputed from every
  reporter beside ``VotingLedger``'s incremental d-histograms.

The references may read private fields of the objects they mirror
(``_shards``, ``_by_key``, ...): they are the spec of those internals.
"""
