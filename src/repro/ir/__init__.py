"""Intermediate representation: function IR (:mod:`.nodes`), task-graph
IR (:mod:`.taskgraph`), lowering (:mod:`.builder`, whose ``build_ir``
runs the whole pipeline), shape discovery, shallow optimizations,
verification, task fusion and canonical fingerprints.

Import each name from the module that defines it: the runtime and the
devices load ``nodes``/``ops``/``taskgraph`` without the lowering, which
pulls in the frontend.
"""
