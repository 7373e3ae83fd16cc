"""The Lime language frontend: lexer, parser, types, semantic analysis.

Import each name from the module that defines it (``analyze`` from
:mod:`.typecheck`, ``parse`` from :mod:`.parser`, ...): the runtime and
the devices load :mod:`.types` without the rest of the frontend.
"""
