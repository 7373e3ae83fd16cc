"""The CPU backend: bytecode ISA (:mod:`.isa`), compiler
(:mod:`.compiler`), interpreter (:mod:`.interpreter`) and the staging of
bytecode to Python functions (:mod:`.staging`).

The runtime loads the ISA and the interpreter without the compiler, so
import each name from the module that defines it.
"""
