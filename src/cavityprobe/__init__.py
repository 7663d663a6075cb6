"""Conditional-instrument simulation of indirect cavity-mode photodetection.

A two-level atom (the pointer) crosses a cavity, exchanges excitation with a
truncated field mode while relaxing and dephasing, and is then read out
projectively.  This package integrates the outcome-resolved superoperator
maps of that measurement, validates them against a full joint Lindblad
solver, and reports outcome probability, information gain and fidelity as
functions of the interaction time.
"""

# Each module's __all__ is the one list of its public names.
from .fock import *
from .instrument import *
from .metrics import *
from .oracle import *

__version__ = "0.1.0"
