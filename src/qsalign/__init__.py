"""Simulator-backed nearest-neighbour search over bit-string databases.

Databases of n-bit entries are loaded into superposition next to a target
string; an entangler and a popcount circuit write each branch's Hamming
distance into an ancilla register, and amplitude amplification raises the
branches at a probed distance before sampling. Loader circuits can be
exact, synthesised from a fidelity-calibrated perturbed state, or evolved
genetically, which makes accuracy-versus-fidelity studies possible.

The package re-exports nothing: import from its submodules (``simcore``,
``registers``, ``grover``, ``qsa``, ``gasp``, ``experiments``, ``checks``).
"""
