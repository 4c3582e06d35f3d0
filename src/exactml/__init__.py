"""Exact learnability, safety and robustness metrics for small ML models.

Decision trees and fixed-point networks over bounded integer domains are
compiled to boolean circuits and counted exactly, on truth tables or BDDs
over the circuit wires, or Tseitin-encoded to CNF with the input bits as
projection variables for an external projected model counter.
"""

__version__ = "0.1.0"
