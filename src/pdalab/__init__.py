"""Desk-scale partial domain adaptation lab.

Trains small dense networks with a bi-level-selection adversarial
method and audits the estimation error of the class transferable
probability against its exactly computable bound.
"""

__version__ = "0.1.0"
