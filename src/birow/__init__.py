"""Exact arithmetic for birational rowmotion on a product of two chains:
toggle dynamics, the lattice-path closed form for iterates, and machine
verification of periodicity, reciprocity, and file homomesy."""

from .closed_form import ClosedForm, IterateQuery, rho_closed
from .dynamics import Labeling, generic_labeling, iterate_birational, rowmotion_birational
from .exactnum import Factored, Polynomial, Var, avar, xvar
from .grid_poset import RectPoset, Region
from .nilp import phi
from .report import Report

__version__ = "0.1.0"

__all__ = [
    "ClosedForm", "IterateQuery", "rho_closed", "Labeling",
    "generic_labeling", "iterate_birational", "rowmotion_birational",
    "Factored", "Polynomial", "Var", "avar", "xvar",
    "RectPoset", "Region", "phi", "Report", "__version__",
]
