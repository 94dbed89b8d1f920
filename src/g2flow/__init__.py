"""Laplacian flow of left-invariant G2-structures via the bracket flow."""

from . import almostabelian, exterior, flow, g2core, liealg
from .errors import (
    BadMetric,
    ComponentError,
    DegreeUnderflow,
    G2FlowError,
    InconsistentTorsion,
    InvalidBracket,
    NotClosed,
    NotTraceFree,
    PositivityError,
    SingularSystem,
    StepUnderflow,
)
from .exterior import KForm, Metric, hodge_star, interior, theta, wedge
from .g2core import G2Structure, metric_from_3form
from .liealg import LieBracket, ce_differential, delta_mu, derivations, hodge_laplacian, jacobi_residual, ricci

__all__ = [
    "almostabelian", "exterior", "flow", "g2core", "liealg",
    "KForm", "Metric", "hodge_star", "interior", "theta", "wedge",
    "G2Structure", "metric_from_3form",
    "LieBracket", "ce_differential", "delta_mu", "derivations",
    "hodge_laplacian", "jacobi_residual", "ricci",
    "G2FlowError", "BadMetric", "ComponentError", "DegreeUnderflow",
    "InconsistentTorsion", "InvalidBracket", "NotClosed", "NotTraceFree",
    "PositivityError", "SingularSystem", "StepUnderflow",
]

__version__ = "0.1.0"
