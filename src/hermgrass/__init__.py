"""Affine Hermitian Grassmann codes over small fields: exact construction,
parameter certification by enumeration, and machine verification of the
counting and classification facts behind them."""

from .analysis import (
    DistanceCertificate,
    distance_formula,
    min_distance,
    min_distance_exhaustive,
    min_distance_formula,
    min_distance_subfield,
    weight,
    weight_of_function,
)
from .codebuild import (
    CodeSpec,
    GeneratorMatrix,
    build_generator,
    fq_basis,
    read_generator,
    write_generator,
)
from .dual import DualDistanceCertificate, dual_min_distance
from .galois import FieldTower, make_field, tower_for_q
from .hermitian import count_invertible

__version__ = "0.1.0"
