"""Copositivity certification for symmetric tensors.

Inner approximations (non-negative coefficients, sum-of-squares Gram
feasibility, simplicial partitions) and outer approximations (partition
vertices, rational grids), with a brute-force oracle for validation.

Importing the package loads no numpy, so the numpy-backed hierarchies are
imported from their submodules, ``copotensor.polycone`` and
``copotensor.soscone``.
"""

from .combinatorics import enumerate_exponents, multinomial
from .gridcone import member_O_r
from .partition import (Certificate, Simplex, Verdict, certify_copositivity,
                        diameter, member_I_P, member_O_P, standard_simplex)
from .tensor import (SymTensor, SymTensorBuilder, canonicalize, eval_form,
                     from_matrix, necessary_screen)

__version__ = "0.2.0"
