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
from .partition import (Certificate, Partition, Simplex, Verdict,
                        bisect_longest_edge, certify_copositivity, diameter,
                        grid_partition, inner_test_full, member_I_P,
                        member_O_P, refine, standard_simplex, trivial_partition)
from .tensor import (SymTensor, SymTensorBuilder, canonicalize, eval_form,
                     from_matrix, multi_product, necessary_screen)

__version__ = "0.1.0"
