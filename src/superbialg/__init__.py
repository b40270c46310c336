"""Exact-arithmetic computations with Lie superbialgebra structures.

The package is organized bottom-up:

* `graded` -- one rational sparse tensor type of any rank over a Z/2-graded
  basis, the Koszul-signed operations (tensor, wedge, super swap), exact
  row reduction and spans, and one linear-map type;
* `algebra` -- Lie superalgebras from structure constants, matrix
  realizations, the supertrace form, axiom and homomorphism checks;
* `cohomology` -- super-alternating cochains and the differential;
* `bialgebra` -- r-matrices, cobrackets, the constant exchange (one
  Koszul sign map), dual brackets, restriction, opposites, Manin triples;
* `double` -- the dual bialgebra and the Drinfeld double;
* `catalog` -- the concrete sl(2,1) objects with their reference tables;
* `verify` -- the section-by-section reproduction suite;
* `cli` -- the `superbialg` command.
"""

from .graded import (
    EVEN, ODD, BasisMismatch, Element, GradedBasis, LinearMap, Tensor,
    Tensor2, is_super_skew, koszul, span_equal, super_swap, tensor, wedge,
)
from .report import VerificationReport
from .algebra import (
    BilinearForm, DependentVectors, MatrixRealization, NotClosed,
    Superalgebra, check_homomorphism, check_invariance, from_matrices,
    gram_matrix, is_subalgebra,
)
from .cohomology import Cochain, coboundary, coboundary_0, is_cocycle_1
from .bialgebra import (
    Bialgebra, DegenerateForm, InvalidBialgebra, ManinTriple,
    NotClosedUnderCobracket, casimir, check_bialgebra_homomorphism,
    check_cojacobi, check_compatibility, check_f_equation,
    check_manin_triple, check_unitarity, cocommutator, dual_algebra,
    dual_bracket, exchange, opposite, r_of_f, restrict, solve_f_from_r,
)
from .double import (
    DoubleAlgebra, build_double, check_canonical_r, dual_bialgebra, identify,
)

__version__ = "0.1.0"
