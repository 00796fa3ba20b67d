"""Generalized V-line and star transforms of planar vector fields.

Forward operators (longitudinal, transverse, their first moments, the
signed scalar transform, and the weighted star transform), together with
the closed-form reconstruction pipelines: curl/div recovery, full-field
Poisson recovery, moment-based component recovery, and the Radon-domain
star inversion.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .beam import beam_field, invert_signed, signed_vline
from .errors import ConfigError, FileFormatError, GeometryError, VlineError
from .fields import (Grid2D, ScalarField, VectorField, VLineGeometry, det2,
                     direction, grid_for_vline, perp, unit_vector)
from .operators import laplacians_from_div_curl
from .phantoms import Phantom, bump_scalar, make_phantom, random_phantom
from .poisson import PoissonResult, solve_dirichlet_disc, solve_free_space
from .radon import Sinogram, fbp_inverse, radon_forward, radon_transform_field, \
    sinogram_dds
from .star import (SingularDirections, StarGeometry, classify, forward_star,
                   gamma_of_psi, grid_for_star, invert_star, q_of_psi,
                   singular_directions)
from .vline import (forward_I, forward_J, forward_L, forward_T, recover_curl,
                    recover_div, recover_field_LI, recover_field_LT,
                    recover_field_TJ, recover_potential, recover_stream,
                    rhombus_check)

__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
