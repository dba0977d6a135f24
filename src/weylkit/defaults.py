"""Central table of numerical defaults.

Every tolerance or knob used by more than one module lives here; the CLI
echoes the effective values into ``run-manifest.json``.  The README carries
the same table in documented form.
"""

# Identity / residual tolerances
IDENTITY_TOL = 1e-9          # relative tolerance for all algebraic matrix identities
FACTOR_RESIDUAL_TOL = 1e-8   # ||(I+E) S (I+E)* - I|| after triangular factorization
POLE_CUTOFF = 1e-12          # |z - pole| < POLE_CUTOFF * (1 + scale) raises SingularityError
PSD_TOL = 1e-10              # eigenvalue slack when asserting positive semidefiniteness
RANK_TOL = 1e-8              # singular-value cutoff for rank checks

# Grid / discretization defaults
GRID_STEP = 1.0 / 256.0      # default uniform grid step (per unit length)
XMAX = 2.0                   # default truncation of amplitude grids

# Fourier layer
ETA = 1.0                    # default height of the sampling line Im z = eta
FOURIER_CUTOFF = 200.0       # default truncation a of the line integral
FOURIER_DZETA = 0.05         # default trapezoid step along the line
GL_ORDER = 6                 # forward-transform gl_order: accepted; no longer changes the result

# Weyl disk oracle
DISK_LENGTH_FACTOR = 40.0    # default l = 40 / Im z
DISK_STEPS_PER_UNIT = 256    # propagation steps per unit length

# Interpolation
EPSILON = 0.1                # default offset of the sample lattice i(q + epsilon)
SERIES_ORDER = 60            # default truncation order N
COEFF_TOL = 1e-12            # coefficient recurrence vs closed form
