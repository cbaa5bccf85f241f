"""The threshold table: every number that decides a verdict, the pass or fail
of a ``verify`` item, or a refusal with an exit code, defined once.  Each row's
comment says what it bounds; ``PINNED_THRESHOLDS`` in tests/test_api.py names
the test that fails when the row moves across the value it separates.

Constants that guard against numerical breakdown rather than judge the
surface are deliberately not rows and stay beside their code: the
stencil weights and BLOCK_ROWS (grid), polar_reorthonormalize's 0.2 and
5e-16 (family), _transport_pair's 1e-8 and _seed_normal_basis's 0.3
(surface), the 1e-300 log clamp (topology), the CSV formatter's
constants (cli), and GOLDEN, QUARTER and CONGRUENCE_SAMPLES (monodromy).
"""

# inputs and options: outside these the run is refused with exit 2
UNIT_NORM_TOL = 1e-12  # max | |f| - 1 | of an ImmersionField; a manifest above it is renormalized
DRIFT_REJECT = 1e-6  # max | |f| - 1 | of a manifest, above which it is refused
NEAR_ZERO_NORM = 0.5  # least |f| of a manifest position, below which it is no sphere map
RESOLUTION_MIN = 32  # least --n of a catalog surface
RESOLUTION_MAX = 1024  # largest --n of a catalog surface
SCAN_MIN = 64  # least --scan, and least n_theta of scan_profile
# largest --scan: peak RSS grows by about 1 KB per angle (Clifford n=32: 122 MB at 65,536)
SCAN_MAX = 65536
# largest --perturb amplitude (the least is above 0), the sphere's radius: the bump
# moves points by several times it, and far above 1 their renormalization overflows
PERTURB_MAX = 1.0
# least n at which verify of each catalog surface passes with either jet source:
# frame_source_deviation (order 4) first falls below PATH_DEPENDENCE_TOL there
# (6.9e-5 at most; at half the floor 1.5e-4, 5.5e-4 and 1.1e-3, analytic jets)
VERIFY_FLOOR = {"clifford": 64, "geodesic-sphere": 64, "veronese": 128}

# bound of the two O(h^4) frame checks: verify's frame_source_deviation (1e-5
# to 7e-5 at the floors, 6e-2 under a 1e-3 perturbation) and deform's member
# metric deviation, refused with exit 3 above it (2.7e-5 Clifford n = 64, 3.7e-5
# Veronese n = 128; 2.1e-4 and 2.1e-2 under perturbations of 1e-5 and 1e-3)
PATH_DEPENDENCE_TOL = 1e-4
CONGRUENCE_TOL = 1e-3  # r(theta) of congruence_residual below which a member is congruent

# verify's items
NORM_DRIFT_TOL = 1e-9  # unit_norm_drift
MINIMALITY_TOL = 1e-5  # minimality_max, the largest |trace B|
RADIUS_PRODUCT_TOL = 1e-9  # ellipse_radius_product, |4 |hopf| - a+ a-|
H2_FACTOR = 5.0  # tolerance of the O(h^2) identities, H2_FACTOR h^2 for the spacing h
FLATNESS_TOL_FLOOR = 1e-9  # least tolerance of flatness_theta0
EULER_GAP_TOL = 0.02  # distance of chi_M and chi_N from the nearest integer
BALANCE_TOL = 0.05  # zero_balance_plus and zero_balance_minus

# monodromy's closing set
FLATNESS_CEILING = 1e-3  # flatness residual above which the scan refuses to classify, exit 3
CLOSE_FLOOR = 1e-6  # least closing tolerance
CLOSE_FACTOR = 10.0  # closing tolerance per unit of flatness and of d(0)
SPECTRAL_RTOL = 1e-3  # spectral tail, relative to d(0), at which sampling stops doubling
SPECTRAL_FLOOR = 1e-14  # spectral tail at which sampling stops doubling when d(0) is tiny
ROOT_WIDTH = 1e-8  # bracket width to which a closing angle is refined
ROOT_SNAP = 1e-7  # distance from 0 (mod pi/2) within which a closing class is exactly 0

# curvature ellipse and topology
VANISHING_RTOL = 1e-4  # radius floor per max(1, kappa_max): vanishing radii and circle points
ISOLATED_FRACTION = 0.05  # share of circle points below which they count as isolated
ZERO_CANDIDATE_FRACTION = 0.02  # |field| per its maximum below which a cell is a zero candidate
ISOTHERMAL_RTOL = 1e-8  # |E - G| and |F| per max E below which the chart is isothermal
EXCISION_FACTOR = 6.0  # excision half-width per grid spacing; clears the 5-node stencil reach
RICCI_FLOOR = 1e-6  # 1 - K above which the 3-sphere test is evaluated
ZERO_LIST_RTOL = 1e-13  # |field| per its maximum outside the excisions: "zero list incomplete"
LAPLACE_DOMAIN_FRACTION = 0.1  # radius per its maximum above which its Laplace identity is taken
