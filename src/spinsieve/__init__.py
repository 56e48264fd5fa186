"""spinsieve: exact arithmetic and desk-scale experiments for the machinery
behind prime values of a^2 + b^4.

Modules
-------
arith        exact integer arithmetic, symbols, modular square roots
gaussian     Z[i]: primary normalization, factorization, two squares
symbols      Dirichlet symbol, Jacobi-Kubota symbol, spins, multiplier rule
congruences  root counting, N(a; q), G(h1, h2), G0 closed form
sieve        a_n = #{a^2 + c^4 = n}, A_d, M_d, g, h, remainder scans
lattice      biquadratic-ellipse counts C, C0 and the elliptic integral E
eigen        quadratic eigenvalues, spin sums, prime-weighted sums
decomp       separation-divisor and Vaughan identities
identities   identity suites shared by the CLI and the acceptance gate
cli          `spinsieve` command: experiments with CSV/JSON reports

numpy's bundled OpenBLAS starts a worker thread at import, which burned
about 0.06 s of CPU in each process on 2 vCPUs.  No spinsieve code uses
threaded BLAS, so the package asks for one BLAS thread before numpy is
first imported.  A value of OPENBLAS_NUM_THREADS set in the environment
wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import (
    Factorization,
    chi4,
    divisor_witness,
    euler_phi,
    factorize,
    hilbert_infinity,
    is_prime,
    jacobi,
    jacobi_extended,
    mobius,
    sqrt_mod,
    tau,
    tau_k,
    von_mangoldt,
)
from .gaussian import (
    GaussianInt,
    delta,
    gaussian_factorize,
    ggcd,
    is_primary,
    is_primitive,
    primary_associate,
    rational_residue,
    two_squares,
)
from .symbols import (
    dirichlet_symbol,
    dirichlet_symbol_via_root,
    epsilon_factor,
    jacobi_kubota,
    primary_gcd_cofactor,
    spin,
)

__version__ = "0.1.0"
