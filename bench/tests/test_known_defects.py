"""Reproducers of the two koopstab defects that hold back the edmd_certify workload.

Both are marked ``xfail(strict=True)``: while the defect is present the
test is reported as an expected failure; once koopstab is fixed the test
passes, strict mode turns that into a failure, and the marker should be
removed. When both are fixed, edmd_certify (README.md, "Held workload")
can be added to the benchmark.
"""

import numpy as np
import pytest

from koopstab import data, edmd, projection, stability
from koopstab.errors import NumericError


def _projected_fit(stroke_seed: int, dictionary: str, mode: str = "symmetric"):
    strokes = data.normalize(data.synth_handwriting_like(n_traj=8, noise=0.5, seed=stroke_seed,
                                                         n_val=2))
    K = edmd.edmd_fit(edmd.lift_dataset([t.states for t in strokes.train], dictionary))
    return projection.pgd_project(K, np.zeros_like(K), 1.0, mode)


@pytest.mark.xfail(strict=True, raises=NumericError,
                   reason="asymmetric pgd_project misses its barrier target by more than "
                          "its 1e-12 nudges can repair when rows are ~1e6 to 1e8")
@pytest.mark.parametrize("stroke_seed, dictionary", [(31, "monomials:9"), (1, "monomials:19")])
def test_asymmetric_projection_of_large_edmd_fits(stroke_seed, dictionary):
    projected = _projected_fit(stroke_seed, dictionary, "asymmetric")
    assert stability.barrier_values(projected).rows("asymmetric").min() >= 0.0


@pytest.mark.xfail(strict=True,
                   reason="above d=64 spectral_radius uses ARPACK, whose result on these "
                          "certified matrices varies from call to call and which "
                          "sometimes raises ArpackError 3 (NumericError)")
def test_arpack_spectral_radius_is_repeatable_at_d209():
    rng = np.random.default_rng(1)
    matrices = [_projected_fit(int(s), "monomials:19")
                for s in rng.integers(0, 2**31 - 1, size=16)]
    for P in matrices:
        radii = {stability.spectral_radius(P) for _ in range(20)}
        assert len(radii) == 1
