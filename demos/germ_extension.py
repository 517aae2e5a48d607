"""Extend a local fibration germ to a global skew fibration.

Any germ that is nondegenerate at the origin extends: the construction
blends the germ into its own linearization outside a ball whose radius
is found by a sampled nondegeneracy search.  The extension changes
nothing on the inner half of the blend zone, bit for bit.
"""

import numpy as np

from skewfib.fibration import builtin_chart, extend_germ, fiber_solve, verify_nondegenerate, verify_skew


def main():
    germ = builtin_chart("quad_germ", eps=0.05)
    print(f"germ: quadratic perturbation on a ball of radius {germ.domain_radius}")

    ext = extend_germ(germ)
    r = ext.params["blend_r"]
    print(f"extension found with blend radius {r:.4f}")

    rng = np.random.default_rng(12)
    inner = rng.standard_normal((50, 2))
    inner *= (0.5 * r * rng.uniform(size=50) / np.linalg.norm(inner, axis=1))[:, None]
    assert all(np.array_equal(ext.B(y), germ.B(y)) for y in inner)
    print("bitwise equal to the germ on 50 points with |y| <= blend_r / 2")

    nd = verify_nondegenerate(ext, radius=100.0, samples=4096)
    sk = verify_skew(ext, radius=100.0, samples=4096)
    print(f"nondegenerate at radius 100: {nd.verdict}, margin {nd.margin:.4f}")
    print(f"pairwise skew at radius 100: {sk.verdict}, margin {sk.margin:.4f}")

    x = np.array([3.0, -40.0, 25.0])
    y = fiber_solve(ext, x)
    print(f"fiber through {x}: chart point {np.round(y, 6)}")


if __name__ == "__main__":
    main()
