"""ZDT1 benchmark problem used to validate the optimizers."""

from dataclasses import dataclass

import numpy as np

from crosshinge import moo


@dataclass(frozen=True)
class ZDT1:
    """Convex-front benchmark: optimum at x_i = 0 for i >= 2."""

    n_var: int = 30

    @property
    def lower(self) -> np.ndarray:
        return np.zeros(self.n_var)

    @property
    def upper(self) -> np.ndarray:
        return np.ones(self.n_var)

    def __call__(self, x: np.ndarray) -> moo.Evaluation:
        f1 = float(x[0])
        g = 1.0 + 9.0 * float(np.sum(x[1:])) / (self.n_var - 1)
        f2 = g * (1.0 - np.sqrt(f1 / g))
        return moo.Evaluation(y=np.array([f1, f2]), feasible=True)


@dataclass(frozen=True)
class BandedZDT1(ZDT1):
    """ZDT1 with an infeasible band on the last variable; the violation is
    the distance to the nearer band edge."""

    band: tuple[float, float] = (0.55, 0.85)

    def __call__(self, x: np.ndarray) -> moo.Evaluation:
        lo, hi = self.band
        if lo < x[-1] < hi:
            return moo.Evaluation(y=None, feasible=False,
                                  violation=float(min(x[-1] - lo, hi - x[-1])))
        return super().__call__(x)


def generational_distance(archive, n_front: int = 2001) -> float:
    """Mean distance from archive points to the analytic ZDT1 front."""
    f1 = np.linspace(0.0, 1.0, n_front)
    front = np.stack([f1, 1.0 - np.sqrt(f1)], axis=1)
    ys = archive.objectives
    dists = np.sqrt(((ys[:, None, :] - front[None, :, :]) ** 2).sum(axis=2))
    return float(dists.min(axis=1).mean())
