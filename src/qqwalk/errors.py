"""Exception types shared across the package."""


class QQWalkError(Exception):
    """Base class for all package-specific errors."""


class NotUnitaryError(QQWalkError):
    """A coin matrix violates one of the 2x2 unitarity relations.

    `relation` names the failed relation, `residual` is its magnitude.
    """

    def __init__(self, relation: str, residual: float):
        self.relation = relation
        self.residual = residual
        super().__init__(f"coin is not unitary: {relation} residual {residual:.3e}")


class NotNormalizedError(QQWalkError):
    """An initial spinor does not satisfy |alpha|^2 + |beta|^2 = 1."""


class NormDriftError(QQWalkError):
    """The total probability of an evolved state is not 1 within tolerance.

    `drift` is |sum of probabilities - 1|, `steps` the length of the walk.
    """

    def __init__(self, drift: float, steps: int):
        self.drift = drift
        self.steps = steps
        super().__init__(f"total probability drifted by {drift:.3e} "
                         f"after {steps} steps")


class DomainError(QQWalkError):
    """Inputs are outside the domain of validity of a closed form."""


class DegenerateError(QQWalkError):
    """Two eigenvalues coincide at this momentum; the node must be excluded."""

    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(f"degenerate spectrum at theta={theta!r}")


class DegenerateABError(QQWalkError):
    """The eigenvector construction breaks down (A*B vanishes) at this node."""
