"""The failure classes of the numerical routes.

They live in a module of their own, free of numpy, so the CLI can catch
every non-convergence (exit status 2) and every zero that could not be
proven (exit status 1) without loading the layers that raise them.
"""

__all__ = ["NonConvergenceError", "ZeroRefinementError"]


class NonConvergenceError(RuntimeError):
    """A numerical route did not reach its requested tolerance."""


class ZeroRefinementError(RuntimeError):
    """Refinement found no bracket that proves a zero; carries the best
    point found."""

    def __init__(self, message: str, b_best: float):
        super().__init__(message)
        self.b_best = b_best
