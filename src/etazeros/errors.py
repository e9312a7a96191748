"""The failure base class of the numerical routes.

It lives in a module of its own, free of numpy, so the CLI can catch every
non-convergence (exit status 2) without loading the layers that raise it.
"""

__all__ = ["NonConvergenceError"]


class NonConvergenceError(RuntimeError):
    """A numerical route did not reach its requested tolerance."""
