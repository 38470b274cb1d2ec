"""Exception types shared across the package."""

from __future__ import annotations


class FyinvError(Exception):
    """Base class for all package-specific failures."""


class UnreachableError(FyinvError):
    """No directed path exists from the source to the sink."""


class NonConvergenceError(FyinvError):
    """Frank-Wolfe spent its iteration budget (solvers._FW_MAX_ITERS) with the
    duality gap still above gap_tol; carries the final gap and that budget."""

    def __init__(self, final_gap: float, max_iters: int):
        self.final_gap = float(final_gap)
        self.max_iters = int(max_iters)
        super().__init__(
            f"duality gap {self.final_gap:.3e} above tolerance after {self.max_iters} iterations"
        )


class DivergedError(FyinvError):
    """A fit diverged: parameter norm above 1e6, or a non-finite risk."""


class UnsupportedRegionError(FyinvError):
    """The requested operation has no implementation for this feasible region."""


class DegenerateKernelError(FyinvError):
    """All kernel weights underflowed to zero for some evaluation point."""


class ParseError(FyinvError):
    """A data file violated its schema.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
