"""Exception types shared across the package."""


class SemimodularError(Exception):
    """Base class for all package-specific errors."""


class IndexCapExceeded(SemimodularError):
    """Sequence index beyond the memory-guard cap."""


class PoleProximity(SemimodularError):
    """Evaluation point too close to a pole or an accumulation point."""


class ToleranceUnreachable(SemimodularError):
    """Window cap hit before the tail bounds met the requested tolerance."""


class UncertifiedOnly(SemimodularError):
    """Caller required a certified recursion (b = -1, a != 0), and this is another."""


class MobiusPole(SemimodularError):
    """Moebius transform undefined: the denominator vanishes at this point."""


class InvalidPairing(SemimodularError):
    """Mirror parameter does not match the sequence's recursion coefficient."""


class OddWeight(SemimodularError):
    """Identity checks are only defined for even weights."""
