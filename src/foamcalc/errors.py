"""Error taxonomy shared by every module.

Each error carries a stable machine-readable ``code`` used by the CLI.
"""

from __future__ import annotations


class FoamError(Exception):
    """Base class for all domain errors."""

    code = "error"


class BasisMismatch(FoamError):
    """Two values built over different generator bases were combined."""

    code = "basis-mismatch"


class PrecisionExhausted(FoamError):
    """A sign or comparison could not be decided at the declared precision."""

    code = "precision-exhausted"


class TotalMismatch(FoamError):
    """Composition of interval exchanges with different total lengths."""

    code = "total-mismatch"


class OutOfDomain(FoamError):
    """A point outside [0, total) was fed to an interval exchange."""

    code = "out-of-domain"


class OpenDiagram(FoamError):
    """An operation that needs a closed diagram received an open one."""

    code = "open-diagram"


class UnsupportedDecoration(FoamError):
    """Dots or labels are present where the operation forbids them."""

    code = "unsupported-decoration"


class SchemaMismatch(FoamError):
    """A move schema does not apply at the stated location."""

    code = "schema-mismatch"


class FlippedIet(FoamError):
    """SAF-type operations refuse interval exchanges with flipped pieces."""

    code = "flipped-iet"


class NonPositiveWeight(FoamError):
    """An operation requiring positive weights met a non-positive one."""

    code = "non-positive-weight"


class FoamSyntaxError(FoamError):
    """Input text failed to tokenize or parse. Carries line/column."""

    code = "syntax"

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DslSemanticError(FoamError):
    """Well-formed text with an invalid meaning (bad perm, unknown name...)."""

    code = "semantic"


class InternalError(FoamError):
    """A postcondition of the library itself failed: a bug, not bad input."""

    code = "internal"
