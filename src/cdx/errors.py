"""Exception hierarchy.

Every error carries a stable ``code`` string; the command line maps a few
of them to specific exit statuses.
"""


class CdxError(Exception):
    code = "ERROR"


class InvalidAlphabet(CdxError):
    code = "INVALID_ALPHABET"


class NoCdForm(CdxError):
    code = "NO_CD_FORM"


class NotCdEquivalent(CdxError):
    code = "NOT_CD_EQUIVALENT"


class NegativeFlag(CdxError):
    code = "NEGATIVE_FLAG"


class InvalidParams(CdxError):
    code = "INVALID_PARAMS"


class DegreeMismatch(CdxError):
    code = "DEGREE_MISMATCH"


class NotAMatroid(CdxError):
    code = "NOT_A_MATROID"


class EmptyMatroid(CdxError):
    code = "EMPTY_MATROID"


class PresentationMismatch(CdxError):
    code = "PRESENTATION_MISMATCH"


class NotSplit(CdxError):
    code = "NOT_SPLIT"


class NotConnected(CdxError):
    code = "NOT_CONNECTED"


class NotSparsePaving(CdxError):
    code = "NOT_SPARSE_PAVING"


class UnsupportedMatroid(CdxError):
    code = "UNSUPPORTED_MATROID"


class ScaleExceeded(CdxError):
    code = "SCALE_EXCEEDED"


class InternalError(CdxError):
    code = "INTERNAL_ERROR"


class CacheVersionMismatch(CdxError):
    code = "CACHE_VERSION_MISMATCH"
