"""Exception hierarchy with stable machine-readable codes for the CLI."""


class QarError(Exception):
    """Base class; `code` is the CLI exit status, `code_name` the JSON field."""

    code = 1
    code_name = "error"


class ValidationError(QarError):
    """Model construction or input violates a documented invariant."""

    code = 2
    code_name = "validation"


class NoiseNotApplicableError(QarError):
    """Truncated noise formula requires s-independent a_{N-1}, a_{N-2}."""

    code = 3
    code_name = "noise-formula-inapplicable"


class TopologyError(QarError):
    """Operation requires a specific coupling topology the model lacks."""

    code = 4
    code_name = "topology"


class ContinuationError(QarError):
    """Newton solve for the Perron root G(s) did not converge, or ``cgf`` refused a target
    whose L(s) or characteristic polynomial leaves the double range."""

    code = 5
    code_name = "continuation"


class ConsistencyError(QarError):
    """The certificate cannot be trusted: a_{N-1}(0) is not positive and finite, or the rate
    products of a trace or of ``decompose`` leave double range (overflow, or underflow below
    2^-1022, where their rounding may exceed u)."""

    code = 6
    code_name = "internal-consistency"


class CopUndefinedError(QarError):
    """COP requested outside the cooling window."""

    code = 7
    code_name = "cop-undefined"
