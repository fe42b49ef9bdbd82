"""Exception types shared across the package."""


class VertexAlgError(Exception):
    """Base class for all package errors."""


class NonScalarDivisor(VertexAlgError):
    """`scalar.constant_value` of a scalar that holds a parameter."""


class NonlinearCondition(VertexAlgError):
    """An equation handed to the linear solver is not affine in the unknowns."""


class VariableMismatch(VertexAlgError):
    """Two ring elements live over different variable lists."""


class ChartMismatch(VertexAlgError):
    """Two algebroid elements live on different charts."""


class WeightBoundExceeded(VertexAlgError):
    """A product would produce conformal weight above the session bound."""


class RuleOracleDivergence(VertexAlgError):
    """A cached closed-form product rule disagrees with the free-field engine."""


class InhomogeneousInput(VertexAlgError):
    """An operation requiring a homogeneous element received a mixed one."""


class InvalidInput(VertexAlgError, ValueError):
    """An argument lies outside the range the operation is defined on."""
