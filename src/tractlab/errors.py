"""Exception hierarchy shared by all tractlab modules."""


class TractlabError(Exception):
    """Base class for all tractlab-specific errors."""


class DomainError(TractlabError):
    """A point lies outside the domain of definition of a map."""


class RangeError(TractlabError, ValueError):
    """A numeric argument violates a range precondition."""


class SearchFailed(TractlabError):
    """A parameter search exhausted its range without certifying the goal."""


class NewtonDiverged(TractlabError):
    """Newton continuation failed to converge to an inverse-branch value."""


class ContinuationError(TractlabError):
    """A semiconj level's closed-form preimage is not certified to be the
    continuous lift: the curve it lifts may come near the asymptotic value."""


class AddressUndefined(TractlabError):
    """The orbit leaves the domain before the requested itinerary depth."""


class AddressMismatch(TractlabError):
    """Two points were assumed to share an itinerary but do not."""


class PullbackLeftDomain(TractlabError):
    """An intermediate backward iterate exited the target half-plane."""


class PreconditionError(TractlabError):
    """A documented operation precondition does not hold."""


class OrbitLeftJQ(TractlabError):
    """A finite-horizon membership certificate failed along the orbit."""


class DepthExceeded(TractlabError):
    """The pullback tower hit its depth cap before reaching tolerance."""


class SetupInvalid(TractlabError):
    """A hyperbolic-map setup failed one of its validation checks."""


class HorizonError(TractlabError):
    """A point fails the finite-horizon domain check needed for a tower."""


class CertificateFailed(TractlabError):
    """An expansion certificate could not establish its claimed bound."""


class CertificateMissing(TractlabError):
    """An operation requires a certified constant that was not supplied."""


class ConfigError(TractlabError):
    """A run configuration is invalid; the message names the failing field."""
