"""Exception types raised across the package."""


class HalfCakeError(Exception):
    """Base class for all errors raised by this package."""


class BadShape(HalfCakeError):
    """Antenna/rank arrays disagree with the declared user count."""


class RankExceedsDimension(HalfCakeError):
    """A cross-link rank constraint exceeds min(tx antennas, rx antennas)."""

    def __init__(self, j: int, i: int, value: int, cap: int):
        self.j, self.i, self.value, self.cap = j, i, value, cap
        super().__init__(
            f"rank constraint D[{j + 1}][{i + 1}] = {value} exceeds min antenna count {cap}"
        )


class SpecTooLarge(HalfCakeError):
    """A spec has more antennas on one side than ``channel_model.MAX_ANTENNAS``."""


class SearchTooLarge(HalfCakeError):
    """A plan search would need more than ``replication_bounds.MAX_FLOOR_ENTRIES`` floor entries."""


class NotSquareCase(HalfCakeError):
    """Operation requires per-user equal transmit and receive antennas (M == N)."""


class WrongK(HalfCakeError):
    """Operation is only defined for a specific user count."""


class NotSymmetric(HalfCakeError):
    """Operation requires symmetric cross ranks D[j][i] == D[i][j]."""


class ConditionFails(HalfCakeError):
    """A required inequality precondition does not hold."""


class CertificateInfeasible(HalfCakeError):
    """A reduced-rank certificate violates its sum or capacity constraints."""


class PlanViolatesDefinition1(HalfCakeError):
    """Replication plan breaks the replicated-network wiring constraints."""


class BadPartition(HalfCakeError):
    """Cooperation partition does not split the replicas into two disjoint covering groups."""


class NonUniformMu(HalfCakeError):
    """Sum-DoF outer bound requires a uniform replica count."""


class DimensionMismatch(HalfCakeError):
    """Scheme matrices disagree with the network dimensions or extension length."""


class NullSpaceEmpty(HalfCakeError):
    """A required null space is empty for this realization."""


class DegenerateDesiredDifference(HalfCakeError):
    """Slot difference of a desired channel is rank deficient; resample upstream."""


class UnknownTarget(HalfCakeError):
    """Unrecognized reproduction target name."""


class InvalidArgument(HalfCakeError, ValueError):
    """An argument lies outside its valid range or set of choices."""
