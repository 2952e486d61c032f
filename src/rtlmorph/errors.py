"""Exception taxonomy shared across the toolkit."""


class RtlmorphError(Exception):
    """Base class for all toolkit errors."""


# --- parsing -------------------------------------------------------------

class VerilogSyntaxError(RtlmorphError):
    def __init__(self, line, col, expected, found=None):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        what = f"expected {expected}"
        if found is not None:
            what += f", found {found!r}"
        super().__init__(f"{line}:{col}: {what}")


class UnsupportedConstruct(RtlmorphError):
    def __init__(self, construct, line=None, col=None):
        self.construct = construct
        self.line = line
        self.col = col
        loc = f"{line}:{col}: " if line is not None else ""
        super().__init__(f"{loc}unsupported construct: {construct}")


class ResolutionError(RtlmorphError):
    def __init__(self, identifier, line=None, col=None):
        self.identifier = identifier
        self.line = line
        self.col = col
        loc = f"{line}:{col}: " if line is not None else ""
        super().__init__(f"{loc}unresolved identifier: {identifier}")


# --- elaboration ---------------------------------------------------------

class WidthMismatch(RtlmorphError):
    pass


class CombinationalLoop(RtlmorphError):
    def __init__(self, signals):
        self.signals = tuple(signals)
        super().__init__(f"combinational cycle through: {', '.join(self.signals)}")


class MultipleDrivers(RtlmorphError):
    def __init__(self, signal):
        self.signal = signal
        super().__init__(f"signal has multiple drivers: {signal}")


# --- simulation ----------------------------------------------------------

class NoSuchModule(RtlmorphError):
    pass


# --- mutation ------------------------------------------------------------

class MutationError(RtlmorphError):
    """Base class for strategy-inapplicability errors."""


class NoEligibleSite(MutationError):
    pass


class NoProductTerm(MutationError):
    pass


class UnsupportedWidth(MutationError):
    pass


class TautologyCheckFailed(MutationError):
    pass


class NoEligibleBlock(MutationError):
    pass


class NoMuxFound(MutationError):
    pass


class FsmNotFound(MutationError):
    pass


class AmbiguousFsm(MutationError):
    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(f"multiple state register candidates: {', '.join(self.candidates)}")


class InsufficientTimerBudget(MutationError):
    pass


class NoTimerOnEdge(MutationError):
    pass


class PartitionMismatch(MutationError):
    pass


class NoTimer(MutationError):
    pass


class NoClockedChain(MutationError):
    pass


class CutNotFound(MutationError):
    pass


class NoSyncSite(MutationError):
    pass


class NoApplicableSite(MutationError):
    pass


# --- equivalence ---------------------------------------------------------

class PortMismatch(RtlmorphError):
    pass


class TooWide(RtlmorphError):
    pass


# --- metrics / harness ---------------------------------------------------

class UnparsableReport(RtlmorphError):
    pass


class MisalignedDesignSets(RtlmorphError):
    pass


class ManifestSchemaError(RtlmorphError):
    pass


class MissingFile(RtlmorphError):
    pass


class ToolNotFound(RtlmorphError):
    pass


class NonzeroExit(RtlmorphError):
    def __init__(self, returncode, log_excerpt):
        self.returncode = returncode
        self.log_excerpt = log_excerpt
        super().__init__(f"tool exited with {returncode}:\n{log_excerpt}")


class HttpError(RtlmorphError):
    pass


class NoCodeInResponse(RtlmorphError):
    pass


class AdapterTimeout(RtlmorphError):
    pass
