"""Exception types shared across surfcut.  Each carries the exit code
``surfcut`` returns for it as ``code``."""


class SurfcutError(Exception):
    """Base class for all surfcut errors: an input failure unless a subclass
    says otherwise."""

    code = 2


class GraphFormatError(SurfcutError):
    """Malformed graph file or inconsistent rotation system."""


class QueryInputError(SurfcutError):
    """Malformed query pair line or artifact, or a face the cut tree does not
    hold."""


class DisconnectedGraphError(SurfcutError):
    """Operation requires a connected graph."""


class SeparatingCutError(SurfcutError):
    """Cutting along a separating subgraph would disconnect the surface."""


class CurveShapeError(SurfcutError):
    """Edge set or curve system that surgery cannot cut along."""


class GenusLimitError(SurfcutError):
    """Input genus exceeds ``reduction.GENUS_MAX``."""

    code = 3


class CrossingCutsError(SurfcutError):
    """Minimum cuts from different trees cross; merging is undefined."""

    code = 4


class NoPathError(SurfcutError):
    """No boundary-to-boundary path exists in the requested homology class."""


class WorkerError(SurfcutError):
    """A forked collection or member-tree worker ended without sending back
    its result."""

    code = 5
