"""Exception hierarchy shared across the package."""


class DaxKernelError(Exception):
    """Base class for all errors raised by dax-kernel."""


class GroupParseError(DaxKernelError):
    """Syntax error in a presentation, word or ring-element literal.

    Carries the offset of the offending character in ``position``.
    """

    def __init__(self, message, text, position):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.text = text
        self.position = position


class UnsupportedClassError(DaxKernelError):
    """Presentation describes a group class without a decidable normal form."""


class UnknownGeneratorError(DaxKernelError):
    """A word refers to a generator the group spec does not declare."""


class SpecMismatchError(DaxKernelError):
    """Operands belong to different group specs."""


class PairingDataError(DaxKernelError):
    """Stored pairing rows are inconsistent with the group's relations."""


class ModeError(DaxKernelError):
    """Operation called in the wrong scene mode (arcs vs circles)."""


class UsageError(DaxKernelError):
    """Command-line flags that contradict each other or that the command
    would ignore.  CLI exit code 2, printed as a usage error."""


class SceneError(DaxKernelError):
    """Invalid or inconsistent scene data.  CLI exit code 2."""


class WindowOverflowError(DaxKernelError):
    """A relation or value cannot be supported on the generator window, or
    the window's ball exceeds its element cap.

    CLI exit code 3.
    """


class BallOverflowError(WindowOverflowError):
    """The window's ball exceeds its element cap.

    CLI exit code 3, like every window overflow; a default ``target`` sweep
    instead stops before the first such window and reports where.
    """
