"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2; every other
FragreelError (DataError and the rest) and every OSError -> 3. Any other
exception is a programming error and propagates.
"""


class FragreelError(Exception):
    """Base class for all package errors."""


class ConfigError(FragreelError):
    """Invalid or inconsistent run configuration."""


class DataError(FragreelError):
    """Problem with user-supplied data (files, annotations, sessions)."""


class MalformedJson(DataError):
    """Input is not valid JSON or lacks the expected structure."""


class UnknownLabel(DataError):
    """An annotation label is not recognised for the given game."""

    def __init__(self, label: str, game: str):
        super().__init__(f"label {label!r} is not valid for game {game!r}")
        self.label = label
        self.game = game


class NegativeInterval(DataError):
    """An annotated interval has end < start or negative start."""


class DurationTooShort(DataError):
    """A video is shorter than one second and cannot host a clip."""


class DataResolutionError(DataError):
    """A manifest entry could not be resolved to frames on disk."""


class EmptyClip(DataError):
    """A raw clip contains no frames."""


class ZeroDimension(DataError):
    """A frame or resize target has a zero-sized dimension."""


class NoBackgroundEvents(FragreelError):
    """No eligible gap exists in the requested file."""


class TooLong(DataError):
    """Text does not fit in the tokenizer's fixed context length."""


class EmptyPromptSet(FragreelError):
    """Classification requested with zero prompts."""


class ShapeMismatch(FragreelError):
    """Tensor shapes are inconsistent with the model configuration."""


class NonFiniteInput(FragreelError):
    """An input tensor contains NaN or infinity."""


class NonFiniteActivation(FragreelError):
    """A forward pass produced NaN or infinity."""


class NonFiniteGradient(FragreelError):
    """A backward pass produced NaN or infinity."""


class EmptyInput(FragreelError):
    """A metric was requested over zero records."""


class SingleClass(FragreelError):
    """Pairwise AUC needs at least two classes present."""
