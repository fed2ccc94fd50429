"""Exception types shared across the pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all ddimine errors."""


class ValidationError(PipelineError, ValueError):
    """Input violates a documented precondition or invariant."""


class CorpusParseError(PipelineError):
    """A corpus document is structurally invalid.

    ``byte_offset`` locates the failure in the input byte stream when known.
    """

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class ConfigError(PipelineError):
    """Configuration invalid; carries every violation found, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


class MissingArtifactError(PipelineError):
    """A stage prerequisite artifact is absent."""

    def __init__(self, artifact: str, producing_stage: str):
        self.artifact = artifact
        self.producing_stage = producing_stage
        super().__init__(
            f"missing artifact {artifact!r}; run the {producing_stage!r} stage first"
        )


class ArtifactMismatchError(PipelineError):
    """An artifact on disk is stale: its digest is not the one its producer would write now."""
