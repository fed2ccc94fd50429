"""Exception types shared across the pipeline.

A refused input or artifact, the corpus included, raises a :class:`ValidationError` that names the file, as
``path:line:`` when a line is at fault; a refused config file raises a :class:`ConfigError` that names it, and
through the CLI so does a path that a stage refuses, such as one that does not exist, as the config file sets it.
"""

from __future__ import annotations

from pathlib import Path


class PipelineError(Exception):
    """Base class for all ddimine errors."""


class ValidationError(PipelineError, ValueError):
    """Input violates a documented precondition or invariant."""


class ConfigError(PipelineError):
    """Configuration invalid; carries every violation found, not just the first, and the config file's path when
    it was read from one."""

    def __init__(self, violations: list[str], path: Path | str | None = None):
        self.violations = list(violations)
        where = "" if path is None else f" in {path}"
        super().__init__(f"invalid configuration{where}:\n" + "\n".join(f"  - {v}" for v in self.violations))


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
