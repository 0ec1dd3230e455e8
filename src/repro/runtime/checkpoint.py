"""Checkpoint/resume support for long optimization runs.

A :class:`CheckpointManager` owns one directory of pickled optimizer states,
written atomically (temp file + rename) so a kill can never leave a corrupt
*latest* checkpoint behind.  Because every optimizer in this library carries
its own random generators, restoring a checkpoint and continuing reproduces
the uninterrupted run bit for bit.

Typical use::

    checkpoint = CheckpointManager("runs/photo", interval=25)
    solve(problem, "pmo2", config=config, seed=7, termination=500,
          checkpoint=checkpoint)
    # ... the process is killed at generation 310 ...
    solve(problem, "pmo2", config=config, seed=7, termination=500,
          checkpoint=checkpoint)
    # resumes from generation 300 and finishes the remaining 200 generations

Checkpointed state is NOT validated against the resuming run's configuration
or seed: use one directory per (experiment, parameters, seed) combination,
or the optimizer will silently adopt whatever state the directory holds.
The CLI enforces this by refusing ``run`` on a directory that already
contains checkpoints (and ``resume`` on one that contains none).
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Any

from repro.exceptions import CheckpointError, ConfigurationError

__all__ = ["CheckpointManager"]

_CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{8})\.pkl$")


class CheckpointManager:
    """Periodic, atomic serialization of optimizer state to one directory.

    Parameters
    ----------
    directory:
        Directory holding the checkpoints (created if missing).
    interval:
        Generations between checkpoints (used by :meth:`maybe_save`).
    keep:
        Number of most recent checkpoints retained; older ones are pruned.
    """

    def __init__(self, directory: str | os.PathLike, interval: int = 10, keep: int = 3) -> None:
        if interval <= 0:
            raise ConfigurationError("checkpoint interval must be positive")
        if keep < 1:
            raise ConfigurationError("must keep at least one checkpoint")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval = int(interval)
        self.keep = int(keep)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _path(self, generation: int) -> Path:
        return self.directory / ("checkpoint-%08d.pkl" % generation)

    def save(self, state: Any, generation: int) -> Path:
        """Write one checkpoint atomically and prune old ones."""
        if generation < 0:
            raise ConfigurationError("generation must be non-negative")
        payload = {"format_version": 1, "generation": int(generation), "state": state}
        target = self._path(generation)
        descriptor, temp_name = tempfile.mkstemp(
            prefix=".checkpoint-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                # On disk before the rename: a crash just after os.replace
                # must not leave a truncated "latest" checkpoint behind.
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, target)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        self.prune()
        return target

    def maybe_save(self, state: Any, generation: int) -> Path | None:
        """Save when ``generation`` falls on the checkpoint interval."""
        if generation > 0 and generation % self.interval == 0:
            return self.save(state, generation)
        return None

    def prune(self) -> None:
        """Delete all but the ``keep`` most recent checkpoints."""
        for path in self.checkpoints()[: -self.keep]:
            path.unlink(missing_ok=True)

    def clear(self) -> None:
        """Delete every checkpoint in the directory."""
        for path in self.checkpoints():
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def checkpoints(self) -> list[Path]:
        """Checkpoint files present, ordered oldest to newest."""
        found = [
            path
            for path in self.directory.iterdir()
            if _CHECKPOINT_PATTERN.match(path.name)
        ]
        return sorted(found)

    def latest(self) -> Path | None:
        """Path of the most recent checkpoint, ``None`` when there is none."""
        found = self.checkpoints()
        return found[-1] if found else None

    def load(self, path: str | os.PathLike | None = None) -> tuple[Any, int]:
        """Load one checkpoint and return ``(state, generation)``."""
        chosen = Path(path) if path is not None else self.latest()
        if chosen is None:
            raise CheckpointError("no checkpoint found in %s" % self.directory)
        try:
            with open(chosen, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError) as error:
            raise CheckpointError("cannot read checkpoint %s: %s" % (chosen, error)) from error
        if not isinstance(payload, dict) or "state" not in payload:
            raise CheckpointError("checkpoint %s has an unknown layout" % chosen)
        return payload["state"], int(payload.get("generation", 0))

    def load_latest(self) -> tuple[Any, int] | None:
        """Like :meth:`load` but returns ``None`` when the directory is empty."""
        if self.latest() is None:
            return None
        return self.load()

    def restore(self, target: Any) -> bool:
        """Roll ``target`` forward to the latest checkpointed state, if newer.

        The checkpointed state must be an object of the same shape as
        ``target`` (the optimizers checkpoint themselves); its ``__dict__``
        replaces the target's only when the checkpoint is *ahead* of the
        target's ``generation``, so live state is never rolled back.  Returns
        ``True`` when a restore happened.
        """
        restored = self.load_latest()
        if restored is None:
            return False
        state, generation = restored
        if generation <= getattr(target, "generation", 0):
            return False
        target.__dict__.update(state.__dict__)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CheckpointManager(%s, interval=%d, keep=%d)" % (
            self.directory,
            self.interval,
            self.keep,
        )
