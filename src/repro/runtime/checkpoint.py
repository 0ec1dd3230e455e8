"""Checkpoint/resume support for long optimization runs.

A :class:`CheckpointManager` owns one directory of pickled optimizer states,
written atomically (temp file + rename) so a kill can never leave a corrupt
*latest* checkpoint behind.  Because every optimizer in this library carries
its own random generators, restoring a checkpoint and continuing reproduces
the uninterrupted run bit for bit.  Each file is a fixed header — a magic
string and a blake2b digest of the pickle — followed by the pickle, and the
digest is checked before anything is unpickled.  A restore resumes from the
newest *readable* checkpoint: one whose digest does not match or that cannot
be unpickled (truncated by a disk fault, a flipped bit or a partial copy,
say) is skipped for the one before it.  The digest guards against
corruption, not against a hostile file: only restore checkpoints this
library wrote.

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

import hashlib
import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Any

from repro.exceptions import CheckpointError, ConfigurationError

__all__ = ["CheckpointManager", "list_checkpoints"]

_CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{8})\.pkl$")

#: Layout of the pickled payload; bumped whenever a checkpointed class
#: changes what it pickles, so an older checkpoint is refused, not misread.
#: Version 3: a ``Population`` pickles its arrays, not a list of individuals.
#: Version 4: MOEA/D pickles its incumbents as one ``Population``.
#: Version 5: a ``Problem`` pickles its box arrays, not a ``DesignSpace``.
#: Version 6: a ``Problem`` pickles its constraint count ``n_con``.
#: Version 7: a ``Population`` and the evaluator cache hold no ``info``.
#: Version 8: the file starts with a magic string and a blake2b digest of the
#: pickle, and a ``PersistentCachedEvaluator`` pickles its L1 as store keys.
#: Version 9: the PMO2 archipelago pickles its NSGA-II islands directly.
_FORMAT_VERSION = 9

#: First bytes of every checkpoint file, followed by the pickle's digest.
_MAGIC = b"repro-checkpoint\n"
_DIGEST_SIZE = 32


def _header(data: bytes) -> bytes:
    """The fixed header written in front of the pickle ``data``."""
    return _MAGIC + hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


class _Unreadable(CheckpointError):
    """A checkpoint file that cannot be read or unpickled."""


def list_checkpoints(directory: str | os.PathLike) -> list[tuple[int, Path]]:
    """``(generation, path)`` of every checkpoint in ``directory``, oldest first.

    The one reader of checkpoint file names: only the names
    :meth:`CheckpointManager.save` writes (``checkpoint-<8 digits>.pkl``)
    count, so every caller agrees with what a restore would load.  Nothing
    is created or unpickled; a missing directory holds no checkpoints.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        match = _CHECKPOINT_PATTERN.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


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
        """Write one checkpoint (header, then pickle) atomically and prune old ones."""
        if generation < 0:
            raise ConfigurationError("generation must be non-negative")
        payload = {
            "format_version": _FORMAT_VERSION,
            "generation": int(generation),
            "state": state,
        }
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        target = self._path(generation)
        descriptor, temp_name = tempfile.mkstemp(
            prefix=".checkpoint-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(_header(data))
                handle.write(data)
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

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def checkpoints(self) -> list[Path]:
        """Checkpoint files present, ordered oldest to newest."""
        return [path for _, path in list_checkpoints(self.directory)]

    def latest(self) -> Path | None:
        """Path of the most recent checkpoint, ``None`` when there is none."""
        found = self.checkpoints()
        return found[-1] if found else None

    def load(self, path: str | os.PathLike | None = None) -> tuple[Any, int]:
        """Load one checkpoint and return ``(state, generation)``.

        Raises
        ------
        CheckpointError
            If there is no checkpoint, the file cannot be read, fails its
            digest (truncated or damaged; also a file without the header,
            which a release before format 8 wrote) or cannot be unpickled
            (naming a class that no longer exists), or it was written by a
            release with another checkpoint layout.
        """
        chosen = Path(path) if path is not None else self.latest()
        if chosen is None:
            raise CheckpointError("no checkpoint found in %s" % self.directory)
        payload = self._read(chosen)
        if not isinstance(payload, dict) or "state" not in payload:
            raise CheckpointError("checkpoint %s has an unknown layout" % chosen)
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                "checkpoint %s has format version %r, expected %d; it was written "
                "by another release and cannot be resumed"
                % (chosen, version, _FORMAT_VERSION)
            )
        return payload["state"], int(payload.get("generation", 0))

    @staticmethod
    def _read(path: Path) -> Any:
        try:
            with open(path, "rb") as handle:
                header = handle.read(len(_MAGIC) + _DIGEST_SIZE)
                data = handle.read()
            if not header.startswith(_MAGIC):
                raise _Unreadable(
                    "cannot read checkpoint %s: it has no checkpoint header "
                    "(a release before format 8 wrote it, or it is not a checkpoint)"
                    % path
                )
            if header != _header(data):
                raise _Unreadable(
                    "cannot read checkpoint %s: its digest does not match its "
                    "contents (the file is truncated or damaged)" % path
                )
            return pickle.loads(data)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError) as error:
            raise _Unreadable("cannot read checkpoint %s: %s" % (path, error)) from error

    def load_latest(self) -> tuple[Any, int] | None:
        """Load the newest readable checkpoint; ``None`` when there is none.

        A checkpoint that cannot be read, fails its digest or cannot be
        unpickled (truncated or bit-flipped, say) is skipped in favour of
        the next older one, so a run resumes from the newest checkpoint that
        survived.  A readable checkpoint of another format version still
        raises.

        Raises
        ------
        CheckpointError
            If checkpoints exist but none is readable (the newest one's
            error), or the newest readable one has another format version.
        """
        newest_error = None
        for path in reversed(self.checkpoints()):
            try:
                return self.load(path)
            except _Unreadable as error:
                newest_error = newest_error or error
        if newest_error is not None:
            raise newest_error
        return None

    def restore(self, target: Any) -> bool:
        """Roll ``target`` forward to the newest readable checkpoint, if newer.

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
