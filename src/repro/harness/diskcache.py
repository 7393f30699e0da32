"""Persistent on-disk cache for experiment results.

Every ``run_app`` configuration is deterministic, so its :class:`RunResult`
can be cached across processes and across pytest/CLI invocations.  Entries
live under ``.repro_cache/`` at the repository root (override with
``REPRO_CACHE_DIR``), keyed by

* a **canonical hash** of the full run configuration (stable across dict
  ordering and nested override values), and
* a **source fingerprint** of every ``.py`` file in ``src/repro/`` — any
  simulator change invalidates all prior results automatically.

``REPRO_CACHE=off`` (or ``0``/``no``/``false``) bypasses the cache entirely;
``python -m repro.harness clear`` wipes it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

logger = logging.getLogger(__name__)

from ..stats.report import RunResult

__all__ = [
    "canonical_json", "canonical_key", "source_fingerprint",
    "cache_enabled", "cache_root", "DiskCache", "default_cache",
]

from . import envopts


def _jsonable(value: Any) -> Any:
    """Fallback encoder for canonical hashing of non-JSON config values."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if hasattr(value, "__dict__"):
        return {"__type__": type(value).__qualname__, **vars(value)}
    return {"__repr__": repr(value)}


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for ``obj``: sorted keys, compact separators,
    tuples/sets normalized.  Equal configurations (however their dicts were
    built) produce identical text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def canonical_key(obj: Any) -> str:
    """Stable hex digest of an arbitrary (possibly nested, possibly
    unhashable) configuration object.  Shared by the in-process memo table
    and the on-disk cache."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _result_checksum(result_dict: Any) -> str:
    """Integrity digest stored alongside each cache entry's result."""
    return hashlib.sha256(
        canonical_json(result_dict).encode("utf-8")).hexdigest()


# -- source fingerprint ----------------------------------------------------------------

_fingerprint: Optional[str] = None


def source_fingerprint(refresh: bool = False) -> str:
    """Content hash over every ``.py`` file of the ``repro`` package.

    Computed once per process; any edit to the simulator produces a new
    fingerprint, so stale cached results can never be served.
    """
    global _fingerprint
    if _fingerprint is None or refresh:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint


# -- cache location and policy ---------------------------------------------------------


def cache_enabled() -> bool:
    return envopts.cache_enabled()


def cache_root() -> Path:
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    # src/repro/harness/diskcache.py -> repository root is three levels up
    # from the package directory; fall back to the CWD for installed trees.
    repo_root = Path(__file__).resolve().parents[3]
    if not (repo_root / "src").is_dir():
        repo_root = Path.cwd()
    return repo_root / ".repro_cache"


class DiskCache:
    """Filesystem-backed map from run configuration to :class:`RunResult`."""

    def __init__(self, root: Optional[Path] = None):
        self._root = Path(root) if root is not None else None

    @property
    def root(self) -> Path:
        return self._root if self._root is not None else cache_root()

    def entry_path(self, spec: Dict[str, Any]) -> Path:
        return (self.root / source_fingerprint()[:16]
                / f"{canonical_key(spec)}.json")

    def load(self, spec: Dict[str, Any]) -> Optional[RunResult]:
        """Return the cached result for ``spec``, or None on miss/disabled.

        A present-but-unusable entry (truncated write, bit rot detected by
        the checksum, schema drift) is *evicted* — logged and unlinked — so
        the slot is rewritten by the live run that follows instead of
        producing the same parse failure on every load."""
        if not cache_enabled():
            return None
        path = self.entry_path(spec)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None   # plain miss
        except OSError:
            return None   # unreadable (permissions, I/O error): miss, keep it
        try:
            payload = json.loads(text)
            result_dict = payload["result"]
            checksum = payload.get("checksum")
            if checksum is not None and checksum != _result_checksum(result_dict):
                raise ValueError("checksum mismatch (corrupt or tampered entry)")
            # Keys beside the result (older entries carry an ``extras``
            # block) are ignored.
            return RunResult.from_dict(result_dict)
        except (ValueError, KeyError, TypeError) as error:
            self._evict(path, error)
            return None

    @staticmethod
    def _evict(path: Path, error: Exception) -> None:
        logger.warning("evicting corrupt cache entry %s: %s", path, error)
        try:
            path.unlink()
        except OSError:
            pass   # a concurrent reader may have evicted it first

    def store(self, spec: Dict[str, Any], result: RunResult) -> Optional[Path]:
        """Persist ``result`` for ``spec``; atomic against concurrent writers."""
        if not cache_enabled():
            return None
        path = self.entry_path(spec)
        result_dict = result.to_dict()
        payload = canonical_json({
            "fingerprint": source_fingerprint(),
            "spec": spec,
            "result": result_dict,
            # Integrity check over the result alone: a torn or bit-rotted
            # entry is detected (and evicted) on load rather than served.
            "checksum": _result_checksum(result_dict),
        })
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=path.stem, suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)  # atomic: farm workers may race here
        except OSError:
            return None
        return path

    def clear(self) -> int:
        """Delete the cache directory; returns how many entries were dropped."""
        root = self.root
        count = sum(1 for _ in root.rglob("*.json")) if root.is_dir() else 0
        shutil.rmtree(root, ignore_errors=True)
        return count

    def size(self) -> int:
        root = self.root
        return sum(1 for _ in root.rglob("*.json")) if root.is_dir() else 0


#: Process-wide cache instance used by ``experiments.run_app``.
default_cache = DiskCache()
