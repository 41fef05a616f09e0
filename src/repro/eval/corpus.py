"""The evaluation battery's one content-addressed artifact store, and the
per-run retention of every generated trace.

The store keeps one kind of artifact between runs: the result of every
work unit (``repro.eval.parallel``), as ``<key>.pkl`` in one flat
directory, ``cache_dir``.  Every key comes from :func:`artifact_key`: a
hash of the artifact kind, its *named* fields and :func:`source_digest`,
a digest of every ``repro/**/*.py`` file.  Any source edit therefore
invalidates every entry: a stored result is never stale relative to the
code that produced it.  Writes are atomic (temp file + rename); an entry
that exists but cannot be read is a miss to be recomputed, counted in
:attr:`CacheStats.unreadable`, never a crash.

Traces -- the benign warmup, the labeled accuracy scenario and one load
trace per probe rate, the paper's "canned data with known attack
content" -- are never stored: each is rebuilt exactly from the seed.
Each battery call instead opens retention scopes (:func:`serving`): a
fresh ``(kind, token)`` memo, so every distinct trace is built once per
scope and dropped when the scope ends.
:func:`repro.eval.parallel.run_units` opens one per group of work units
sharing an input (all scenario units; all probes at one rate),
:func:`repro.eval.accuracy.sensitivity_sweep` one around its points.  The
memo is never process-global.  The generation call sites
(:class:`repro.eval.testbed.EvalTestbed`, ``cluster_scenario``/
``ecommerce_scenario``, ``probe_rate``) route through :func:`corpus_trace`/
:func:`corpus_scenario`, which consult the open scope and fall through to
plain generation outside one.  Results are bit-identical either way:
packet ``pid``s are diagnostic-only by contract, and every RNG stream is
derived independently per name, so skipping a generation never shifts
another stream.

Treat returned traces as read-only: within a scope, every product
replays the same objects.  The same holds for what is learned from them:
:func:`corpus_baselines` keeps, per warmup, the anomaly baselines learned
from it, so within a scope each is learned once and every later deployment
on that warmup (the Figure-4 sweep points, a product's repeated runs)
adopts it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

from ..net.trace import Trace
from ..traffic.mixer import Scenario

__all__ = [
    "CacheStats",
    "ArtifactStore",
    "source_digest",
    "artifact_key",
    "open_store",
    "serving",
    "corpus_trace",
    "corpus_scenario",
    "corpus_baselines",
]

T = TypeVar("T")

#: Named generation or measurement fields, in a fixed order.
Fields = Tuple[Tuple[str, object], ...]

_SOURCE_DIGEST: Optional[str] = None


def source_digest() -> str:
    """SHA-256 over every ``repro/**/*.py`` file (relative path and
    bytes), computed once per process on first use."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        package = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package.rglob("*.py")):
            data = path.read_bytes()
            digest.update(f"{path.relative_to(package).as_posix()}\0"
                          f"{len(data)}\0".encode("utf-8"))
            digest.update(data)
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def artifact_key(kind: str, fields: Fields) -> str:
    """The content key of one artifact: its kind, its named fields and the
    source digest."""
    payload = repr(("repro-artifact", kind, fields, source_digest()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters; ``unreadable`` counts the misses on an
    entry that exists but could not be read."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    unreadable: int = 0


class ArtifactStore:
    """Work-unit results under one flat directory ``root``, counted in
    ``units``."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.units = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".pkl")

    def load(self, key: str):
        """The stored work-unit result, or None on a miss.  An entry that
        exists but fails to read -- truncated, garbage bytes, stale class
        layout -- is unreadable."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            if os.path.exists(path):
                self.units.unreadable += 1
            self.units.misses += 1
            return None
        self.units.hits += 1
        return value

    def save(self, key: str, value) -> None:
        """Store one work-unit result atomically (temp file + rename)."""
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.units.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns how many work-unit results were
        removed.  The ``.rtrc`` traces and ``.meta`` scenario sidecars that
        earlier versions stored, and stray ``.tmp`` files, go too."""
        if not os.path.isdir(self.root):
            return 0
        removed = 0
        for name in os.listdir(self.root):
            if name.endswith((".pkl", ".rtrc", ".meta", ".tmp")):
                os.unlink(os.path.join(self.root, name))
                removed += name.endswith(".pkl")
        return removed


def open_store(cache_dir: Optional[str]) -> Optional[ArtifactStore]:
    """The store over ``cache_dir`` (None passes through)."""
    return ArtifactStore(cache_dir) if cache_dir is not None else None


# ----------------------------------------------------------------------
# the retention scope
# ----------------------------------------------------------------------
#: The innermost open scope's memo of every artifact built in it, keyed
#: by ``(kind, token)``.
_SCOPE: Optional[Dict[Tuple[str, Fields], object]] = None


@contextmanager
def serving() -> Iterator[None]:
    """One retention scope: for the block, :func:`corpus_trace`/
    :func:`corpus_scenario` build each distinct ``(kind, token)`` once;
    the memo is dropped on exit.  Scopes nest, each with its own memo."""
    global _SCOPE
    previous = _SCOPE
    _SCOPE = {}
    try:
        yield
    finally:
        _SCOPE = previous


def _retained(kind: str, token: Fields, build: Callable[[], T]) -> T:
    if _SCOPE is None:
        return build()
    value = _SCOPE.get((kind, token))
    if value is None:
        value = _SCOPE[(kind, token)] = build()
    return value  # type: ignore[return-value]


def corpus_trace(kind: str, token: Fields,
                 build: Callable[[], Trace]) -> Trace:
    """Retained trace generation; plain ``build()`` outside a scope."""
    return _retained(kind, token, build)


def corpus_scenario(kind: str, token: Fields,
                    build: Callable[[], Scenario]) -> Scenario:
    """Retained scenario generation; plain ``build()`` outside a scope."""
    return _retained(kind, token, build)


def corpus_baselines(token: Fields) -> Dict:
    """The anomaly baselines learned from the warmup trace named by
    ``token``, keyed by ``window_s``, for ``IdsPipeline.train_on`` to read
    and fill: one map per scope and warmup, a fresh one outside a
    scope."""
    return _retained("baselines", token, dict)
