"""The evaluation battery's one content-addressed artifact store.

Two kinds of artifact are worth keeping between runs: the result of every
work unit (``repro.eval.parallel``) and every generated trace -- the benign
warmup, the labeled accuracy scenario and one load trace per probe rate,
the paper's "canned data with known attack content", literally canned.
Both live in one flat directory, ``cache_dir``:

* ``<key>.pkl`` -- a pickled work-unit result;
* ``<key>.rtrc`` -- a trace in the batched ``.rtrc`` codec, mapped
  read-only by ``Trace.load``;
* ``<key>.meta`` -- next to a scenario's trace, its pickled ground-truth
  metadata (name, duration, seed, :class:`~repro.attacks.base.AttackRecord`
  list).

Every key comes from :func:`artifact_key`: a hash of the artifact kind, its
*named* generation fields and :func:`source_digest`, a digest of every
``repro/**/*.py`` file.  Any source edit therefore invalidates every entry:
a stored artifact is never stale relative to the code that reads it.
Writes are atomic (temp file + rename); an entry that exists but cannot be
read is a miss to be regenerated, counted in :attr:`CacheStats.unreadable`,
never a crash.

Each battery call also opens retention scopes (:func:`serving`): a fresh
``(kind, token)`` memo in front of the optional disk store, so every
distinct trace is built -- or read from disk -- once per scope and
dropped when the scope ends.  :func:`repro.eval.parallel.run_units` opens
one per group of work units sharing an input (all scenario units; all
probes at one rate), :func:`repro.eval.accuracy.sensitivity_sweep` one
around its points.  The memo is never process-global, and the store itself
is disk only.  The generation call sites
(:class:`repro.eval.testbed.EvalTestbed`, ``cluster_scenario``/
``ecommerce_scenario``, ``probe_rate``) route through :func:`corpus_trace`/
:func:`corpus_scenario`, which consult the open scope and fall through to
plain generation outside one.  Results are bit-identical either way: the
trace format round-trips every field exactly (times are f64), packet
``pid``s are diagnostic-only by contract, and every RNG stream is derived
independently per name, so skipping a generation never shifts another
stream.

Treat returned traces as read-only: within a scope, every product
replays the same objects.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from contextlib import contextmanager
from dataclasses import astuple, dataclass
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
    entry that exists but could not be read (memo hits count as hits)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    unreadable: int = 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(*(a + b for a, b in
                            zip(astuple(self), astuple(other))))

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(*(a - b for a, b in
                            zip(astuple(self), astuple(other))))


def _codec_exact(trace: Trace) -> bool:
    """True when the trace round-trips the ``.rtrc`` codec bit-exactly.

    The one lossy corner of the format is a materialized *empty* payload
    (``b""`` decodes as ``None``); no generator produces one today, but a
    trace containing one must bypass the store rather than change shape
    between the cold and warm runs.
    """
    for _, pkt in trace:
        if pkt.payload is not None and len(pkt.payload) == 0:
            return False
    return True


class ArtifactStore:
    """Content-keyed artifacts under one flat directory ``root``.

    ``units`` counts work-unit result lookups, ``traces`` trace and
    scenario lookups.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.units = CacheStats()
        self.traces = CacheStats()

    def _path(self, key: str, suffix: str) -> str:
        return os.path.join(self.root, key + suffix)

    def _write(self, key: str, suffix: str, data: bytes) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self._path(key, suffix))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _read(self, stats: CacheStats, key: str, suffix: str,
              read: Callable[[str], T]) -> Optional[T]:
        """``read(<key><suffix>)``, or None on a miss.  An entry whose
        ``suffix`` file exists but fails to read -- truncated, garbage
        bytes, stale class layout, a missing sidecar -- is unreadable."""
        path = self._path(key, suffix)
        try:
            value = read(path)
        except Exception:
            if os.path.exists(path):
                stats.unreadable += 1
            stats.misses += 1
            return None
        stats.hits += 1
        return value

    # ------------------------------------------------------------------
    # work-unit results
    # ------------------------------------------------------------------
    def load(self, key: str):
        """The stored work-unit result, or None on a miss."""

        def read(path):
            with open(path, "rb") as fh:
                return pickle.load(fh)

        return self._read(self.units, key, ".pkl", read)

    def save(self, key: str, value) -> None:
        self._write(key, ".pkl",
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        self.units.stores += 1

    # ------------------------------------------------------------------
    # traces and scenarios
    # ------------------------------------------------------------------
    def _stored(self, kind: str, token: Fields, build: Callable[[], T],
                read: Callable[[str, str], T],
                write: Callable[[str, T], None],
                trace_of: Callable[[T], Trace]) -> T:
        key = artifact_key(kind, token)
        value = self._read(self.traces, key, ".rtrc",
                           lambda path: read(key, path))
        if value is None:
            value = build()
            if _codec_exact(trace_of(value)):
                write(key, value)
                self.traces.stores += 1
        return value

    def trace(self, kind: str, token: Fields,
              build: Callable[[], Trace]) -> Trace:
        """The stored trace for ``(kind, token)``, building and storing it
        on a miss."""
        return self._stored(
            kind, token, build,
            read=lambda key, path: Trace.load(path),
            write=lambda key, trace: self._write(key, ".rtrc",
                                                 trace.to_bytes()),
            trace_of=lambda trace: trace)

    def scenario(self, kind: str, token: Fields,
                 build: Callable[[], Scenario]) -> Scenario:
        """Like :meth:`trace`, for a full ground-truth-labeled scenario."""

        def read(key: str, path: str) -> Scenario:
            with open(self._path(key, ".meta"), "rb") as fh:
                meta = pickle.load(fh)
            return Scenario(
                name=meta["name"],
                trace=Trace.load(path, name=meta["trace_name"]),
                attacks=meta["attacks"], duration_s=meta["duration_s"],
                seed=meta["seed"])

        def write(key: str, scenario: Scenario) -> None:
            # the sidecar first: the trace file commits the entry
            self._write(key, ".meta", pickle.dumps(
                {"name": scenario.name, "trace_name": scenario.trace.name,
                 "attacks": scenario.attacks,
                 "duration_s": scenario.duration_s, "seed": scenario.seed},
                protocol=pickle.HIGHEST_PROTOCOL))
            self._write(key, ".rtrc", scenario.trace.to_bytes())

        return self._stored(kind, token, build, read, write,
                            trace_of=lambda scenario: scenario.trace)

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns how many work-unit results and
        traces were removed (scenario sidecars don't count)."""
        if not os.path.isdir(self.root):
            return 0
        removed = 0
        for name in os.listdir(self.root):
            if name.endswith((".pkl", ".rtrc", ".meta", ".tmp")):
                os.unlink(os.path.join(self.root, name))
                removed += name.endswith((".pkl", ".rtrc"))
        return removed


# ----------------------------------------------------------------------
# the retention scope
# ----------------------------------------------------------------------
#: The innermost open scope: its disk store (or None) and its memo of
#: every artifact served in it, keyed by ``(kind, token)``.
_SCOPE: Optional[Tuple[Optional[ArtifactStore],
                       Dict[Tuple[str, Fields], object]]] = None


def open_store(cache_dir: Optional[str]) -> Optional[ArtifactStore]:
    """The store over ``cache_dir`` (None passes through)."""
    return ArtifactStore(cache_dir) if cache_dir is not None else None


@contextmanager
def serving(store: Optional[ArtifactStore] = None) -> Iterator[None]:
    """One retention scope: for the block, :func:`corpus_trace`/
    :func:`corpus_scenario` build -- or read from ``store`` -- each
    distinct ``(kind, token)`` once; the memo is dropped on exit.  Scopes
    nest, each with its own memo."""
    global _SCOPE
    previous = _SCOPE
    _SCOPE = (store, {})
    try:
        yield
    finally:
        _SCOPE = previous


def _retained(kind: str, token: Fields, build: Callable[[], T],
              fetch: Callable[[ArtifactStore], T]) -> T:
    if _SCOPE is None:
        return build()
    store, memo = _SCOPE
    value = memo.get((kind, token))
    if value is None:
        value = build() if store is None else fetch(store)
        memo[(kind, token)] = value
    elif store is not None:
        store.traces.hits += 1
    return value  # type: ignore[return-value]


def corpus_trace(kind: str, token: Fields,
                 build: Callable[[], Trace]) -> Trace:
    """Retained trace generation; plain ``build()`` outside a scope."""
    return _retained(kind, token, build,
                     lambda store: store.trace(kind, token, build))


def corpus_scenario(kind: str, token: Fields,
                    build: Callable[[], Scenario]) -> Scenario:
    """Retained scenario generation; plain ``build()`` outside a scope."""
    return _retained(kind, token, build,
                     lambda store: store.scenario(kind, token, build))
