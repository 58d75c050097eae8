"""The pooled ``score(r, n, s)`` distribution (§3.2) and its CSV format.

Joining the per-tuple trial scores yields the training set for the
regression: one ``(runtime, #processors, submit time, score)`` row per
probe task.  The on-disk format matches the paper's artifact
(``score-distribution.csv``), so distributions produced by the original
prototypes can be loaded directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.trials import TrialScoreResult
from repro.util.validation import check_finite

__all__ = ["ScoreDistribution"]


@dataclass(frozen=True)
class ScoreDistribution:
    """Training observations: features (r, n, s) and target score."""

    runtime: np.ndarray
    size: np.ndarray
    submit: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        n = None
        for name in ("runtime", "size", "submit", "score"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            check_finite(name, arr)
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError(f"{name} length {len(arr)} != {n}")
            arrays[name] = arr
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.runtime)

    # ------------------------------------------------------------------
    @classmethod
    def from_trial_results(
        cls, results: Iterable[TrialScoreResult]
    ) -> "ScoreDistribution":
        """Pool the probe-task observations of many tuples."""
        results = list(results)
        if not results:
            raise ValueError("no trial results to pool")
        return cls(
            runtime=np.concatenate([r.runtime for r in results]),
            size=np.concatenate([r.size for r in results]),
            submit=np.concatenate([r.submit for r in results]),
            score=np.concatenate([r.scores for r in results]),
        )

    def subsample(self, max_points: int, *, seed: int = 0) -> "ScoreDistribution":
        """Deterministic subsample used to bound regression cost."""
        if max_points >= len(self):
            return self
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self), size=max_points, replace=False)
        idx.sort()
        return ScoreDistribution(
            runtime=self.runtime[idx],
            size=self.size[idx],
            submit=self.submit[idx],
            score=self.score[idx],
        )

    # ------------------------------------------------------------------
    # artifact-compatible CSV
    # ------------------------------------------------------------------
    def to_csv(self, path: str | Path) -> None:
        """Write ``runtime,#processors,submit time,score`` rows."""
        lines = []
        for i in range(len(self)):
            lines.append(
                f"{self.runtime[i]:.1f},{self.size[i]:.1f},"
                f"{self.submit[i]:.1f},{self.score[i]:.13g}"
            )
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")

    @classmethod
    def from_csv(cls, path: str | Path) -> "ScoreDistribution":
        """Load an artifact-format ``score-distribution.csv``."""
        rows: list[Sequence[float]] = []
        for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
            rows.append([float(x) for x in parts])
        if not rows:
            raise ValueError(f"{path}: empty score distribution")
        mat = np.asarray(rows, dtype=float)
        return cls(runtime=mat[:, 0], size=mat[:, 1], submit=mat[:, 2], score=mat[:, 3])
