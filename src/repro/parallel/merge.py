"""Merge per-worker flight-recorder banks into one campaign bank.

Each worker process with a sampling cadence writes its job's series
bank (``SeriesBank.as_dict``, see :mod:`repro.obs`); this module merges
same-name series point-by-point in time order, so a campaign aggregates
into the one bank a single dashboard renders.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from ..obs import SeriesBank

__all__ = ["merge_series_dicts", "merge_series_files"]


def merge_series_dicts(snapshots: Iterable[dict]) -> SeriesBank:
    """Fold several ``SeriesBank.as_dict()`` snapshots into one bank.

    Same-name series interleave their points by sample time (stable —
    earlier snapshots win ties), matching what one recorder sampling all
    workers' runs back-to-back would have captured.
    """
    merged = SeriesBank()
    for snapshot in snapshots:
        merged.merge_from(SeriesBank.from_dict(snapshot))
    return merged


def merge_series_files(
    paths: Sequence[Union[str, Path]],
    out: Optional[Union[str, Path]] = None,
) -> SeriesBank:
    """Merge several series-bank JSON files; optionally write the result."""
    merged = merge_series_dicts(
        json.loads(Path(p).read_text(encoding="utf-8")) for p in paths
    )
    if out is not None:
        Path(out).write_text(
            json.dumps(merged.as_dict()), encoding="utf-8"
        )
    return merged
