"""StudyDataset: the per-user, per-vector, per-iteration eFP series."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..io import atomic_write_chunks


@dataclass
class StudyDataset:
    seed: int
    user_count: int
    iterations: int
    vectors: tuple[str, ...]
    users: list[dict] = field(default_factory=list)
    #: series[vector][user_id] = [eFP per iteration]
    series: dict[str, dict[str, list[str]]] = field(default_factory=dict)

    # -- analysis helpers ---------------------------------------------------
    def distinct_counts(self, vector: str) -> dict[str, int]:
        """Per-user number of distinct eFPs (the Table 1 quantity)."""
        return {uid: len(set(efps)) for uid, efps in self.series[vector].items()}

    def stack_keys(self) -> list[str]:
        return [u["stack_key"] for u in self.users]

    def user_ids(self) -> list[str]:
        """User ids in canonical (stored) order — the row order every
        per-user array in the analysis layer follows."""
        return [u["id"] for u in self.users]

    def iter_user_series(self, vector: str):
        """Yield ``(user_id, [eFP per iteration])`` in canonical user order."""
        series = self.series[vector]
        for uid in self.user_ids():
            yield uid, series[uid]

    def intern(self, vector: str) -> tuple[np.ndarray, list[str], list[str]]:
        """Integer-intern one vector's series for vectorized analysis.

        Returns ``(codes, labels, user_ids)``: ``codes`` is an
        ``(n_users, iterations)`` int64 grid of interned eFP ids,
        ``labels[i]`` is the eFP string behind id ``i`` (ids assigned in
        first-appearance order scanning users canonically), and
        ``user_ids`` names the rows. The collation layer operates on
        this grid only — string eFPs are touched exactly once here.
        """
        user_ids = self.user_ids()
        flat = list(chain.from_iterable(
            map(self.series[vector].__getitem__, user_ids)))
        # dict.fromkeys keeps first-appearance order: that is the id order
        labels = list(dict.fromkeys(flat))
        table = dict(zip(labels, range(len(labels))))
        codes = np.fromiter(map(table.__getitem__, flat), dtype=np.int64,
                            count=len(flat))
        return codes.reshape(len(user_ids), self.iterations), labels, user_ids

    # -- (de)serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "meta": {
                "seed": self.seed,
                "user_count": self.user_count,
                "iterations": self.iterations,
                "vectors": list(self.vectors),
            },
            "users": self.users,
            "series": self.series,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyDataset":
        """Build a dataset from a JSON payload, validating its integrity.

        The analysis layer trusts loaded datasets completely, so an
        inconsistent payload must fail *here*, naming the offending
        field, instead of producing silently wrong metrics downstream.
        """
        if not isinstance(payload, dict):
            raise ValueError("dataset payload must be a JSON object")
        for key in ("meta", "users", "series"):
            if key not in payload:
                raise ValueError(f"dataset payload missing {key!r}")
        meta, users, series = payload["meta"], payload["users"], payload["series"]
        if not isinstance(meta, dict):
            raise ValueError("meta must be an object")
        for key in ("seed", "user_count", "iterations", "vectors"):
            if key not in meta:
                raise ValueError(f"meta missing {key!r}")
        if not isinstance(users, list):
            raise ValueError("users must be an array")
        if not isinstance(series, dict):
            raise ValueError("series must be an object")

        iterations = meta["iterations"]
        if not isinstance(iterations, int) or isinstance(iterations, bool) \
                or iterations <= 0:
            raise ValueError(
                f"meta.iterations must be a positive integer, got {iterations!r}")
        if meta["user_count"] != len(users):
            raise ValueError(
                f"meta.user_count is {meta['user_count']} but users has "
                f"{len(users)} entries")

        vectors = meta["vectors"]
        if not isinstance(vectors, list) or not vectors \
                or not all(isinstance(v, str) for v in vectors):
            raise ValueError("meta.vectors must be a non-empty array of strings")
        declared = set(vectors)
        for vector in series:
            if vector not in declared:
                raise ValueError(
                    f"series contains vector {vector!r} absent from meta.vectors")
        for vector in vectors:
            if vector not in series:
                raise ValueError(f"meta.vectors names {vector!r} but series has "
                                 "no entry for it")

        ids = []
        for i, user in enumerate(users):
            if not isinstance(user, dict) or not isinstance(user.get("id"), str):
                raise ValueError(f"users[{i}] must be an object with a string 'id'")
            ids.append(user["id"])
        if len(set(ids)) != len(ids):
            raise ValueError("users contains duplicate ids")
        id_set = set(ids)
        for vector, per_user in series.items():
            if not isinstance(per_user, dict):
                raise ValueError(f"series[{vector!r}] must be an object")
            if set(per_user) != id_set:
                extra = sorted(set(per_user) - id_set)
                missing = sorted(id_set - set(per_user))
                raise ValueError(
                    f"series[{vector!r}] users do not match the users list "
                    f"(unknown: {extra[:3]}, missing: {missing[:3]})")
            for uid, efps in per_user.items():
                if not isinstance(efps, list) \
                        or not all(isinstance(e, str) for e in efps):
                    raise ValueError(
                        f"series[{vector!r}][{uid!r}] must be an array of strings")
                if len(efps) != iterations:
                    raise ValueError(
                        f"series[{vector!r}][{uid!r}] has {len(efps)} "
                        f"iterations, expected {iterations}")

        return cls(
            seed=meta["seed"],
            user_count=meta["user_count"],
            iterations=iterations,
            vectors=tuple(vectors),
            users=users,
            series=series,
        )

    def _dump_chunks(self):
        """Stream the ``to_dict()`` JSON encoding chunk by chunk.

        Byte-identical to ``json.dumps(self.to_dict()) + "\\n"`` (pinned
        by tests), but the peak working set is one user's series instead
        of the whole document — ``save`` stays flat in memory no matter
        how many users the dataset holds.
        """
        meta = {"seed": self.seed, "user_count": self.user_count,
                "iterations": self.iterations, "vectors": list(self.vectors)}
        yield '{"meta": ' + json.dumps(meta) + ', "users": ['
        for i, user in enumerate(self.users):
            yield (", " if i else "") + json.dumps(user)
        yield '], "series": {'
        for v, vector in enumerate(self.series):
            yield (", " if v else "") + json.dumps(vector) + ": {"
            per_user = self.series[vector]
            for u, uid in enumerate(per_user):
                yield (", " if u else "") + json.dumps(uid) + ": " \
                    + json.dumps(per_user[uid])
            yield "}"
        yield "}}\n"

    def save(self, path: str) -> None:
        """Crash-safely write the dataset, streaming one user at a time
        through the shared atomic chunk writer (same bytes as a
        whole-document dump, without ever materializing it)."""
        atomic_write_chunks(path, self._dump_chunks())

    @classmethod
    def load(cls, path: str) -> "StudyDataset":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StudyDataset):
            return NotImplemented
        return self.to_dict() == other.to_dict()
