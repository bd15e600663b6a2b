"""Projective spans of complex faces, parasitic intersections, their
saturation along incidence chains, and the dimension-ordered blow-up ledger.

Everything stays at the level of rational linear subspaces of P^N in
homogeneous coordinates (last coordinate = affine chart coordinate): the
blow-ups themselves are tracked as scheduled centers plus separation
certificates, never as varieties.

A subspace is held in integer form: the canonical rows of its homogeneous
span in Q^{N+1} (primitive RREF rows with positive pivots), their pivot
columns and rows spanning its integer annihilator.  A face's span is the
kernel of its certified tight rows (a, b) homogenised to (a, -b), a meet is
the kernel of two annihilators stacked, and containment compares
dimensions, then dots the annihilator with the other's rows.  The QQ basis
(`generators`) and the strings that records and the ledger are sorted and
written by (`row_strings`) are read off the canonical rows when asked for.
"""

import itertools
import json
from dataclasses import dataclass

from .rationals import rat, ratio_str
from . import linalg


class ProjectiveSubspace:
    """Linear subspace of P^N, stored as the canonical integer rows of its
    homogeneous span in Q^{N+1} (see `linalg.int_row_space`)."""

    __slots__ = ("ambient_dim", "rows", "pivots", "_generators", "_strings", "_ann")

    def __init__(self, ambient_dim, generators):
        n = int(ambient_dim)
        rows = []
        for g in generators:
            g = [rat(c) for c in g]
            if len(g) != n + 1:
                raise ValueError("generator arity must be ambient_dim + 1")
            rows.append(linalg.int_row(g)[0])
        rows, pivots = linalg.int_row_space(rows)
        if not rows:
            raise ValueError("empty projective subspace")
        self._set(n, rows, pivots, linalg.int_kernel(rows, pivots, n + 1))

    def _set(self, ambient_dim, rows, pivots, ann):
        self.ambient_dim = ambient_dim
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self._ann = ann  # integer rows spanning the annihilator in Q^{N+1}
        self._generators = self._strings = None

    @property
    def dim(self):
        return len(self.rows) - 1

    @property
    def generators(self):
        """The canonical RREF basis over QQ: each row divided by its pivot."""
        if self._generators is None:
            self._generators = tuple(linalg.rational_rows(self.rows, self.pivots))
        return self._generators

    def row_strings(self):
        """`rat_str` of every entry of `generators`, row by row."""
        if self._strings is None:
            self._strings = tuple(tuple(ratio_str(x, row[c]) for x in row)
                                  for row, c in zip(self.rows, self.pivots))
        return self._strings

    def __eq__(self, other):
        return (isinstance(other, ProjectiveSubspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return "ProjectiveSubspace(dim=%d, %s)" % (
            self.dim, [list(g) for g in self.row_strings()])

    @classmethod
    def _kernel(cls, ambient_dim, ann):
        """The subspace that the integer rows `ann` annihilate, or None."""
        rows, pivots, ann = linalg.int_meet(ann, ambient_dim + 1)
        if not rows:
            return None
        out = cls.__new__(cls)
        out._set(ambient_dim, rows, pivots, ann)
        return out

    @classmethod
    def of_polyhedron(cls, P):
        """Projective completion of the affine span of a non-empty
        polyhedron: its tight rows (a, b) cut out the span, so the rows
        (a, -b) annihilate the completion."""
        root = P._root()
        if root is None:
            raise ValueError("empty polyhedron has no projective span")
        rows = P.rows
        return cls._kernel(P.ambient_dim, [rows[i][0] + (-rows[i][1],) for i in root])

    def contains(self, other):
        """other ⊆ self.  A larger subspace is not contained, and one of the
        same dimension only if equal, which canonical rows decide; a
        smaller one is contained iff self's annihilator kills its rows."""
        if len(other.rows) >= len(self.rows):
            return self.rows == other.rows
        return linalg.annihilates(self._ann, other.rows)

    def intersect(self, other):
        """self ∩ other, or None if it is empty.  A point meets a subspace in
        itself or not at all, so that case is one containment test; every
        other pair is the kernel of the stacked annihilators."""
        if self.dim == 0:
            return self if other.contains(self) else None
        if other.dim == 0:
            return other if self.contains(other) else None
        return ProjectiveSubspace._kernel(self.ambient_dim, self._ann + other._ann)

    def sort_token(self):
        return (self.dim, self.row_strings())


def span_assignment(C):
    """FaceId -> projective completion of the affine span; functorial.

    A face lies in the affine span of every face above it, so an incidence
    whose spans are not nested is not geometric: malformed input, reported
    as a ValueError naming both faces."""
    spans = {}
    for i in C.ids():
        spans[i] = ProjectiveSubspace.of_polyhedron(C.faces[i])
    for a, b in C.incidences():
        if not spans[b].contains(spans[a]):
            raise ValueError("span assignment is not functorial at %r <= %r: the span "
                             "of face %r does not lie in the span of face %r" % (a, b, a, b))
    return spans


@dataclass(frozen=True)
class ParasiticRecord:
    ambient: object           # FaceId
    tuple_ids: tuple          # incident faces whose spans cut out the subspace
    subspace: ProjectiveSubspace
    saturated: bool = False

    def key(self):
        return (self.ambient, self.subspace)


def _intersection_lattice(subspaces):
    """Closure of a set of subspaces under pairwise intersection.  Each
    element meets every earlier one once; new ones join the end."""
    seen = set(subspaces)
    lattice = list(seen)
    for j, t in enumerate(lattice):
        for s in lattice[:j]:
            inter = s.intersect(t)
            if inter is not None and inter not in seen:
                seen.add(inter)
                lattice.append(inter)
    return seen


def parasitic_intersections(C, spans):
    """Span intersections over faces incident to each ambient face that are
    not realized as the span of a common incident face."""
    records = []
    for c in C.ids():
        below = C.faces_below(c)
        if not below:
            continue
        lattice = _intersection_lattice({spans[b] for b in below})
        for S in sorted(lattice, key=lambda s: s.sort_token()):
            U = [b for b in below if spans[b].contains(S)]
            realized = any(spans[b0] == S and all(C.leq(b0, u) for u in U)
                           for b0 in U)
            if not realized:
                records.append(ParasiticRecord(c, tuple(U), S))
    return records


def saturate(C, spans, records):
    """Close the parasite set under images and preimages along incidences."""
    by_key = {r.key(): r for r in records}
    work = list(records)
    while work:
        r = work.pop()
        b = r.ambient
        for b2 in C.faces_above(b):
            cand = ParasiticRecord(b2, r.tuple_ids, r.subspace, saturated=True)
            if cand.key() not in by_key:
                by_key[cand.key()] = cand
                work.append(cand)
        for a in C.faces_below(b):
            inter = r.subspace.intersect(spans[a])
            if inter is None or inter == spans[a]:
                continue
            cand = ParasiticRecord(a, r.tuple_ids, inter, saturated=True)
            if cand.key() not in by_key:
                by_key[cand.key()] = cand
                work.append(cand)
    return sorted(by_key.values(),
                  key=lambda r: (r.ambient, r.subspace.sort_token()))


def verify_proper(C, spans, records):
    """Check the two decidable halves of the properness lemma."""
    flag, bad = C.is_simple()
    if not flag:
        raise ValueError("complex is not simple (witness face %r)" % (bad,))
    N = C.ambient_dim
    violations = []
    for r in records:
        if r.subspace.dim > N - 2:
            violations.append({
                "check": "dimension",
                "ambient": r.ambient,
                "subspace_dim": r.subspace.dim,
                "bound": N - 2,
            })
        for a in sorted([r.ambient, *C.faces_below(r.ambient)]):
            if r.subspace.contains(spans[a]):
                violations.append({
                    "check": "contains-face",
                    "ambient": r.ambient,
                    "face": a,
                })
    return {
        "passed": not violations,
        "checked_records": len(records),
        "violations": violations,
    }


@dataclass
class BlowUpLedger:
    stages: list        # stage d: {ambient FaceId: [ProjectiveSubspace, ...]}
    certificates: list  # per-stage separation evidence


def blowup_plan(C, spans, records):
    report = verify_proper(C, spans, records)
    if not report["passed"]:
        raise ValueError("properness verification failed: %r" % (report["violations"],))
    max_dim = max((r.subspace.dim for r in records), default=-1)
    stages = [dict() for _ in range(max_dim + 1)]
    for r in records:
        stages[r.subspace.dim].setdefault(r.ambient, []).append(r.subspace)
    for stage in stages:
        for ambient, centers in stage.items():
            centers.sort(key=lambda s: s.sort_token())
            if any(s == spans[ambient] for s in centers):
                raise AssertionError(
                    "a center equals the whole span of face %r" % (ambient,))
    certificates = []
    for d in range(1, max_dim + 1):
        entries = []
        for ambient, centers in sorted(stages[d].items()):
            lower = [s for dd in range(d) for s in stages[dd].get(ambient, [])]
            for s1, s2 in itertools.combinations(centers, 2):
                inter = s1.intersect(s2)
                if inter is None:
                    entries.append({"ambient": ambient, "separated": "disjoint"})
                    continue
                holder = next((low for low in lower if low.contains(inter)), None)
                if holder is None:
                    raise AssertionError(
                        "stage-%d centers in face %r intersect outside all "
                        "lower-stage centers" % (d, ambient))
                entries.append({"ambient": ambient,
                                "separated": "via-lower-stage",
                                "witness_dim": holder.dim})
        certificates.append({"stage": d, "pairs": entries})
    # cross-incidence consistency: restrictions of centers are centers
    all_keys = {(r.ambient, r.subspace) for r in records}
    for r in records:
        for a in C.faces_below(r.ambient):
            inter = r.subspace.intersect(spans[a])
            if inter is None or inter == spans[a]:
                continue
            if (a, inter) not in all_keys:
                raise AssertionError(
                    "center of face %r does not restrict to a center of %r"
                    % (r.ambient, a))
    return BlowUpLedger(stages, certificates)


# -- LEDGER/1 --------------------------------------------------------------------

def format_ledger(ledger):
    stages = []
    for stage in ledger.stages:
        stages.append([
            {"ambient": ambient,
             "centers": [s.row_strings() for s in centers]}
            for ambient, centers in sorted(stage.items())
        ])
    payload = {
        "schema_version": "LEDGER/1",
        "stages": stages,
        "certificates": ledger.certificates,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def parse_ledger(text):
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("LEDGER/1: the top level must be a JSON object")
    if data.get("schema_version") != "LEDGER/1":
        raise ValueError("LEDGER/1: bad or missing schema_version")
    if not isinstance(data.get("certificates"), list):
        raise ValueError("LEDGER/1: certificates must be a list")
    try:
        stages = [{entry["ambient"]: [ProjectiveSubspace(len(gens[0]) - 1, gens)
                                      for gens in entry["centers"]] for entry in stage}
                  for stage in data["stages"]]
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ValueError("LEDGER/1: malformed stages (%s: %s)" % (type(e).__name__, e)) from None
    return BlowUpLedger(stages, data["certificates"])
