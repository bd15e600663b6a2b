"""Projective spans of complex faces, parasitic intersections, their
saturation along incidence chains, and the dimension-ordered blow-up ledger.

Everything stays at the level of rational linear subspaces of P^N in
homogeneous coordinates (last coordinate = affine chart coordinate): the
blow-ups themselves are tracked as scheduled centers plus separation
certificates, never as varieties.
"""

import itertools
import json
from dataclasses import dataclass, field

from .rationals import QQ, ZERO, ONE, rat, rat_str
from . import linalg


class ProjectiveSubspace:
    """Linear subspace of P^N, stored as the canonical RREF row basis of its
    homogeneous span in Q^{N+1}."""

    def __init__(self, ambient_dim, generators):
        self.ambient_dim = int(ambient_dim)
        rows = [tuple(rat(c) for c in g) for g in generators]
        for g in rows:
            if len(g) != self.ambient_dim + 1:
                raise ValueError("generator arity must be ambient_dim + 1")
        basis, _ = linalg.rref(rows)
        if not basis:
            raise ValueError("empty projective subspace")
        self.generators = tuple(basis)

    @classmethod
    def _of_basis(cls, ambient_dim, basis):
        """The subspace whose canonical RREF basis is `basis`, taken as it is."""
        out = cls.__new__(cls)
        out.ambient_dim = ambient_dim
        out.generators = tuple(basis)
        return out

    @property
    def dim(self):
        return len(self.generators) - 1

    def __eq__(self, other):
        return (isinstance(other, ProjectiveSubspace)
                and self.ambient_dim == other.ambient_dim
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.ambient_dim, self.generators))

    def __repr__(self):
        return "ProjectiveSubspace(dim=%d, %s)" % (
            self.dim, [[rat_str(c) for c in g] for g in self.generators])

    def contains(self, other):
        return linalg.row_space_contained(other.generators, self.generators)

    def intersect(self, other):
        rows = linalg.intersect_row_spaces(self.generators, other.generators)
        if not rows:
            return None
        return ProjectiveSubspace._of_basis(self.ambient_dim, rows)

    def sort_token(self):
        return (self.dim, tuple(tuple(rat_str(c) for c in g) for g in self.generators))

    @staticmethod
    def from_affine(span):
        """Projective completion of a non-empty AffineSubspace."""
        if span.basepoint is None:
            raise ValueError("empty affine subspace has no completion")
        gens = [tuple(span.basepoint) + (ONE,)]
        for d in span.directions:
            gens.append(tuple(d) + (ZERO,))
        return ProjectiveSubspace(span.ambient_dim, gens)


def span_assignment(C):
    """FaceId -> projective completion of the affine span; functorial."""
    spans = {}
    for i in C.ids():
        spans[i] = ProjectiveSubspace.from_affine(C.faces[i].affine_span())
    for a, b in C.incidences():
        if not spans[b].contains(spans[a]):
            raise AssertionError("span assignment is not functorial at %r <= %r" % (a, b))
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
        below = sorted(self_id for self_id in C.below_of(c) if self_id != c)
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
        for b2 in sorted(C.above_of(b) - {b}):
            cand = ParasiticRecord(b2, r.tuple_ids, r.subspace, saturated=True)
            if cand.key() not in by_key:
                by_key[cand.key()] = cand
                work.append(cand)
        for a in sorted(C.below_of(b) - {b}):
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
        for a in sorted(C.below_of(r.ambient)):
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
        for a in sorted(C.below_of(r.ambient) - {r.ambient}):
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
             "centers": [[[rat_str(c) for c in g] for g in s.generators]
                         for s in centers]}
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
    if data.get("schema_version") != "LEDGER/1":
        raise ValueError("LEDGER/1: bad or missing schema_version")
    stages = []
    for stage in data["stages"]:
        out = {}
        for entry in stage:
            centers = []
            for gens in entry["centers"]:
                n = len(gens[0]) - 1
                centers.append(ProjectiveSubspace(n, [[rat(c) for c in g] for g in gens]))
            out[entry["ambient"]] = centers
        stages.append(out)
    return BlowUpLedger(stages, data["certificates"])
