"""Exhaustive enumeration of prime-by-abelian extensions and their encoders.

Instances are enumerated by ambient group: for a prime ``p`` and a state
group ``S``, every abelian group of order ``p * |S|`` is paired with each
orbit representative of its order-``p`` subgroups whose quotient is
isomorphic to ``S``.  Orbits of order-``p`` subgroups under the automorphism
group are classified by the divisibility height of a generator, which is an
automorphism invariant and, together with the fixed quotient type, separates
orbits at this scale; the tests cross-check the classification against
explicitly enumerated automorphisms.  Each instance then yields one encoder
per surjective next-state homomorphism, with the identity output map, which
keeps the branch map injective for free and does not affect reachability.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .control import decide_controllability, structure_report
from .encoder import Encoder, encoder_from_extension
from .errors import NotPrime, PredicateViolation, TooLarge
from .extension import ExtensionDecomposition, decompose
from .groups import (
    FiniteAbelianGroup,
    Subgroup,
    abelian_groups_of_order,
    element_height,
    enumerate_homs,
    identity_hom,
    invariant_factors,
    is_prime,
    prime_order_subgroups,
)

EXHAUSTIVE_GUARD = 256


@dataclass(frozen=True, eq=False)
class ExtensionInstance:
    """One (ambient group, embedded prime subgroup) pair with quotient ``S``."""

    prime: int
    ambient: FiniteAbelianGroup
    normal: Subgroup
    decomposition: ExtensionDecomposition

    @property
    def state_group(self) -> FiniteAbelianGroup:
        return self.decomposition.s_part

    @property
    def normal_generator(self):
        return min(a for a in self.normal.elements if a != self.ambient.identity())


def enumerate_extensions(
    p: int, state_group: FiniteAbelianGroup, dedup: bool = True
) -> list[ExtensionInstance]:
    """All extension instances of a prime-order group by ``state_group``.

    With ``dedup`` (the default) one representative is kept per automorphism
    orbit of the embedded subgroup; without it, every qualifying subgroup
    yields an instance, which is the soundness cross-check mode.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    total = p * state_group.order
    wanted = invariant_factors(state_group)
    instances = []
    for ambient in abelian_groups_of_order(total):
        seen_heights: set[int] = set()
        for normal in prime_order_subgroups(ambient, p):
            dec = decompose(ambient, normal)
            if dec.s_part.factors != wanted:
                continue
            if dedup:
                generator = min(
                    a for a in normal.elements if a != ambient.identity()
                )
                height = element_height(ambient, generator, p)
                if height in seen_heights:
                    continue
                seen_heights.add(height)
            instances.append(
                ExtensionInstance(
                    prime=p, ambient=ambient, normal=normal, decomposition=dec
                )
            )
    return instances


def enumerate_encoders(instance: ExtensionInstance) -> list[Encoder]:
    """One encoder per surjective next-state homomorphism of the instance.

    The output map is the identity onto the ambient group, so every branch
    carries full information and the injectivity condition holds for free;
    reachability depends only on the next-state map.
    """
    ambient = instance.ambient
    omega = identity_hom(ambient)
    encoders = []
    for nu in enumerate_homs(ambient, instance.state_group, surjective_only=True):
        encoders.append(
            encoder_from_extension(instance.decomposition, ambient, nu, omega)
        )
    return encoders


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepReport:
    """Aggregated verdicts and theorem tallies for a whole sweep."""

    parameters: dict
    rows: list[dict]
    controllable_encoders: list[dict]
    checks: dict
    totals: dict
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        """Canonical JSON payload; excludes timing so reruns are byte-identical."""
        return {
            "parameters": self.parameters,
            "instances": self.rows,
            "controllable_encoders": self.controllable_encoders,
            "checks": self.checks,
            "totals": self.totals,
        }

    @property
    def violations(self) -> int:
        return (
            self.checks["controllable_implies_elementary_state_group"]["violations"]
            + self.checks["long_cyclic_state_group_never_controllable"]["violations"]
            + self.checks["predicate_violations"]
        )

    def summary_table(self) -> str:
        """One line per (p, state group): encoder and controllability tallies."""
        header = f"{'p':>3}  {'S':<14} {'#enc':>6} {'#ctrl':>6} {'min_index':>9} {'violations':>10}"
        lines = [header, "-" * len(header)]
        grouped: dict[tuple[int, tuple[int, ...]], dict] = {}
        for row in self.rows:
            key = (row["p"], tuple(row["state_factors"]))
            agg = grouped.setdefault(
                key, {"encoders": 0, "controllable": 0, "min_index": None, "violations": 0}
            )
            agg["encoders"] += row["encoder_count"]
            agg["controllable"] += row["controllable_count"]
            agg["violations"] += row["predicate_violations"]
            if row["min_index"] is not None:
                agg["min_index"] = (
                    row["min_index"]
                    if agg["min_index"] is None
                    else min(agg["min_index"], row["min_index"])
                )
        for (p, factors), agg in sorted(grouped.items()):
            s_text = "[" + ",".join(str(d) for d in factors) + "]"
            min_index = "-" if agg["min_index"] is None else str(agg["min_index"])
            lines.append(
                f"{p:>3}  {s_text:<14} {agg['encoders']:>6} {agg['controllable']:>6} "
                f"{min_index:>9} {agg['violations']:>10}"
            )
        return "\n".join(lines)


def _evaluate_instance(instance: ExtensionInstance) -> dict:
    """Verdict row for one instance; returns per-encoder facts for the tallies."""
    encoders = enumerate_encoders(instance)
    controllable = []
    violations = []
    for enc in encoders:
        verdict = decide_controllability(enc)
        try:
            structure_report(enc, verdict)
        except PredicateViolation as exc:
            violations.append(
                {"predicate": exc.name, "counterexample": repr(exc.counterexample)}
            )
        if verdict.controllable:
            controllable.append(
                {
                    "next_state_images": [list(img) for img in enc.next_state.gen_images],
                    "index": verdict.index,
                }
            )
    min_index = min((c["index"] for c in controllable), default=None)
    return {
        "p": instance.prime,
        "state_factors": list(instance.state_group.factors),
        "ambient_factors": list(instance.ambient.factors),
        "normal_generator": list(instance.normal_generator),
        "encoder_count": len(encoders),
        "controllable_count": len(controllable),
        "min_index": min_index,
        "predicate_violations": len(violations),
        "violation_details": violations,
        "controllable": controllable,
    }


def default_jobs() -> int:
    """Worker count from ``GROUPCODE_JOBS``, clamped to 1..``os.cpu_count()``."""
    raw = os.environ.get("GROUPCODE_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(1, min(jobs, os.cpu_count() or 1))


def sweep_theorems(
    p_list: list[int],
    max_s_order: int,
    dedup: bool = True,
    jobs: int | None = None,
) -> SweepReport:
    """Analyze every encoder over every instance with ``|S| <= max_s_order``.

    Asserts, across the whole family: every controllable encoder has a state
    group with all invariant factors equal to ``p``; every cyclic state group
    larger than ``p`` admits no controllable encoder; and every structural
    predicate holds on every encoder.  The tallies in ``checks`` report the
    number of cases inspected and must show zero violations.
    """
    import time

    start = time.perf_counter()
    if max_s_order < 1:
        raise TooLarge("max_s_order must be at least 1")
    primes = sorted(set(p_list))
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p * max_s_order > EXHAUSTIVE_GUARD:
            raise TooLarge(
                f"p * max_s_order = {p * max_s_order} exceeds the exhaustive guard "
                f"{EXHAUSTIVE_GUARD}"
            )

    instances: list[ExtensionInstance] = []
    for p in primes:
        for order in range(1, max_s_order + 1):
            for state_group in abelian_groups_of_order(order):
                instances.extend(enumerate_extensions(p, state_group, dedup=dedup))

    jobs = default_jobs() if jobs is None else max(1, jobs)
    if jobs > 1 and len(instances) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_evaluate_instance, instances))
    else:
        rows = [_evaluate_instance(instance) for instance in instances]
    rows.sort(
        key=lambda r: (r["p"], r["state_factors"], r["ambient_factors"], r["normal_generator"])
    )

    elementary_checked = 0
    elementary_violations = 0
    cyclic_checked = 0
    cyclic_violations = 0
    predicate_violations = 0
    controllable_encoders = []
    total_encoders = 0
    total_controllable = 0
    boundary = []
    for row in rows:
        p = row["p"]
        factors = tuple(row["state_factors"])
        total_encoders += row["encoder_count"]
        total_controllable += row["controllable_count"]
        predicate_violations += row["predicate_violations"]
        if row["controllable_count"] > 0:
            elementary_checked += row["controllable_count"]
            if any(d != p for d in factors):
                elementary_violations += row["controllable_count"]
        s_order = 1
        for d in factors:
            s_order *= d
        if len(factors) <= 1 and s_order > p:
            cyclic_checked += row["encoder_count"]
            cyclic_violations += row["controllable_count"]
        if factors == (p,):
            boundary.append(
                {
                    "p": p,
                    "ambient_factors": row["ambient_factors"],
                    "encoder_count": row["encoder_count"],
                    "controllable_count": row["controllable_count"],
                }
            )
        for witness in row["controllable"]:
            controllable_encoders.append(
                {
                    "p": p,
                    "state_factors": row["state_factors"],
                    "ambient_factors": row["ambient_factors"],
                    "normal_generator": row["normal_generator"],
                    "next_state_images": witness["next_state_images"],
                    "index": witness["index"],
                }
            )

    report_rows = [
        {key: value for key, value in row.items() if key != "controllable"}
        for row in rows
    ]
    checks = {
        "controllable_implies_elementary_state_group": {
            "checked": elementary_checked,
            "violations": elementary_violations,
        },
        "long_cyclic_state_group_never_controllable": {
            "checked": cyclic_checked,
            "violations": cyclic_violations,
        },
        "predicate_violations": predicate_violations,
    }
    return SweepReport(
        parameters={
            "primes": primes,
            "max_state_order": max_s_order,
            "deduplicated": dedup,
        },
        rows=report_rows,
        controllable_encoders=controllable_encoders,
        checks=checks,
        totals={
            "instances": len(rows),
            "encoders": total_encoders,
            "controllable": total_controllable,
            "prime_cyclic_boundary": boundary,
        },
        elapsed_seconds=time.perf_counter() - start,
    )
