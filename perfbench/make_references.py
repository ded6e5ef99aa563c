"""Write the reference answers in perfbench/references/.

    python3 perfbench/make_references.py [workload ...]

For plant-serve every answer comes from ``tampnet.oracle.joint_search``,
an exact search over joint agent states that shares no code with the
planner (about 0.05 s per query on that map). The oracle is out of reach on
the sparse-reduce map, so its answers are the planner's own at the commit
that introduced the benchmark, each route checked by ``validate.py`` and
each verdict by ``instances.decide``; they pin behaviour, they do not
prove optimality. The script stops without writing when the planner and
a reference disagree.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, log
from instances import cell_atoms, decide, parse_formula, reduction_is_complete, sha256_of
from validate import MapFacts, validate
from workloads import ORACLE, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

from tampnet import (Infeasible, build_offline, cost_text, joint_search,  # noqa: E402
                     net_digest, parse, parse_env, plan, plan_json_text)


def make(workload) -> dict:
    env_dict = workload.make_env(ROOT)
    env = parse_env(env_dict)
    offline = build_offline(env)
    facts = MapFacts.of(env_dict)
    decidable = reduction_is_complete(env_dict)
    atoms = cell_atoms(env_dict)
    answers = []
    for text in workload.pool(env_dict):
        formula = parse_formula(text)
        result = plan(env, text, offline)
        mine = None if isinstance(result, Infeasible) else result.total_cost
        if mine is not None:
            routed = validate(facts, formula, json.loads(plan_json_text(env, result)))
            if routed != mine:
                raise SystemExit(f"{workload.name}: {text!r} route costs {routed}, plan says {mine}")
        if decidable and decide(atoms, len(facts.starts), formula) != (mine is not None):
            raise SystemExit(f"{workload.name}: {text!r} planner and decider disagree")
        if workload.answers_from == ORACLE:
            found = joint_search(env, parse(text))
            reference = None if found is None else found.cost
            if reference != mine:
                raise SystemExit(f"{workload.name}: {text!r} oracle {reference}, planner {mine}")
        answers.append([text, None if mine is None else cost_text(mine)])
    infeasible = sum(1 for _, cost in answers if cost is None)
    log(f"{workload.name}: {len(answers)} formulas, {infeasible} infeasible, "
        f"{len(offline.graph)} markings")
    return {
        "workload": workload.name,
        "answers_from": (
            "tampnet.oracle.joint_search (exact joint-state search)"
            if workload.answers_from == ORACLE else
            "planner at the commit that added the benchmark; routes checked by "
            "validate.py and verdicts by instances.decide, optimality not "
            "independently checked"),
        "env_sha256": sha256_of(env_dict),
        "net_digest": net_digest(offline.monitored.net),
        "markings": len(offline.graph),
        "reduced_places": offline.simplified.net.num_places,
        "reduced_transitions": offline.simplified.net.num_transitions,
        "answers": answers,
    }


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        data = make(workload)
        path = workload.reference_path()
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        log(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
