"""Decision fields of a job report: the part of the answer the benchmark
checks against `expected/`.

Evidence strings, traces and timing are left out, so a change that keeps
every verdict but words its evidence differently still passes.
"""

from __future__ import annotations


def _check_fields(report: dict) -> dict:
    out = {
        "verdict": report["verdict"],
        "stability": report["stability"],
        "per_power": [[c["q"], c["alpha"], c["relation"]]
                      for c in report["per_power"]],
    }
    if "witness" in report:
        out["witness_degree"] = report["witness"]["degree"]
    return out


def decision_fields(task: str, results: dict) -> dict:
    """Reduce `results` of one task to its decision fields (JSON types)."""
    if task == "check":
        out = _check_fields(results["report"])
        if "pullback" in results:
            out["pullback"] = _check_fields(results["pullback"]["report"])
        return out
    if task == "sections":
        return {"sections": dict(results["sections"])}
    if task == "tannaka":
        fp = results["fingerprint"]
        stability = results["stability"]
        return {
            "stability": stability.get("stability", stability.get("assumed")),
            "dims": {q: cell["value"] for q, cell in fp["dims"].items()},
            "simplicity": fp["simplicity"],
            "selfdual": fp["selfdual"],
            "group": results["group"]["label"],
        }
    if task == "restrict":
        return {"certificate": results["certificate"]["level"],
                "k_min": results["bound"]["k_min"]}
    if task == "closure":
        out = {"tau": results["threshold"]["tau"],
               "m_min": results["threshold"]["m_min"]}
        membership = results.get("membership")
        if membership is not None:
            out["member"] = membership.get("member",
                                           membership.get("member_by_threshold"))
        return out
    if task == "validate":
        return {"valid": results["valid"], "surjective": results["surjective"]}
    raise ValueError(f"no decision fields for task {task!r}")
