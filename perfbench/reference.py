"""From-scratch reference answers, computed in-process before the clock.

Every Table-1 scenario gets its own fresh :class:`AnalysisSession`; a
delta stream is replayed through its own :class:`LiveAuditSession`.  A
daemon reply is correct when its *answer* — the projection of the
payload that states the verdict and its evidence — equals the
reference's.  Timings and cache counters are not part of an answer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro import AnalysisSession, PublishingPlan, SecurityAuditor
from repro.core.prior import KeyConstraintKnowledge
from repro.io import dictionary_from_dict, schema_from_dict
from repro.session import LiveAuditSession, fact_from_document


def request_key(document: Mapping[str, Any]) -> str:
    """Identity of a request document, ignoring its ``id``."""
    return json.dumps({k: v for k, v in document.items() if k != "id"}, sort_keys=True)


def _exact(value: Any) -> Optional[str]:
    """The exact field of a ``{"exact": ..., "float": ...}`` payload entry."""
    return value.get("exact") if isinstance(value, Mapping) else None


def analysis_answer(op: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The answer part of an analysis payload."""
    answer: Dict[str, Any] = {"verdict": payload.get("verdict")}
    if op == "decide":
        answer["common_critical_count"] = payload.get("common_critical_count")
    elif op == "quick":
        answer["conclusive"] = payload.get("conclusive")
    elif op == "collusion":
        answer["insecure_recipients"] = payload.get("insecure_recipients")
    elif op == "leakage":
        for key in ("leakage", "prior", "posterior"):
            answer[key] = _exact(payload.get(key))
    elif op == "with_knowledge":
        answer["method"] = payload.get("method")
    elif op == "plan":
        answer["entries"] = payload.get("entries")
    elif op == "audit":
        answer["findings"] = payload.get("findings")
    return answer


def _fraction(value) -> Optional[str]:
    return None if value is None else str(value)


def _reference_payload(session: AnalysisSession, document: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one request on ``session`` through the public library API."""
    op = document["op"]
    secret, views = document.get("secret"), document.get("views")
    if op == "decide":
        result = session.decide(secret, views)
        return {"verdict": result.verdict, "common_critical_count": len(result.decision.common_critical)}
    if op == "quick":
        result = session.quick_check(secret, views)
        return {"verdict": result.verdict, "conclusive": result.conclusive}
    if op == "collusion":
        result = session.collusion(secret, views)
        return {"verdict": result.verdict, "insecure_recipients": list(result.report.insecure_recipients)}
    if op == "leakage":
        result = session.leakage(secret, views)
        measurement = result.measurement
        payload = {"verdict": result.verdict, "leakage": {"exact": _fraction(measurement.leakage)}}
        if measurement.prior is not None:
            payload["prior"] = {"exact": _fraction(measurement.prior)}
            payload["posterior"] = {"exact": _fraction(measurement.posterior)}
        return payload
    if op == "verify":
        return {"verdict": session.verify(secret, views).verdict}
    if op == "with_knowledge":
        keys = document["knowledge"]["keys"]
        knowledge = KeyConstraintKnowledge({name: tuple(p) for name, p in keys.items()})
        result = session.with_knowledge(secret, views, knowledge)
        return {"verdict": result.verdict, "method": result.decision.method}
    if op == "plan":
        result = session.audit_plan(PublishingPlan(secrets=document["secrets"], views=views))
        entries = [
            {"secret": e.secret_name, "recipient": e.recipient, "view": e.view_name, "secure": e.secure}
            for e in result.entries
        ]
        return {"verdict": result.verdict, "entries": entries}
    if op == "audit":
        report = SecurityAuditor(session.schema, session=session).audit(secret, views)
        return {"verdict": report.all_secure, "findings": report.to_dict()["findings"]}
    raise ValueError(f"no reference for operation {op!r}")


def _session_for(schema_document: Mapping[str, Any]) -> AnalysisSession:
    schema = schema_from_dict(schema_document)
    return AnalysisSession(schema, dictionary=dictionary_from_dict(schema_document, schema))


def scenario_references(scenarios: Sequence[Sequence[Mapping[str, Any]]]) -> Dict[str, Dict[str, Any]]:
    """Request key -> reference answer; one fresh session per scenario."""
    references: Dict[str, Dict[str, Any]] = {}
    for documents in scenarios:
        session = _session_for(documents[0]["schema"])
        for document in documents:
            payload = _reference_payload(session, document)
            references[request_key(document)] = analysis_answer(document["op"], payload)
    return references


#: Notification fields that state a live session's verdicts and state.
_LIVE_FIELDS = (
    "event", "revision", "fact_count", "changed", "flipped_views", "views", "secrets",
    "added", "removed", "net_facts", "reaudited", "retained", "view", "events",
    "stats", "secret_names", "view_names",
)


def live_answer(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The answer part of a live notification or snapshot."""
    return {key: payload[key] for key in _LIVE_FIELDS if key in payload}


class LiveReference:
    """A local replay of one delta stream, one ``apply-delta`` at a time."""

    def __init__(self, create: Mapping[str, Any]):
        schema = schema_from_dict(create["schema"])
        self._live = LiveAuditSession(
            schema,
            secrets=create["secrets"],
            views=create["views"],
            facts=[fact_from_document(fact) for fact in create["facts"]],
            dictionary=dictionary_from_dict(create["schema"], schema),
        )
        #: The answer of the ``live-create`` reply.
        self.created = live_answer(self._live.snapshot())

    def apply(self, delta: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """The ``apply-delta`` answer and the ``live-audit`` answer after it.

        Within one delta the server retracts, then publishes, then
        applies the fact delta, and answers with the last notification
        plus the number of events.
        """
        live = self._live
        notifications = [live.retract(name) for name in delta.get("retract", ())]
        notifications += [live.publish(name, query) for name, query in delta.get("publish", {}).items()]
        added = [fact_from_document(fact) for fact in delta.get("add", ())]
        removed = [fact_from_document(fact) for fact in delta.get("remove", ())]
        if added or removed or not notifications:
            notifications.append(live.apply_delta(added=added, removed=removed))
        reply = dict(notifications[-1], events=len(notifications))
        return live_answer(reply), live_answer(live.snapshot())

    def consistent(self) -> bool:
        """Whether every incrementally maintained answer of the replay equals
        a from-scratch evaluation of the current facts."""
        return self._live.self_check()["consistent"]
