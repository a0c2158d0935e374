"""First-match linear rule scan: the spec of the compiled censor policy.

Each function walks ``policy.rules`` in order and returns the verdict of
the first rule that intercepts the stage and matches the observation —
the semantics :class:`~repro.censor.compiled.CompiledPolicy` indexes.
``tests/test_compiled_policy.py`` asserts the shipped stage hooks return
the identical verdict object.
"""

from __future__ import annotations

from typing import Optional

from repro.censor.actions import (
    PASS_DNS,
    PASS_HTTP,
    PASS_IP,
    PASS_TLS,
    DnsVerdict,
    HttpVerdict,
    IpVerdict,
    TlsVerdict,
)
from repro.censor.policy import CensorPolicy

__all__ = [
    "linear_on_dns_query",
    "linear_on_packet",
    "linear_on_http_request",
    "linear_on_tls_client_hello",
]


def linear_on_dns_query(policy: CensorPolicy, qname: str) -> DnsVerdict:
    for rule in policy.rules:
        if rule.dns is not PASS_DNS and rule.matcher.matches_qname(qname):
            return rule.dns
    return PASS_DNS


def linear_on_packet(policy: CensorPolicy, dst_ip: str) -> IpVerdict:
    for rule in policy.rules:
        if rule.ip is not PASS_IP and rule.matcher.matches_ip(dst_ip):
            return rule.ip
    return PASS_IP


def linear_on_http_request(
    policy: CensorPolicy, host: str, path: str
) -> HttpVerdict:
    for rule in policy.rules:
        if rule.http is not PASS_HTTP and rule.matcher.matches_url(host, path):
            return rule.http
    return PASS_HTTP


def linear_on_tls_client_hello(
    policy: CensorPolicy, sni: Optional[str], dst_ip: str
) -> TlsVerdict:
    for rule in policy.rules:
        if rule.tls is PASS_TLS:
            continue
        if rule.matcher.matches_sni(sni) or rule.matcher.matches_ip(dst_ip):
            return rule.tls
    return PASS_TLS
