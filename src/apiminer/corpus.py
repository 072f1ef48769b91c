"""Seeded synthetic traffic corpus with per-request ground-truth labels."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .noise import _Draws
from .records import Dataset, HttpRecord, _new_tuple

_HOST = "https://app.example.com"
# every record of a corpus holds this one header list
_JSON_HEADERS = (("Content-Type", "application/json"),)

# Resource nouns, pairwise at least two edits apart.  Template mining does not
# need that spacing to keep endpoints apart, since a spelling only joins one
# that occurs at least twice as often; endpoints one edit apart are tested
# with their own captures.  The words stay as they are: every generated
# capture, and every figure measured on one, depends on them.
_RESOURCE_WORDS = (
    "orders", "invoices", "customers", "payments", "shipments",
    "products", "reviews", "sessions", "tickets", "warehouses",
    "refunds", "vehicles", "bookings", "employees", "suppliers",
    "catalogs", "messages", "accounts", "licenses", "channels",
    "devices", "regions", "baskets", "coupons", "audit-logs", "price-rules",
)
_TAIL_WORDS = ("status", "history", "details", "summary", "comments", "ratings")

_METHOD_MIX = ("GET", "POST", "GET", "PUT", "DELETE")
_ID_STYLES = ("int", "uuid", "hex")
# path depths the non-twin endpoints cycle through
_DEPTHS = (3, 4, 5)
_QUERY_PROFILES = ((), ("page", "limit"), ("sort",), ("page",))

# Endpoints come in pairs every TWIN_STRIDE indices: the pair shares one path
# template and method but exposes two behavioral profiles (query-driven reads
# vs. payload-driven writes), so only second-stage refinement can tell the two
# endpoints apart.
TWIN_STRIDE = 20


@dataclass(frozen=True)
class CorpusSpec:
    endpoint_count: int = 20
    requests_per_endpoint: int = 50
    seed: int = 42

    def __post_init__(self):
        if self.endpoint_count < 1 or self.requests_per_endpoint < 1:
            raise ValueError("all counts must be >= 1")


def _word(index: int) -> str:
    base = _RESOURCE_WORDS[index % len(_RESOURCE_WORDS)]
    tier = index // len(_RESOURCE_WORDS)
    if tier == 0:
        return base
    if tier - 1 < len(_TAIL_WORDS):
        return base + "-" + _TAIL_WORDS[tier - 1]
    raise ValueError("endpoint_count exceeds the distinct-vocabulary budget")


# ``rng.bytes(k)`` is k / 4 raw 32-bit words, each as its little-endian
# bytes: 4 words for a uuid, 2 for a hex id
_FOUR_WORDS = struct.Struct("<4I").pack
_TWO_WORDS = struct.Struct("<2I").pack


def _drawn_id(style: str, draws: _Draws) -> str:
    """One id of ``style``, the one an ``integers(100, 999999)``,
    ``bytes(16)`` or ``bytes(8)`` call would draw."""
    word = draws.word
    if style == "int":
        return str(100 + draws.below(999899))
    if style == "uuid":
        raw = _FOUR_WORDS(word(), word(), word(), word()).hex()
        return f"{raw[:8]}-{raw[8:12]}-{raw[12:16]}-{raw[16:20]}-{raw[20:]}"
    if style == "hex":
        return _TWO_WORDS(word(), word()).hex()
    raise ValueError(f"unknown id style {style!r}")


@dataclass(frozen=True)
class _EndpointPlan:
    label: str
    method: str
    prefix: tuple[str, ...]      # fixed segments before the id position
    has_id: bool
    tail: str | None             # fixed segment after the id position
    id_style: str
    query_keys: tuple[str, ...]
    # (body_size, field_count, nesting); twin-B endpoints alternate between
    # the two entries, everyone else uses a single constant entry
    body_profiles: tuple[tuple[int, int, int], ...]


def _plan_endpoints(spec: CorpusSpec) -> list[_EndpointPlan]:
    plans: list[_EndpointPlan] = []
    for i in range(spec.endpoint_count):
        twin_a = (i % TWIN_STRIDE == TWIN_STRIDE - 2) and (i + 1 < spec.endpoint_count)
        twin_b = i % TWIN_STRIDE == TWIN_STRIDE - 1 and i > 0
        # the endpoint whose resource word and id style this one takes: a
        # twin pair shares the A-endpoint's, and so its template
        a = i - 1 if twin_b else i
        if twin_a or twin_b:
            # A reads by query, B writes bodies of two sizes
            method, has_id, tail = "POST", True, None
            query_keys: tuple[str, ...] = () if twin_b else ("cursor",)
            bodies = ((1, 1, 1), (8000, 20, 5)) if twin_b else ((0, 0, 0),)
        else:
            # cycle through the depths, starting one above the minimum so the
            # smallest specs still exercise a variable position
            depth = _DEPTHS[(i + 1) % len(_DEPTHS)]
            has_id = depth >= 4
            tail = _TAIL_WORDS[i % len(_TAIL_WORDS)] if depth >= 5 else None
            method = _METHOD_MIX[i % len(_METHOD_MIX)]
            if method in ("POST", "PUT", "PATCH", "DELETE"):
                query_keys = ()
                body = (120 + 35 * (i % 7), 3 + (i % 5), 1 + (i % 3))
                if method == "DELETE":
                    body = (0, 0, 0)
            else:
                query_keys = _QUERY_PROFILES[i % len(_QUERY_PROFILES)]
                body = (0, 0, 0)
            bodies = (body,)
        plans.append(
            _EndpointPlan(
                label=f"EP_{i:02d}",
                method=method,
                prefix=("api", "v1", _word(a)),
                has_id=has_id,
                tail=tail,
                id_style=_ID_STYLES[a % len(_ID_STYLES)],
                query_keys=query_keys,
                body_profiles=bodies,
            )
        )
    return plans


def _endpoint_urls(plan: _EndpointPlan, rng: np.random.Generator, count: int) -> list[str]:
    """The URLs of an endpoint's ``count`` requests, in request order.

    Each request draws its id, if it has one, then its query value, if it
    has query keys, from the endpoint's own generator: decoded by ``_Draws``
    from the generator's raw words, as the scalar calls would draw them.
    """
    head = _HOST + "/" + "/".join(plan.prefix)
    tail = "" if plan.tail is None else "/" + plan.tail
    keys = tuple(enumerate(plan.query_keys))
    draws = _Draws(rng)
    urls = []
    for _ in range(count):
        url = head + "/" + _drawn_id(plan.id_style, draws) + tail if plan.has_id else head + tail
        if keys:
            # integers(1, 500)
            value = 1 + draws.below(499)
            url += "?" + "&".join(f"{k}={value + n}" for n, k in keys)
        urls.append(url)
    return urls


def synth_corpus(spec: CorpusSpec) -> Dataset:
    """Deterministic labeled corpus: endpoint_count templates, fixed request
    count each, interleaved round-robin the way mixed live traffic arrives."""
    plans = _plan_endpoints(spec)
    count = spec.requests_per_endpoint
    urls = [
        _endpoint_urls(plan, np.random.default_rng(spec.seed * 1_000_003 + e), count)
        for e, plan in enumerate(plans)
    ]
    # each body profile's counts as HttpRecord's checks hold them: no
    # structure counts for an empty body
    bodies = [
        [(size, fields or None, nesting or None) for size, fields, nesting in plan.body_profiles]
        for plan in plans
    ]

    records: list[HttpRecord] = []
    append = records.append
    for j in range(count):
        for plan, column, profiles in zip(plans, urls, bodies):
            body_size, fields, nesting = profiles[j % len(profiles)]
            # the fields as HttpRecord's checks hold them: an upper-case
            # method, the one header tuple and small counts
            append(_new_tuple(HttpRecord, (
                len(records), plan.method, column[j], _JSON_HEADERS, "application/json",
                body_size, fields, nesting, plan.label,
            )))
    return Dataset(records=records, source=f"synth-seed{spec.seed}")
