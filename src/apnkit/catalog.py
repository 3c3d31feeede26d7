"""Function parsing and serialization, built-in fixtures, result
persistence (JSON lines) and trimming-graph export.

Two text grammars are supported:

    lut [id=NAME] n=3 m=3: 00 01 03 02 07 06 04 05
    uni [id=NAME] n=7 mod=0x83: (0x02^92,96) (0x02^50,80) ...

LUT entries are fixed-width hex without 0x prefixes; univariate
coefficients are powers 0x02^k of X, the generator (X = 1 at n = 1), or
raw hex words. Both serializations are byte-deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from typing import Optional, Sequence

from . import gf2
from .extension import build_extension
from .gf2 import FieldSpec, GF2Matrix, default_field
from .ortho import InvariantSignature, invariant_signature
from .trimming import TrimmingGraph
from .vbf import VBF, is_apn, linearity

# ---------------------------------------------------------------------------
# records and the two grammars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionRecord:
    """A parsed function: LUT payload or univariate payload plus field data.

    Univariate terms are kept sorted by descending exponent so records
    round-trip through their serialization unchanged.
    """

    id: str
    n: int
    m: int
    source: str                      # "lut" | "uni"
    table: tuple[int, ...] = ()
    modulus: int = 0
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # the id must read back as the grammar's id=(\S+)
        if not re.fullmatch(r"\S+", self.id):
            raise ValueError(f"record id {self.id!r} is empty or contains whitespace")
        ordered = tuple(sorted(self.terms, key=lambda t: -t[1]))
        if ordered != self.terms:
            object.__setattr__(self, "terms", ordered)

    def to_vbf(self) -> VBF:
        if self.source == "lut":
            return VBF(self.n, self.m, self.table)
        spec = FieldSpec(self.n, self.modulus)
        return VBF.from_univariate(spec, self.terms)


class ParseError(ValueError):
    pass


# decimal fields have at most 9 digits, so int() always converts them
_HEADER = re.compile(
    r"^\s*(lut|uni)\s+(?:id=(\S+)\s+)?n=(\d{1,9})\s+(?:m=(\d{1,9})\s*|mod=(0x[0-9a-fA-F]+)\s*):\s*(.*)$",
    re.DOTALL,
)
_TERM = re.compile(r"^\((0x02\^(\d{1,9})|g\^(\d{1,9})|0x[0-9a-fA-F]+),(\d{1,9})\)$")


def _dimension(digits: str, name: str) -> int:
    value = int(digits)
    if not 1 <= value <= gf2.MAX_WIDTH:
        raise ParseError(f"{name}={digits} outside [1, {gf2.MAX_WIDTH}]")
    return value


def parse_function(text: str) -> FunctionRecord:
    """Parse one function in either grammar, with positioned diagnostics."""
    m = _HEADER.match(text)
    if not m:
        raise ParseError("expected 'lut|uni [id=..] n=.. m=..|mod=..: ...'")
    source, fid, n_str, m_str, mod_str, body = m.groups()
    n = _dimension(n_str, "n")
    if source == "lut":
        if m_str is None:
            raise ParseError("lut header needs m=<bits>")
        out_m = _dimension(m_str, "m")
        tokens = body.split()
        if len(tokens) != 1 << n:
            raise ParseError(
                f"wrong table length: expected {1 << n} entries, got {len(tokens)}")
        table = []
        for idx, tok in enumerate(tokens):
            try:
                v = int(tok, 16)
            except ValueError:
                raise ParseError(f"entry {idx}: {tok!r} is not hex") from None
            if v >> out_m:
                raise ParseError(f"entry {idx}: {tok!r} exceeds {out_m} bits")
            table.append(v)
        fid = fid or f"lut{n}x{out_m}"
        return FunctionRecord(fid, n, out_m, "lut", table=tuple(table))
    if mod_str is None:
        raise ParseError("uni header needs mod=0x<hex>")
    modulus = int(mod_str, 16)
    try:
        spec = FieldSpec(n, modulus)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    exp = gf2.exp_table(spec)
    terms = []
    for idx, tok in enumerate(body.split()):
        tm = _TERM.match(tok)
        if not tm:
            raise ParseError(f"term {idx}: {tok!r} is not (coeff,exponent)")
        g_exp = tm.group(2) or tm.group(3)
        if g_exp is not None:
            coeff = exp[int(g_exp) % len(exp)]
        else:
            coeff = int(tm.group(1), 16)
            if coeff >> n:
                raise ParseError(f"term {idx}: coefficient exceeds {n} bits")
        e = int(tm.group(4))
        if e >= (1 << n):
            raise ParseError(f"term {idx}: exponent {e} overflows 2^{n}-1")
        terms.append((coeff, e))
    fid = fid or f"uni{n}"
    return FunctionRecord(fid, n, n, "uni", modulus=modulus, terms=tuple(terms))


def serialize_record(rec: FunctionRecord) -> str:
    if rec.source == "lut":
        width = (rec.m + 3) // 4
        body = " ".join(f"{v:0{width}x}" for v in rec.table)
        return f"lut id={rec.id} n={rec.n} m={rec.m}: {body}"
    spec = FieldSpec(rec.n, rec.modulus)
    log = gf2.log_table(spec)
    parts = []
    for coeff, e in rec.terms:
        if coeff in log:
            parts.append(f"(0x02^{log[coeff]},{e})")
        else:
            parts.append(f"(0x{coeff:x},{e})")
    return f"uni id={rec.id} n={rec.n} mod={rec.modulus:#x}: " + " ".join(parts)


def record_from_vbf(f: VBF, fid: str) -> FunctionRecord:
    return FunctionRecord(fid, f.n, f.m, "lut", table=tuple(int(v) for v in f.table))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

_APPENDIX_R_HEX = """
00 79 b2 e1 39 c7 70 a4 36 c0 22 fe 5e 2f b1 ea
b9 f8 1d 76 28 ee 77 9b 0a c4 08 ec ca 83 33 50
1e 1d 70 59 b5 31 20 8e 58 d4 90 36 a2 a9 91 b0
8d b6 f5 e4 8e 32 0d 9b 4e fa 90 0e 1c 2f 39 20
8e 26 1f 9d ba 95 d0 d5 a6 81 91 9c c3 63 0f 85
fc 6c 7b c1 60 77 1c 21 51 4e 70 45 9c 04 46 f4
2f fd 62 9a 89 dc 3f 40 77 2a 9c eb 80 5a 90 60
77 9d 2c ec 79 14 d9 9e aa cf 57 18 f5 17 f3 3b
46 bf d8 0b 0b 75 6e 3a 9c ea a4 f8 80 71 43 98
eb 2a 63 88 0e 48 7d 11 b4 fa 9a fe 00 c9 d5 36
ef 6c ad 04 30 34 89 a7 45 49 a1 87 cb 40 d4 75
68 d3 3c ad 1f 23 b0 a6 47 73 b5 ab 61 d2 68 f1
d1 f9 6c 6e 91 3e d7 52 15 b2 0e 83 04 24 e4 ee
b7 a7 1c 26 5f c8 0f b2 f6 69 fb 4e 4f 57 b9 8b
c7 95 a6 de 15 c0 8f 70 73 ae b4 43 f0 aa cc bc
8b e1 fc bc f1 1c 7d ba ba 5f 6b a4 91 f3 bb f3
"""

# univariate form of the same 8-bit function over X^8+X^4+X^3+X^2+1
_APPENDIX_R_TERMS = (
    (157, 1), (237, 2), (169, 3), (56, 4), (43, 5), (11, 6), (154, 8),
    (89, 9), (155, 10), (221, 12), (157, 16), (5, 17), (245, 18), (32, 20),
    (127, 24), (49, 32), (81, 33), (4, 34), (146, 36), (223, 40), (44, 48),
    (70, 64), (127, 65), (113, 66), (52, 68), (253, 72), (209, 80),
    (239, 96), (43, 128), (4, 129), (99, 130), (89, 132), (26, 136),
    (47, 144), (220, 160), (253, 192),
)

# 7-bit generators of the four maximum-linearity classes one dimension up,
# as (generator exponent, monomial exponent) over X^7+X+1
_G7_TERMS = {
    1: ((92, 96), (50, 80), (27, 72), (28, 68), (0, 66), (97, 65), (60, 48),
        (88, 40), (123, 36), (43, 34), (32, 33), (26, 24), (100, 20),
        (115, 18), (85, 17), (111, 12), (28, 10), (93, 9), (113, 6),
        (53, 5), (10, 3)),
    2: ((68, 96), (3, 80), (58, 72), (39, 68), (43, 66), (96, 65), (118, 48),
        (102, 40), (61, 36), (69, 34), (59, 33), (110, 24), (99, 20),
        (53, 18), (63, 17), (55, 12), (98, 10), (31, 9), (57, 6), (69, 5),
        (87, 3)),
    3: ((71, 96), (46, 80), (15, 72), (126, 68), (44, 65), (38, 48),
        (104, 40), (0, 36), (73, 34), (83, 33), (38, 24), (3, 20),
        (120, 18), (34, 17), (78, 12), (108, 10), (28, 9), (113, 6),
        (100, 5), (70, 3)),
    4: ((71, 96), (20, 80), (125, 72), (40, 68), (71, 66), (75, 65),
        (113, 48), (100, 40), (29, 36), (62, 34), (40, 33), (97, 24),
        (22, 20), (111, 18), (106, 17), (86, 12), (29, 10), (1, 9),
        (64, 6), (51, 5), (16, 3)),
}

# 6-bit table entries no. 1.2 and 2.1 over X^6+X^4+X^3+X+1
_EP6_MODULUS = 0b1011011
_EP6_TERMS = {
    "1.2": ((0, 3), (11, 6), (1, 9)),
    "2.1": ((0, 3), (1, 24), (0, 10)),
}


def _terms_from_exponents(spec: FieldSpec,
                          pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    exp = gf2.exp_table(spec)
    return tuple((exp[k % len(exp)], e) for k, e in pairs)


@lru_cache(maxsize=None)
def appendix_r() -> VBF:
    table = [int(t, 16) for t in _APPENDIX_R_HEX.split()]
    f = VBF(8, 8, table)
    _verify(f, "appendixA_R", degree=2)
    return f


@lru_cache(maxsize=None)
def appendix_r_univariate() -> VBF:
    spec = default_field(8)
    return VBF.from_univariate(spec, _terms_from_exponents(spec, _APPENDIX_R_TERMS))


@lru_cache(maxsize=None)
def g7(i: int) -> VBF:
    spec = default_field(7)
    f = VBF.from_univariate(spec, _terms_from_exponents(spec, _G7_TERMS[i]))
    _verify(f, f"G{i}", degree=2)
    return f


@lru_cache(maxsize=None)
def gold(n: int) -> VBF:
    # x^3, which is x at n = 1
    f = VBF.from_univariate(default_field(n), [(1, 3 if n > 1 else 1)])
    _verify(f, f"gold{n}", degree=(2 if n > 1 else 1))
    return f


@lru_cache(maxsize=None)
def t6() -> VBF:
    """Maximum-linearity 6-bit function, built as the 0-extension of the
    cube map over F_32 with L = x^16 + x and l = Tr."""
    spec = default_field(5)
    g = gold(5)
    cols = [gf2.field_pow(spec, 1 << j, 16) ^ (1 << j) for j in range(5)]
    lin = GF2Matrix.from_columns(cols, 5)
    f = build_extension(g, None, lin, gf2.trace_form(spec))
    _verify(f, "T6", degree=2, lin_value=32)
    return f


@lru_cache(maxsize=None)
def t8(i: int) -> VBF:
    """Maximum-linearity 8-bit representatives: (G_i(x), 0) + (x, Tr(x)) y."""
    f = build_extension(g7(i), None, GF2Matrix.identity(7),
                        gf2.trace_form(default_field(7)))
    _verify(f, f"T8_{i}", degree=2, lin_value=128)
    return f


@lru_cache(maxsize=None)
def edelpott6(no: str) -> VBF:
    """6-bit APN table entries; no. 2.6 is realized through its
    maximum-linearity representative t6()."""
    if no == "2.6":
        return t6()
    spec = FieldSpec(6, _EP6_MODULUS)
    f = VBF.from_univariate(spec, _terms_from_exponents(spec, _EP6_TERMS[no]))
    _verify(f, f"EP6_{no}", degree=2)
    return f


def _verify(f: VBF, name: str, degree: int,
            lin_value: Optional[int] = None) -> None:
    if f.degree != degree:
        raise RuntimeError(f"fixture {name}: degree {f.degree} != {degree}")
    if not is_apn(f):
        raise RuntimeError(f"fixture {name}: not APN")
    if lin_value is not None and linearity(f) != lin_value:
        raise RuntimeError(f"fixture {name}: linearity != {lin_value}")


_FIXTURES = {
    "appendixA_R": appendix_r,
    "G1": lambda: g7(1), "G2": lambda: g7(2),
    "G3": lambda: g7(3), "G4": lambda: g7(4),
    "T6": t6,
    "T8_1": lambda: t8(1), "T8_2": lambda: t8(2),
    "T8_3": lambda: t8(3), "T8_4": lambda: t8(4),
    "EP6_1_2": lambda: edelpott6("1.2"),
    "EP6_2_1": lambda: edelpott6("2.1"),
    "EP6_2_6": lambda: edelpott6("2.6"),
}
for _n in range(3, 9):
    _FIXTURES[f"gold{_n}"] = (lambda k: lambda: gold(k))(_n)


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def fixture(name: str) -> VBF:
    try:
        return _FIXTURES[name]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; "
                         f"available: {', '.join(fixture_names())}") from None


# ---------------------------------------------------------------------------
# result persistence (JSON lines)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRecord:
    id: str
    n: int
    m: int
    lut_hex: str
    signature: str
    provenance: str
    timestamp: str

    def to_vbf(self) -> VBF:
        width = (self.m + 3) // 4
        s = self.lut_hex
        table = [int(s[i:i + width], 16) for i in range(0, len(s), width)]
        return VBF(self.n, self.m, table)


def result_record(f: VBF, fid: str, provenance: str,
                  sig: Optional[InvariantSignature] = None) -> ResultRecord:
    sig = sig if sig is not None else invariant_signature(f)
    width = (f.m + 3) // 4
    lut_hex = "".join(f"{int(v):0{width}x}" for v in f.table)
    return ResultRecord(fid, f.n, f.m, lut_hex, sig.canonical(), provenance,
                        datetime.now(timezone.utc).isoformat())


def persist_results(records: Sequence[ResultRecord], path: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "id": rec.id, "n": rec.n, "m": rec.m, "lut": rec.lut_hex,
                "signature": rec.signature, "provenance": rec.provenance,
                "timestamp": rec.timestamp,
            }, sort_keys=True) + "\n")


def load_results(*paths: str) -> tuple[list[ResultRecord], int]:
    """Merge result files into (records, skipped line count). Only a record
    whose exact function (n, m and table) an earlier one holds is dropped;
    a line that is not UTF-8, JSON or a record (each decoded alone) is skipped."""
    out: list[ResultRecord] = []
    seen: set[VBF] = set()
    skipped = 0
    for path in paths:
        with open(path, "rb") as fh:
            for raw in fh:
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    d = json.loads(line)
                    rec = ResultRecord(d["id"], int(d["n"]),
                                       int(d.get("m", d["n"])),
                                       d["lut"], d["signature"],
                                       d.get("provenance", ""),
                                       d.get("timestamp", ""))
                    f = rec.to_vbf()
                except (ValueError, KeyError, TypeError):  # UnicodeDecodeError too
                    skipped += 1
                    continue
                if f in seen:
                    continue
                seen.add(f)
                out.append(rec)
    return out, skipped


# ---------------------------------------------------------------------------
# trimming-graph export
# ---------------------------------------------------------------------------

_GRAPH_NOTE = "nodes are invariant-signature classes; EA-class counts are lower bounds"


def export_graph(graph: TrimmingGraph, fmt: str = "dot") -> str:
    """Deterministic DOT or JSON-lines rendering, isolated nodes omitted."""
    nodes = sorted(graph.nonisolated(), key=lambda v: v.sort_key())
    edges = sorted(graph.edges,
                   key=lambda e: (e[0].sort_key(), e[1].sort_key()))
    if fmt == "dot":
        lines = ["digraph trims {", f"  // {_GRAPH_NOTE}"]
        by_dim: dict[int, list] = {}
        for v in nodes:
            by_dim.setdefault(v.dim, []).append(v)
        for dim in sorted(by_dim, reverse=True):
            ids = "; ".join(f'"{v.node_id()}"' for v in by_dim[dim])
            lines.append(f"  {{ rank=same; {ids}; }}")
        for v in nodes:
            lines.append(
                f'  "{v.node_id()}" [label="n={v.dim} {v.node_id()[:8]}"];')
        for a, b in edges:
            lines.append(f'  "{a.node_id()}" -> "{b.node_id()}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        lines = [json.dumps({"type": "meta", "note": _GRAPH_NOTE})]
        for v in nodes:
            lines.append(json.dumps(
                {"type": "node", "id": v.node_id(), "dim": v.dim},
                sort_keys=True))
        for a, b in edges:
            lines.append(json.dumps(
                {"type": "edge", "src": a.node_id(), "src_dim": a.dim,
                 "dst": b.node_id(), "dst_dim": b.dim}, sort_keys=True))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")
