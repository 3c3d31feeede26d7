"""Write reference.json: the trim spectrum of every input class, computed
trim by trim with the plain-numpy code in oracle.py.

The inputs come from apnkit's fixtures; the spectra do not use apnkit.
Run from the repository root (about ten minutes on two cores):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from apnkit import catalog, gf2, vbf  # noqa: E402


def inputs() -> dict:
    alpha, beta = 128, 128            # y = 0, output bit 7 dropped
    r = catalog.fixture("appendixA_R").table
    out = {name: catalog.fixture(name).table
           for name in ("G1", "G2", "G3", "G4", "gold7", "T6")}
    out["inv7"] = vbf.VBF.from_univariate(gf2.default_field(7), [(1, 126)]).table
    out["R7"] = oracle.trim_table(r, 8, alpha, 0, beta, beta)
    return out


def main() -> int:
    ref = {}
    for name, tab in inputs().items():
        n = len(tab).bit_length() - 1
        counts = oracle.trim_spectrum(tab, n)
        apn = {s: 1 for s in counts if s[1]}
        ref[name] = {"n": n, "total": sum(counts.values()),
                     "distinct": len(counts), "digest": oracle.multiset_digest(counts),
                     "apn_classes": len(apn), "apn_digest": oracle.multiset_digest(apn)}
        print(name, ref[name], flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
