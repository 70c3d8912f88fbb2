"""Record the pinned inputs and counts of the ``verify`` workload.

Writes ``perfbench/verify_pins.json``: every germ with ``1 <= p <= q <= 12``
whose default verification bounds satisfy ``max_vertices + max_weight <= 12``,
with its bounds, its equal-work class (the canonical key of its minimal
diagram: germs of one class run the same enumeration and the same ``geq``
searches) and the ``examined`` count of ``verify``.  The benchmark checks
every ``verify`` op against these counts, so re-record them only when a
change is meant to move them.

    python3 perfbench/record_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from enriques import QuasihomogeneousSpec, minimal_diagram, verify_maximality  # noqa: E402

BOUND = 12
OUT = Path(__file__).resolve().parent / "verify_pins.json"


def main() -> None:
    pins = []
    for p in range(1, BOUND + 1):
        for q in range(p, BOUND + 1):
            for k in (0, 1):
                for l in (0, 1):
                    if k + l + p < 2:
                        continue
                    spec = QuasihomogeneousSpec(k, l, p, q)
                    minimal = minimal_diagram(spec)
                    max_vertices = len(minimal) + 4
                    max_weight = minimal.nu[minimal.root] + 2
                    if max_vertices + max_weight > BOUND:
                        continue
                    report = verify_maximality(spec)
                    pins.append(
                        {
                            "spec": f"{k},{l},{p},{q}",
                            "class": minimal.key,
                            "max_vertices": max_vertices,
                            "max_weight": max_weight,
                            "examined": report.examined,
                        }
                    )
    OUT.write_text("[\n" + ",\n".join(json.dumps(pin) for pin in pins) + "\n]\n")
    print(f"{len(pins)} specs in {len({pin['class'] for pin in pins})} classes -> {OUT}")


if __name__ == "__main__":
    main()
