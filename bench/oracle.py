"""Independent checks of workload outputs, run in a process of their own.

    python3 bench/oracle.py < request.json

A request is {"workload": NAME, "outputs": [stdout, ...], "inputs":
[...]} and the answer is {"checked": N, "failed": {output index: [operation
index, ...]}}.  Operation indices are those of ``workloads.operations``.

* graph, deep: every slope is recomputed with
  ``pullback_slope_via_residues``, the residue-table closed form for the
  bundled example, which shares no code with the zigzag.
* certify: the printed half-space slopes are rebuilt into a certificate
  with ``certificate_for_slopes`` and re-verified with
  ``check_certificate``, here, where no memo state of the producer
  exists.
* census: for groups of order at most ``oracle_max_order`` the subsets
  are recounted with ``is_nonseparating``, which goes through
  ``coset_numbers`` and ``cyclic_pairs``, not ``_coset_value_maps``.
"""
import json
import sys
from itertools import combinations
from pathlib import Path

from workloads import ROOT, WORKLOADS, operations, presentation

sys.path.insert(0, str(ROOT / "src"))


def residue_image(slope_text: str) -> str:
    from netmap.slope import Slope
    from netmap.slopefn import pullback_slope_via_residues

    return str(pullback_slope_via_residues(Slope.parse(slope_text)))


def check_graph(output: str) -> list[int]:
    bad = []
    for i, row in enumerate(operations("graph", output)):
        slope, _value, image, _image_value = row.split(",")
        if residue_image(slope) != image:
            bad.append(i)
    return bad


def check_deep(output: str, slope: str) -> list[int]:
    return [] if output == residue_image(slope) + "\n" else [0]


def check_certify(output: str) -> list[int]:
    import netmap
    from netmap.slope import Slope

    lines = output.splitlines()
    if not lines or not lines[0].startswith("UNOBSTRUCTED"):
        return [0]
    slopes = [
        Slope.parse(line.split()[1]) for line in lines[1:] if line.startswith("  slope ")
    ]
    leftovers = sum(line.startswith("  leftover ") for line in lines[1:])
    pres = netmap.parse(Path(presentation()).read_text(encoding="utf-8"))
    cert, obstruction = netmap.certificate_for_slopes(pres, slopes)
    ok = (
        obstruction is None
        and cert is not None
        and len(cert.halfspaces) == len(slopes) == int(lines[0].split("(")[1].split()[0])
        and len(cert.dispositions) == leftovers
        and netmap.check_certificate(pres, cert)
    )
    return [] if ok else [0]


def check_census(output: str) -> list[int]:
    from netmap.nonsep import FinAbGroup, SymmetricFour, inversion_classes, is_nonseparating

    max_order = WORKLOADS["census"]["oracle_max_order"]
    bad = []
    for i, row in enumerate(operations("census", output)):
        tokens = row.split()
        m, n, order = int(tokens[0][2:]), int(tokens[2][2:]), int(tokens[3])
        if order > max_order:
            continue
        group = FinAbGroup(m, n)
        count = sum(
            is_nonseparating(group, SymmetricFour(combo))
            for combo in combinations(inversion_classes(group), 4)
        )
        if tokens[-1] != str(count):
            bad.append(i)
    return bad


def main() -> int:
    request = json.load(sys.stdin)
    name = request["workload"]
    failed = {}
    for k, output in enumerate(request["outputs"]):
        try:
            if name == "deep":
                bad = check_deep(output, request["inputs"][k])
            else:
                bad = {"graph": check_graph, "certify": check_certify,
                       "census": check_census}[name](output)
        except Exception as exc:  # a malformed output fails every operation
            print(f"oracle: {name} output {k}: {exc!r}", file=sys.stderr)
            bad = list(range(max(1, len(operations(name, output)))))
        if bad:
            failed[k] = bad
    print(json.dumps({"checked": len(request["outputs"]), "failed": failed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
