"""Structural checks that only tests call: adjacent PLF2 cells agree on
their shared boundary, and a trimmed region game keeps the guard shapes that
the later stages rely on."""
from kernel_reference import PLF2, affine_eval, point_in_polygon
from wtgsolve.core import DomainError, StructuralError
from wtgsolve.regions import RegionGame


def check_continuity(plf: PLF2) -> None:
    """Verify adjacent cells agree along shared boundary (raises on failure)."""
    if plf.is_infinite:
        return
    cells = plf.cells
    for i in range(len(cells)):
        tri1, c1 = cells[i]
        for j in range(i + 1, len(cells)):
            tri2, c2 = cells[j]
            if c1 == c2:
                continue
            shared = [p for p in tri1 if point_in_polygon(tri2, p)]
            shared += [p for p in tri2 if point_in_polygon(tri1, p) and p not in shared]
            for p in shared:
                v1, v2 = affine_eval(c1, p), affine_eval(c2, p)
                if v1 != v2:
                    raise DomainError(f"PLF2 discontinuity at {p}: {v1} vs {v2}")
            if len(shared) == 2:
                mid = (
                    (shared[0][0] + shared[1][0]) / 2,
                    (shared[0][1] + shared[1][1]) / 2,
                )
                if point_in_polygon(tri1, mid) and point_in_polygon(tri2, mid):
                    if affine_eval(c1, mid) != affine_eval(c2, mid):
                        raise DomainError(f"PLF2 discontinuity at {mid}")


def check_trimmed_observation(rg: RegionGame) -> None:
    """Structural facts every trimmed region game must satisfy."""
    for t in rg.game.transitions:
        r = rg.reg[t.src]
        has_zero = has_one = False
        for g in t.guards:
            if g.bound == 0 and g.op in ("==", ">"):
                if g.clock not in r.zeros:
                    raise StructuralError(
                        f"{t.tid}: guard on non-zero clock {g.clock}")
                has_zero = has_zero or g.op == "=="
            if g.bound == 1 and g.op == "==":
                if g.clock not in r.upclock:
                    raise StructuralError(
                        f"{t.tid}: x==1 guard on non-top clock {g.clock}")
                has_one = True
        if has_zero and has_one:
            raise StructuralError(f"{t.tid}: both x==0 and y==1 guards")
