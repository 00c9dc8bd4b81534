"""Independent answer checker; imports nothing from cordia.

Every check returns a list of (operation index, message) problems; an empty
list means every answer is right.  Deciders here are brute force over
friendly labelings, written from the definitions rather than from cordia's
reductions, so a wrong fast path in cordia cannot also fool the checker.
"""

from __future__ import annotations

import json
import os
from itertools import combinations
from math import comb

from inputs import PROPS, pairs, to_graph6, vertex_induced

BRUTE_FORCE_SUPPORT = 10  # False verdicts and least witnesses are re-derived up to here
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


# ---------------------------------------------------------------------------
# graphs and brute-force deciders

def from_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        v = ord(ch) - 63
        bits.extend(v >> s & 1 for s in range(5, -1, -1))
    cols = [(i, j) for j in range(1, n) for i in range(j)]
    return n, sorted(e for e, b in zip(cols, bits) if b)


def from_bits(n: int, bits: int) -> list[tuple[int, int]]:
    return [e for k, e in enumerate(pairs(n)) if bits >> k & 1]


def support_mask(edges) -> int:
    mask = 0
    for i, j in edges:
        mask |= 1 << i | 1 << j
    return mask


def friendly_count(s: int) -> int:
    return comb(s, s // 2) if s % 2 == 0 else 2 * comb(s, s // 2)


def orient_split_exists(same: int, cross: int) -> bool:
    # Each cross edge's arc label is +1 or -1 by its direction; same-label
    # edges always give 0.  Try every count of +1 arcs.
    return any(max(same, up, cross - up) - min(same, up, cross - up) <= 1 for up in range(cross + 1))


def feasible(prop: str, edges, labels: int) -> bool:
    m = len(edges)
    cross = sum(1 for i, j in edges if (labels >> i ^ labels >> j) & 1)
    if prop == "sum":
        return abs(m - 2 * cross) <= 1
    if prop == "product":
        ones = sum(1 for i, j in edges if labels >> i & labels >> j & 1)
        return abs(m - 2 * ones) <= 1
    return orient_split_exists(m - cross, cross)


def least_feasible(prop: str, edges) -> int | None:
    """Smallest friendly label bitset (as an integer) that satisfies prop, or None."""
    verts = [v for v in range(16) if support_mask(edges) >> v & 1]
    s = len(verts)
    best = None
    for size in {s // 2, s - s // 2}:
        for ones in combinations(verts, size):
            lab = sum(1 << v for v in ones)
            if (best is None or lab < best) and feasible(prop, edges, lab):
                best = lab
    return best


class Membership:
    """Brute-force membership with a memo, for graphs on n vertices given as slot bitsets."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.memo: dict[tuple[str, int], bool] = {}

    def __call__(self, prop: str, bits: int) -> bool:
        key = (prop, bits)
        if key not in self.memo:
            self.memo[key] = bits != 0 and least_feasible(prop, from_bits(self.n, bits)) is not None
        return self.memo[key]


def image(edge_map, bits: int) -> int:
    out = 0
    for k, t in enumerate(edge_map):
        if bits >> k & 1:
            out |= 1 << t
    return out


# ---------------------------------------------------------------------------
# per-workload checks

def check_verdict(prop: str, n: int, edges, verdict) -> str | None:
    decision, labels, support, orient, examined = verdict
    sup = support_mask(edges)
    s = sup.bit_count()
    if examined != friendly_count(s):
        return f"{prop}: labelings_examined {examined}, support {s} has {friendly_count(s)}"
    if decision:
        if support != sup or labels is None or labels & ~sup:
            return f"{prop}: witness labeling not on the support"
        ones = labels.bit_count()
        if abs(2 * ones - s) > 1:
            return f"{prop}: witness labeling is not friendly"
        if not feasible(prop, edges, labels):
            return f"{prop}: witness labeling does not satisfy the property"
        if prop == "orient23":
            if orient is None or not 0 <= orient < 1 << len(edges):
                return f"{prop}: missing or out-of-range orientation"
            counts = {-1: 0, 0: 0, 1: 0}
            for r, (i, j) in enumerate(edges):
                head, tail = (i, j) if orient >> r & 1 else (j, i)
                counts[(labels >> head & 1) - (labels >> tail & 1)] += 1
            if max(counts.values()) - min(counts.values()) > 1:
                return f"{prop}: arc labels of the witness orientation are not 3-friendly"
        elif orient is not None:
            return f"{prop}: orientation on a non-orientation property"
    elif labels is not None or orient is not None:
        return f"{prop}: witness attached to a negative verdict"
    if s <= BRUTE_FORCE_SUPPORT:
        least = least_feasible(prop, edges)
        if (least is not None) != decision:
            return f"{prop}: verdict {decision}, brute force says {least is not None}"
        if decision and labels != least:
            return f"{prop}: witness {labels} is not the least feasible labeling {least}"
    return None


def check_decide(inputs: dict, answers: list) -> list:
    problems = []
    for i, ((n, edges), text, ans) in enumerate(zip(inputs["graphs"], inputs["graph6"], answers)):
        edges = [tuple(e) for e in edges]
        if "error" in ans:
            problems.append((i, ans["error"]))
            continue
        if ans["graph6"] != text:
            problems.append((i, f"graph6 round trip gave {ans['graph6']!r} for {text!r}"))
            continue
        for prop, verdict in zip(PROPS, ans["verdicts"]):
            msg = check_verdict(prop, n, edges, verdict)
            if msg:
                problems.append((i, msg))
                break
    if len(answers) != len(inputs["graphs"]):
        problems.append((-1, f"{len(answers)} answers for {len(inputs['graphs'])} graphs"))
    return problems


def check_survey(inputs: dict, answers: list) -> list:
    problems = []
    expected = EXPECTED["survey"]
    if [a["op"] for a in answers] != list(expected):
        return [(-1, "survey answered a different list of cells")]
    for i, ans in enumerate(answers):
        want = expected[ans["op"]]
        got = {k: v for k, v in ans.items() if k != "op"}
        if got != want:
            problems.append((i, f"{ans['op']}: got {got}, frozen answer is {want}"))
            continue
        prop = ans["op"].split(":")[1]
        if "witness" in ans:
            n, edges = from_graph6(ans["witness"])
            if len(edges) != ans["max"] or least_feasible(prop, edges) is None:
                problems.append((i, f"{ans['op']}: witness lacks the property or the edge count"))
        for m, text in ans.get("rows", []):
            n, edges = from_graph6(text)
            if len(edges) != m or least_feasible(prop, edges) is not None:
                problems.append((i, f"{ans['op']}: {text} is not a failing class with {m} edges"))
    return problems


def check_preserve_exact(inputs: dict, answers: list) -> list:
    problems = []
    expected = EXPECTED["preserve-exact"]
    ops = inputs["operators"]
    labels = list(expected) + [f"strongly:{i}" for i in range(len(ops))]
    if [a["op"] for a in answers] != labels:
        return [(-1, "preserve-exact answered a different list of calls")]
    induced = vertex_induced(5)
    member = {4: Membership(4), 6: Membership(6)}
    for i, ans in enumerate(answers):
        op = ans["op"]
        if "error" in ans:
            problems.append((i, f"{op}: {ans['error']}"))
            continue
        if op in expected:
            got = dict(ans)
            got.pop("op")
            survivors = got.get("survivors")
            if survivors is not None:
                got["survivors"] = len(survivors)
            if got != expected[op]:
                problems.append((i, f"{op}: got {got}, frozen answer is {expected[op]}"))
                continue
            if survivors is None:
                continue
            _, prop, n = op.split(":")
            n = int(n)
            maps = [tuple(im.bit_length() - 1 for im in images) for images in survivors]
            if any(im.bit_count() != 1 for images in survivors for im in images) or len(set(maps)) != len(maps):
                problems.append((i, f"{op}: survivors are not distinct edge bijections"))
            elif n == 5 and not set(maps) <= induced:
                problems.append((i, f"{op}: a survivor is not induced by a vertex permutation"))
            elif n == 4:
                graphs = range(1, 1 << 6)
                if any(member[4](prop, g) != member[4](prop, image(pi, g)) for pi in maps for g in graphs):
                    problems.append((i, f"{op}: a survivor fails to preserve {prop}"))
            continue
        pi, prop, is_vertex = ops[int(op.split(":")[1])]
        holds, cex = ans["holds"], ans["counterexample"]
        if is_vertex:
            if not holds or cex is not None:
                problems.append((i, f"{op}: a vertex permutation must strongly preserve {prop}"))
        elif holds or not cex:
            problems.append((i, f"{op}: this bijection fails, a counterexample must come back"))
        elif member[6](prop, cex) == member[6](prop, image(pi, cex)):
            problems.append((i, f"{op}: counterexample {cex} keeps its membership under the map"))
    return problems


def check_preserve_sample(inputs: dict, answers: list) -> list:
    problems = []
    count = inputs["count"]
    induced = vertex_induced(6)
    member = Membership(6)
    if [a["op"] for a in answers] != [f"sample:{p}" for p in PROPS]:
        return [(-1, "preserve-sample answered a different list of searches")]
    for i, (prop, ans) in enumerate(zip(PROPS, answers)):
        if "error" in ans:
            problems.append((i, ans["error"]))
            continue
        # Exactly the 720 vertex maps strongly preserve each property at n=6,
        # and sample mode discards those, so every sampled bijection fails.
        if ans["candidates"] != count or ans["survivors"] != 0:
            problems.append((i, f"{prop}: {ans['candidates']} candidates, {ans['survivors']} survivors"))
        elif ans["discarded"] + ans["failures"] != count or ans["unconfirmed"]:
            problems.append((i, f"{prop}: failures do not account for every candidate"))
        last = -1
        for index, pi, cex in ans["shown"]:
            if index <= last or sorted(pi) != list(range(15)) or tuple(pi) in induced:
                problems.append((i, f"{prop}: failure {index} is not a fresh non-vertex bijection"))
                break
            if not cex or member(prop, cex) == member(prop, image(pi, cex)):
                problems.append((i, f"{prop}: counterexample {cex} of failure {index} does not separate"))
                break
            last = index
    return problems


def check_probes(workload: str, answers: list, probes: dict) -> list[str]:
    """Problems in what a traced iteration computes besides its answers."""
    problems = []
    for key, want in EXPECTED["probes"].get(workload, {}).items():
        if key in probes and probes[key] != want:
            problems.append(f"{key}: got {probes[key]}, frozen answer is {want}")
    if workload == "preserve-sample":
        for ans in answers:
            prop = ans["op"].split(":")[1]
            if probes.get(f"workers2:{prop}") != ans.get("digest"):
                problems.append(f"sample report for {prop} differs between workers=1 and workers=2")
    return problems


CHECKS = {
    "decide": check_decide,
    "survey": check_survey,
    "preserve-exact": check_preserve_exact,
    "preserve-sample": check_preserve_sample,
}


def self_test() -> list[str]:
    """Feed the checker right and corrupted answers; return what it got wrong."""
    wrong = []
    paw = (4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    verdicts = []
    for prop in PROPS:
        lab = least_feasible(prop, paw[1])
        orient = None
        if prop == "orient23" and lab is not None:
            orient = next(o for o in range(16) if check_verdict(prop, 4, paw[1], [True, lab, 15, o, 6]) is None)
        verdicts.append([lab is not None, lab, 15 if lab is not None else None, orient, 6])
    inputs = {"graphs": [paw], "graph6": [to_graph6(*paw)]}
    good = {"graph6": inputs["graph6"][0], "verdicts": verdicts}
    if check_decide(inputs, [good]):
        wrong.append("decide: a right answer was rejected")
    for which in range(3):
        for field, value in ((0, not verdicts[which][0]), (1, 0b1010), (4, 5)):
            bad = json.loads(json.dumps(good))
            bad["verdicts"][which][field] = value
            if not check_decide(inputs, [bad]):
                wrong.append(f"decide: corrupted field {field} of verdict {which} was accepted")
    survey = [dict(v, op=k) for k, v in EXPECTED["survey"].items()]
    if check_survey({}, survey):
        wrong.append("survey: the frozen answers were rejected")
    survey[3] = dict(survey[3], max=survey[3]["max"] + 1)
    if not check_survey({}, survey):
        wrong.append("survey: a corrupted maximum was accepted")
    return wrong
