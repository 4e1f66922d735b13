"""The small frames the tests build by hand, each with its element names.

`chain(n)` names its elements 0, 1, ..., n - 1 in order; `chain01(n)`
names its bottom 0, its top 1 and the elements between c1, c2, ...; and
`chain3()` is the three-element chain 0 < u < 1. `diamond()` is the
four-element Boolean frame 0 < a, b < 1 as an order, and `powerset(pts)`
the discrete topology on the points `pts`.
"""

import itertools

from locale_lab.frames import Frame, FrameSpec, TopologySpec, build_frame


def chain(n):
    names = [str(i) for i in range(n)]
    return build_frame(
        FrameSpec.make(names, [(names[i], names[i + 1]) for i in range(n - 1)])
    )


def chain01(n):
    names = ["0"] + [f"c{i}" for i in range(1, n - 1)] + ["1"]
    if n == 1:
        names = ["0"]
    leq = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return build_frame(FrameSpec.make(names, leq))


def chain3():
    return build_frame(FrameSpec.make(["0", "u", "1"], [("0", "u"), ("u", "1")]))


def diamond():
    # 0 < a,b < 1 with a,b incomparable: the 4-element Boolean frame
    return build_frame(
        FrameSpec.make(["0", "a", "b", "1"],
                       [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    )


def powerset(pts):
    opens = [frozenset(s) for r in range(len(pts) + 1)
             for s in itertools.combinations(pts, r)]
    return Frame.from_topology(TopologySpec.make(pts, opens))
