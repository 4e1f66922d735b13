import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from locale_lab import intervals as ivs, measure as measure_module
from locale_lab.corpus import boolean_spec, chain_spec, iter_corpus_frames
from locale_lab.frames import (
    Frame,
    FrameError,
    FrameSpec,
    TopologySpec,
    build_frame,
)
from locale_lab.intervals import (
    EMPTY_RO,
    FULL_RO,
    Iv,
    RatOpen,
    interior,
    meet,
    normalize,
    parse_fin,
    parse_ratopen,
)
from locale_lab.laws import _Arena, _interval_descriptors, _random_ratopen
from locale_lab.measure import (
    BadTolerance,
    Lebesgue,
    LebesgueRestrictedTo,
    Measure,
    MeasureBounds,
    Mixture,
    NotModular,
    NotMonotone,
    NotZeroAtBottom,
    ResidualBounds,
    TolNotReached,
    UnsupportedCombination,
    ValuationError,
    UnsupportedDescriptor,
    atomic,
    measure_bounds,
    measure_fin,
    measure_ro,
    mu_reduce,
    mu_reduce_interval,
    mu_reduce_open,
    null_open,
    null_partner,
    null_partner_interval,
    outer_measure_finite,
    parse_descriptor,
    point_mass,
    reduced_algebra,
    restrict_to_closed,
    restrict_to_open,
    restrict_valuation,
    stream_bounds,
    strict_additivity_check,
    strict_additivity_interval,
    total_measure,
    validate_valuation,
    vstar,
)
from locale_lab.measure import (
    _budgets,
    _lazy_upper,
    _partner,
    _small_stage,
    _stages,
    _stalled,
    _stream_bounds,
)
from locale_lab.morphisms import validate_morphism
from locale_lab.presented import (
    DYADICS,
    RATIONALS,
    WHOLE,
    Closed,
    CoCountable,
    CountablePoints,
    Generic,
    IntersectWithClosed,
    IntersectWithOpen,
    LazyOpen,
    Open,
    Union,
    UnsupportedConstructor,
    closed_neighborhood,
    full_minus_points,
    holds_point,
    neighborhood,
    normal_form,
    structural_union_is_whole,
)
from locale_lab.sublocales import (
    closed_sublocale,
    empty,
    enumerate_sublocales,
    intersect,
    intersect_all,
    is_subsublocale,
    open_sublocale,
    union,
    whole,
)

import fraction_arena as fa

TOL = F(1, 1000)


def chain3():
    return build_frame(FrameSpec.make(["0", "u", "1"], [("0", "u"), ("u", "1")]))


def diamond():
    return build_frame(
        FrameSpec.make(["0", "a", "b", "1"],
                       [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    )


def powerset(pts):
    opens = [frozenset(s) for r in range(len(pts) + 1)
             for s in itertools.combinations(pts, r)]
    return Frame.from_topology(TopologySpec.make(pts, opens))


def weights_valuation(frame, w):
    # frames built from topologies measure an open by summing point weights
    table = {
        frame.elements[i]: sum((w[p] for p in frame.opens[i]), F(0))
        for i in range(frame.n)
    }
    return validate_valuation(frame, table)


def val_chain3():
    return validate_valuation(chain3(), {"0": 0, "u": F(1, 2), "1": 1})


def val_diamond():
    return validate_valuation(diamond(), {"0": 0, "a": F(1, 3), "b": F(2, 3), "1": 1})


VALS = [
    val_chain3,
    val_diamond,
    lambda: weights_valuation(powerset("ab"), {"a": F(1, 2), "b": F(1, 2)}),
    lambda: weights_valuation(powerset("abc"), {"a": F(1, 6), "b": F(1, 3), "c": F(1, 2)}),
    lambda: weights_valuation(powerset("abc"), {"a": F(1, 2), "b": F(1, 2), "c": F(0)}),
]

BOOLEAN_VALS = VALS[2:]


def brute_outer(val, x):
    f = val.frame
    return min(
        val.mu[v] for v in range(f.n)
        if is_subsublocale(x, open_sublocale(f, v))
    )


# ----------------------------------------------------------- validation

def test_validate_valuation_accepts_sequences_and_dicts():
    f = chain3()
    v = validate_valuation(f, ["0", "1/2", "1"])
    assert v("u") == F(1, 2)


def test_not_zero_at_bottom():
    with pytest.raises(NotZeroAtBottom):
        validate_valuation(chain3(), {"0": F(1, 4), "u": F(1, 2), "1": 1})


def test_not_monotone():
    with pytest.raises(NotMonotone) as exc:
        validate_valuation(chain3(), {"0": 0, "u": 1, "1": F(1, 2)})
    assert exc.value.witness == ("u", "1")


def test_not_modular():
    # measures the two atoms and the top inconsistently
    with pytest.raises(NotModular) as exc:
        validate_valuation(
            diamond(), {"0": 0, "a": F(1, 2), "b": F(1, 2), "1": F(3, 4)}
        )
    assert exc.value.witness == ("a", "b")


def test_monotonicity_is_checked_before_the_masses():
    # both point masses mu(kappa p) - mu(kappa p meet p) are 1/2, yet the
    # top measures less than either atom
    with pytest.raises(NotMonotone) as exc:
        validate_valuation(
            diamond(), {"0": 0, "a": F(1, 2), "b": F(1, 2), "1": F(1, 4)}
        )
    assert exc.value.witness == ("a", "1")


def pairwise_verdict(frame, mu):
    """The class validate_valuation must raise on the table mu, or None,
    from the definitions over all pairs of elements."""
    if mu[frame.bottom] != 0:
        return NotZeroAtBottom
    for a in range(frame.n):
        for b in range(frame.n):
            if frame.leq(a, b) and mu[a] > mu[b]:
                return NotMonotone
    for a in range(frame.n):
        for b in range(a, frame.n):
            if mu[frame.join(a, b)] + mu[frame.meet(a, b)] != mu[a] + mu[b]:
                return NotModular
    return None


def seeded_tables(name, frame, count=120):
    """Tables rebuilt from point masses in {-1, 0, 1, 2, 3}/{1, 2}, every
    other one then moved at one element."""
    rng = random.Random(name)
    for t in range(count):
        masses = [F(rng.choice((-1, 0, 1, 2, 3)), rng.choice((1, 2))) for _ in frame.primes]
        table = [sum((m for i, m in enumerate(masses) if not above >> i & 1), F(0))
                 for above in frame.primes_above]
        if t % 2:
            table[rng.randrange(frame.n)] += F(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
        yield tuple(table)


def test_validation_matches_the_pairwise_verdict_on_corpus():
    verdicts = {None: 0, NotZeroAtBottom: 0, NotMonotone: 0, NotModular: 0}
    for name, fr in iter_corpus_frames():
        for table in seeded_tables(name, fr):
            want = pairwise_verdict(fr, table)
            try:
                val = validate_valuation(fr, table)
            except ValuationError as exc:
                assert type(exc) is want, (name, table, exc)
                if want is not NotZeroAtBottom:
                    a, b = (fr.el(x) for x in exc.witness)
                    if want is NotMonotone:
                        assert fr.leq(a, b) and table[a] > table[b], (name, table)
                    else:
                        lhs = table[fr.join(a, b)] + table[fr.meet(a, b)]
                        assert lhs != table[a] + table[b], (name, table)
            else:
                assert want is None, (name, table)
                assert val.mu == table, (name, table)
            verdicts[want] += 1
    assert all(verdicts.values()), verdicts


def test_missing_element_rejected():
    with pytest.raises(Exception):
        validate_valuation(chain3(), {"0": 0, "1": 1})


# ----------------------------------------------------------- outer measure

def test_outer_measure_extends_the_valuation():
    for make in VALS:
        val = make()
        f = val.frame
        for v in range(f.n):
            assert outer_measure_finite(val, open_sublocale(f, v)) == val.mu[v]


def test_outer_measure_matches_brute_minimum():
    for make in VALS:
        val = make()
        for x in enumerate_sublocales(val.frame):
            assert outer_measure_finite(val, x) == brute_outer(val, x)


def test_outer_measure_monotone_and_subadditive():
    for make in VALS:
        val = make()
        subs = enumerate_sublocales(val.frame)
        for x in subs:
            for y in subs:
                mx = outer_measure_finite(val, x)
                my = outer_measure_finite(val, y)
                if is_subsublocale(x, y):
                    assert mx <= my
                assert outer_measure_finite(val, union(x, y)) <= mx + my


def test_closed_complement_measure_on_boolean_frames():
    for make in BOOLEAN_VALS:
        val = make()
        f = val.frame
        top = val.mu[f.top]
        for v in range(f.n):
            got = outer_measure_finite(val, closed_sublocale(f, v))
            assert got == top - val.mu[v]


def test_closed_complement_can_overshoot_without_regularity():
    # the closed complement of the middle of the 3-chain still needs the
    # whole line as its only neighborhood
    val = val_chain3()
    f = val.frame
    assert outer_measure_finite(val, closed_sublocale(f, "u")) == 1


# ----------------------------------------------------------- additivity

def test_strict_additivity_zero_on_boolean_frames():
    for make in BOOLEAN_VALS:
        val = make()
        subs = enumerate_sublocales(val.frame)
        for x in subs:
            for y in subs:
                assert strict_additivity_check(val, x, y) == 0


def test_strict_additivity_witness_on_the_3_chain():
    val = val_chain3()
    f = val.frame
    x = open_sublocale(f, "u")
    y = closed_sublocale(f, "u")
    assert strict_additivity_check(val, x, y) == F(-1, 2)


def test_null_partner_certificates():
    for make in VALS:
        val = make()
        top = val.mu[val.frame.top]
        for a in enumerate_sublocales(val.frame):
            b, certs = null_partner(val, a)
            assert certs["union"] == top
            assert certs["intersection"] == 0
            assert outer_measure_finite(val, union(a, b)) == top
            assert outer_measure_finite(val, intersect(a, b)) == 0


def test_null_partner_measure_complements_on_boolean_frames():
    for make in BOOLEAN_VALS:
        val = make()
        top = val.mu[val.frame.top]
        for a in enumerate_sublocales(val.frame):
            b, certs = null_partner(val, a)
            assert certs["partner"] == top - outer_measure_finite(val, a)


# ----------------------------------------------------------- restriction

def test_restrict_valuation_totals():
    for make in VALS:
        val = make()
        for a in enumerate_sublocales(val.frame):
            val_a, fix = restrict_valuation(val, a)
            assert val_a.mu[val_a.frame.bottom] == 0
            assert val_a.mu[val_a.frame.top] == outer_measure_finite(val, a)


def test_restrict_valuation_to_closed_piece_of_chain():
    val = val_chain3()
    val_a, fix = restrict_valuation(val, closed_sublocale(val.frame, "u"))
    # opens of the closed piece are u and 1; the trace of u on it is empty
    assert [val_a.mu[k] for k in range(val_a.frame.n)] == [0, 1]


# ----------------------------------------------------------- reduction

def test_mu_reduce_matches_smallest_full_measure_sublocale():
    for make in VALS:
        val = make()
        subs = enumerate_sublocales(val.frame)
        for a in subs:
            target = outer_measure_finite(val, a)
            family = [
                z for z in subs
                if is_subsublocale(z, a) and outer_measure_finite(val, z) == target
            ]
            minimal = [
                z for z in family
                if all(is_subsublocale(z, w) for w in family)
            ]
            assert minimal, "the full-measure family has a least member"
            assert mu_reduce(val, a) == minimal[0]


def test_mu_reduce_is_idempotent_and_shrinking():
    for make in VALS:
        val = make()
        for a in enumerate_sublocales(val.frame):
            r = mu_reduce(val, a)
            assert is_subsublocale(r, a)
            assert outer_measure_finite(val, r) == outer_measure_finite(val, a)
            assert mu_reduce(val, r) == r


def test_mu_reduce_drops_null_atoms():
    f = powerset("abc")
    val = weights_valuation(f, {"a": F(1, 2), "b": F(1, 2), "c": F(0)})
    r = mu_reduce(val, whole(f))
    assert r == open_sublocale(f, "{a,b}")


def test_union_of_reduced_is_reduced():
    for make in BOOLEAN_VALS:
        val = make()
        reduced = {mu_reduce(val, a) for a in enumerate_sublocales(val.frame)}
        for x in reduced:
            for y in reduced:
                u = union(x, y)
                assert mu_reduce(val, u) == u


def test_reduced_algebra_is_boolean_with_matching_operations():
    for make in BOOLEAN_VALS:
        val = make()
        alg = reduced_algebra(val)
        red = alg.frame
        assert red.boolean
        # join of representatives is the representative of the join, and
        # meet is the reduction of the intersection
        for i in range(red.n):
            for j in range(red.n):
                jj = red.join(i, j)
                assert union(alg.reps[i], alg.reps[j]) == alg.reps[jj]
                mm = red.meet(i, j)
                assert mu_reduce(val, intersect(alg.reps[i], alg.reps[j])) == alg.reps[mm]
        # meets distribute over joins among reduced pieces
        for a in range(red.n):
            for b in range(red.n):
                for c in range(red.n):
                    assert red.meet(a, red.join(b, c)) == red.join(
                        red.meet(a, b), red.meet(a, c)
                    )


def test_reduced_algebra_quotient_and_measure():
    f = powerset("abc")
    val = weights_valuation(f, {"a": F(1, 2), "b": F(1, 2), "c": F(0)})
    alg = reduced_algebra(val)
    assert alg.frame.n == 4  # the null atom collapses away
    assert alg.quotient.source is f
    assert alg.quotient.target is alg.frame
    for v in range(f.n):
        assert alg.valuation.mu[alg.quotient.fstar[v]] == val.mu[v]


# The reduction and the reduced algebra straight from their definitions,
# by enumerating parts: the oracle for the point-mass versions.

def oracle_mu_reduce(val, a, all_subs):
    """Meet every part of a that carries the full measure of a, then
    certify the meet still does."""
    frame = val.frame
    target = outer_measure_finite(val, a)
    family = [
        z for z in all_subs
        if is_subsublocale(z, a) and outer_measure_finite(val, z) == target
    ]
    r = intersect_all(frame, family)
    if outer_measure_finite(val, r) != target:
        raise ValuationError(
            "the full-measure sublocales of this piece have no least member"
        )
    return r


def oracle_reduced_algebra(val):
    """Reduce every part, order the distinct reductions by inclusion and
    rebuild them as a frame from every leq pair by name; V -> reduce([V])
    must be a frame morphism, and `validate_morphism` finds its points
    from that fstar table."""
    frame = val.frame
    subs = enumerate_sublocales(frame)
    seen = {}
    for s in subs:
        r = oracle_mu_reduce(val, s, subs)
        seen[r.nucleus] = r
    reps = sorted(seen.values(), key=lambda r: (len(r.fixpoints), r.nucleus))
    labels = [f"r{i}" for i in range(len(reps))]
    leq = [
        (labels[i], labels[j])
        for i in range(len(reps))
        for j in range(len(reps))
        if is_subsublocale(reps[i], reps[j])
    ]
    red = build_frame(FrameSpec.make(labels, leq))
    index = {reps[i].nucleus: i for i in range(len(reps))}
    fstar = tuple(
        index[oracle_mu_reduce(val, open_sublocale(frame, v), subs).nucleus]
        for v in range(frame.n)
    )
    quotient = validate_morphism(frame, red, fstar)
    nu = validate_valuation(
        red, tuple(outer_measure_finite(val, r) for r in reps)
    )
    return reps, quotient, nu


def mass_valuation(frame, masses):
    """The valuation whose point primes[i] carries masses[i]: mu(V) is the
    mass of the points of [V]."""
    mu = [
        sum((m for i, m in enumerate(masses) if open_sublocale(frame, v).points >> i & 1), F(0))
        for v in range(frame.n)
    ]
    return validate_valuation(frame, mu)


def seeded_valuations(name, frame):
    """Five valuations from masses seeded by name, about a third of them zero."""
    rng = random.Random(name)
    return [
        mass_valuation(frame, [F(rng.choice((0, 0, 1, 2, 3)), rng.choice((1, 2)))
                               for _ in frame.primes])
        for _ in range(5)
    ]


def test_point_mass_reduction_matches_enumerating_oracle_on_corpus():
    seen = {"reduce": 0, "reduce-raises": 0, "algebra": 0, "algebra-raises": 0}
    for name, fr in iter_corpus_frames():
        subs = enumerate_sublocales(fr)
        for val in seeded_valuations(name, fr):
            for a in subs:
                try:
                    want = oracle_mu_reduce(val, a, subs)
                except ValuationError:
                    with pytest.raises(ValuationError):
                        mu_reduce(val, a)
                    seen["reduce-raises"] += 1
                    continue
                assert mu_reduce(val, a) == want, (name, val, a)
                seen["reduce"] += 1
            try:
                reps, quotient, nu = oracle_reduced_algebra(val)
            except FrameError:
                with pytest.raises(ValuationError):
                    reduced_algebra(val)
                seen["algebra-raises"] += 1
                continue
            alg = reduced_algebra(val)
            assert alg.reps == tuple(reps), (name, val)
            red = quotient.target
            assert (alg.frame.elements, alg.frame.up) == (red.elements, red.up), (name, val)
            assert alg.quotient._points == quotient._points, (name, val)
            assert alg.quotient.fstar == quotient.fstar, (name, val)
            assert alg.valuation.mu == nu.mu, (name, val)
            seen["algebra"] += 1
    assert all(seen.values()), seen


def test_mass_is_the_point_masses_of_the_table():
    for name, fr in iter_corpus_frames():
        rng = random.Random(name)
        masses = [F(rng.randrange(4)) for _ in fr.primes]
        assert mass_valuation(fr, masses).mass == tuple(masses), name


def test_vstar_is_the_defining_meet_on_corpus():
    # the meet of every V with e_X(V) = top is the oracle for the join
    for name, fr in iter_corpus_frames():
        for x in enumerate_sublocales(fr):
            want = fr.meet_all(v for v in range(fr.n) if x.nucleus[v] == fr.top)
            assert vstar(x) == want, (name, x)


def test_reduction_past_the_enumeration_cap():
    cube = build_frame(boolean_spec(5))
    val = mass_valuation(cube, [F(1)] * 5)
    alg = reduced_algebra(val)
    assert alg.frame.n == 32 and alg.frame.boolean
    assert mu_reduce(val) == whole(cube)
    chain = build_frame(chain_spec(12))
    top_point = len(chain.primes) - 1  # the coatom, the only maximal point
    val = mass_valuation(chain, [F(int(i == top_point)) for i in range(len(chain.primes))])
    alg = reduced_algebra(val)
    assert alg.frame.n == 2
    assert alg.reps[1] == closed_sublocale(chain, chain.primes[top_point])
    assert mu_reduce(val) == alg.reps[1]
    assert outer_measure_finite(val, alg.reps[1]) == 1


# ----------------------------------------------------------- descriptors

def test_measure_fin_per_descriptor():
    u = parse_fin("(0,1/4)|[1/2,3/4]")
    assert measure_fin(Lebesgue(), u) == F(1, 2)
    assert measure_fin(LebesgueRestrictedTo(parse_fin("[0,1/2]")), u) == F(1, 4)
    d = atomic([(F(1, 4), F(1, 3)), (F(1, 2), F(2, 3))])
    assert measure_fin(d, u) == F(2, 3)  # 1/4 is an excluded endpoint
    mix = Mixture((Lebesgue(), d))
    assert measure_fin(mix, u) == F(1, 2) + F(2, 3)
    assert total_measure(mix) == 2


def test_interval_sums_match_the_fraction_sums():
    """measure_fin and total_measure add integer pairs; the reference adds
    Fractions, on the arena's 100 seeded opens and every arena measure,
    one listing a region twice and one with overlapping regions and atoms."""
    rng = _Arena(TOL).rng
    opens = [_random_ratopen(rng) for _ in range(100)]
    half = parse_fin("[0,1/2]")
    twice = Measure((half, half))
    overlapping = Measure(
        (half, parse_fin("(1/3,3/4)"), parse_fin("[1/4,1]")),
        ((F(1, 3), F(1, 5)), (F(1, 2), F(2, 7)), (F(3, 4), F(1, 9))),
    )
    assert total_measure(twice) == 1
    assert measure_fin(twice, parse_fin("[1/4,1]")) == F(1, 2)
    for d in [d for _, d in _interval_descriptors()] + [twice, overlapping]:
        assert total_measure(d) == fa.total_measure(d)
        for u in opens + [FULL_RO, EMPTY_RO]:
            assert measure_fin(d, u.fin) == fa.measure_fin(d, u.fin), (d, u)


def test_point_mass_and_atoms_validation():
    d = atomic([("1/2", "1/3"), ("1/4", "2/3")])
    assert point_mass(d, "1/2") == F(1, 3)
    assert point_mass(d, "1/3") == 0
    with pytest.raises(UnsupportedDescriptor):
        Measure(atoms=((F(1, 2), F(0)),))
    with pytest.raises(UnsupportedDescriptor):
        Measure(atoms=((F(3, 2), F(1)),))
    with pytest.raises(UnsupportedDescriptor):
        Measure(atoms=((F(1, 2), F(1)), (F(1, 2), F(1))))


def test_null_open_per_descriptor():
    assert null_open(Lebesgue()) == EMPTY_RO
    d = LebesgueRestrictedTo(parse_fin("[0,1/2]|[3/4,3/4]"))
    # the isolated point at 3/4 carries no length, so it is not support
    assert null_open(d) == parse_ratopen("(1/2,1]")
    a = atomic([("1/2", "1")])
    assert null_open(a) == parse_ratopen("[0,1/2)|(1/2,1]")
    mix = Mixture((d, a))
    assert null_open(mix) == parse_ratopen("(1/2,1]")


def test_restriction_of_descriptors():
    u = parse_ratopen("(0,1/2)")
    r = restrict_to_open(Lebesgue(), u)
    assert r == LebesgueRestrictedTo(u.fin)
    assert measure_fin(r, parse_fin("[0,1]")) == F(1, 2)
    a = atomic([("1/4", "1"), ("3/4", "2")])
    assert restrict_to_open(a, u) == atomic([("1/4", "1")])
    assert restrict_to_closed(a, u) == atomic([("3/4", "2")])


def closed_mass(d, u):
    """The outer measure of the closed complement of u: total minus mu(u).
    The shrinking neighbourhoods converge to it from above, and
    subadditivity pins it from below."""
    return total_measure(d) - measure_ro(d, u)


def test_measure_closed_exact():
    d = Mixture((Lebesgue(), atomic([("1/2", "1")])))
    u = parse_ratopen("(1/2,1]")
    # the closed complement [0,1/2] keeps the atom sitting on its edge
    assert closed_mass(d, u) == F(1, 2) + 1
    assert measure_bounds(Closed(u), d, TOL) == MeasureBounds(F(3, 2), F(3, 2), ("exact-closed",))


# ----------------------------------------------------------- reduction on [0,1]

def test_reduce_open_fills_massless_pinholes():
    d = Lebesgue()
    u = parse_ratopen("(0,1/2)|(1/2,1)")
    assert mu_reduce_open(d, u) == parse_ratopen("(0,1)")
    # ambient endpoints are never absorbed
    assert mu_reduce_open(d, parse_ratopen("(0,1)")) == parse_ratopen("(0,1)")


def test_reduce_open_respects_atoms():
    d = atomic([("1/2", "1")])
    n = parse_ratopen("[0,1/2)|(1/2,1]")
    assert mu_reduce_open(d, EMPTY_RO) == n
    assert mu_reduce_open(d, parse_ratopen("(0,1/4)")) == n
    assert mu_reduce_open(d, parse_ratopen("(1/4,3/4)")) == FULL_RO
    # fixpoints of the reduction map: everything or everything-but-the-atom
    for s in ["[0,1/2)|(1/2,1]", "[0,1]"]:
        assert mu_reduce_open(d, parse_ratopen(s)) == parse_ratopen(s)


def test_reduce_whole_line_pinned_examples():
    assert mu_reduce_interval(Lebesgue()) == Closed(EMPTY_RO)
    r = mu_reduce_interval(atomic([("1/2", "1")]))
    assert r == Closed(parse_ratopen("[0,1/2)|(1/2,1]"))
    r2 = mu_reduce_interval(LebesgueRestrictedTo(parse_fin("[0,1/2]")))
    assert r2 == Closed(parse_ratopen("(1/2,1]"))


def test_reduce_of_open_and_closed_pieces():
    r = mu_reduce_interval(Lebesgue(), Open(parse_ratopen("(0,1/2)")))
    assert r == IntersectWithOpen(Closed(parse_ratopen("(1/2,1]")), parse_ratopen("(0,1/2)"))
    # an isolated limit point of the closed piece is null, so it drops out
    r2 = mu_reduce_interval(Lebesgue(), Closed(parse_ratopen("(1/2,1)")))
    assert r2 == Closed(parse_ratopen("(1/2,1]"))
    with pytest.raises(UnsupportedConstructor):
        mu_reduce_interval(Lebesgue(), CountablePoints(RATIONALS))


# ----------------------------------------------------------- certified bounds

def test_bounds_exact_for_opens_and_closeds():
    d = Lebesgue()
    u = parse_ratopen("(0,1/3)|(2/3,1)")
    b = measure_bounds(Open(u), d, TOL)
    assert b.is_exact and b.lower == F(2, 3)
    c = measure_bounds(Closed(u), d, TOL)
    assert c.is_exact and c.lower == F(1, 3)
    assert "exact-closed" in c.certificates


def test_stream_bounds_bracket_the_exact_values():
    import random

    from locale_lab.intervals import iv, normalize

    rng = random.Random(20260822)
    d = Mixture((Lebesgue(), LebesgueRestrictedTo(parse_fin("[1/3,2/3]"))))
    for _ in range(25):
        ends = sorted(F(rng.randrange(0, 25), 24) for _ in range(4))
        if ends[0] == ends[1] and ends[2] == ends[3]:
            continue
        pieces = [iv(a, b) for a, b in [(ends[0], ends[1]), (ends[2], ends[3])] if a < b]
        u = RatOpen(normalize(pieces))
        # the rationals are null under length, so each union weighs what
        # its open or closed part does
        for x, exact in [
            (Union((CountablePoints(RATIONALS), Open(u))), measure_ro(d, u)),
            (Union((CountablePoints(RATIONALS), Closed(u))), closed_mass(d, u)),
        ]:
            b = _stream_bounds(x, d.regions, TOL)
            assert b.lower <= exact <= b.upper
            assert b.width <= TOL


eighths = st.integers(0, 8).map(lambda i: F(i, 8))


@st.composite
def coarse_opens(draw):
    """Opens with endpoints on the eighths, so pieces touch, reach 0 or
    1, or vanish, and atoms and restrictions sit on their ends."""
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted((draw(eighths), draw(eighths)))
        pieces.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    return RatOpen(interior(normalize(pieces)))


DESCRIPTOR_KINDS = {
    "lebesgue": Lebesgue(),
    "restrict": LebesgueRestrictedTo(parse_fin("[1/4,3/4]")),
    "atoms": atomic([("1/4", "1/2"), ("1/2", "1")]),
    "mix": Mixture((Lebesgue(), atomic([("5/8", "1/3")]))),
}


@pytest.mark.parametrize("kind", sorted(DESCRIPTOR_KINDS))
@given(coarse_opens(), coarse_opens())
@settings(max_examples=25, deadline=None)
def test_stream_bounds_are_monotone_and_within_tol(kind, v, w):
    # U = V meet W lies in V, so Open(U) lies in Open(V) and Closed(V)
    # in Closed(U), and so do their unions with the rationals, which are
    # null under length: the smaller part's lower bound cannot pass the
    # larger part's upper bound
    d = DESCRIPTOR_KINDS[kind]
    length = Measure(d.regions)
    u = meet(v, w)
    with_rationals = lambda part: Union((CountablePoints(RATIONALS), part))  # noqa: E731
    for small, large, exact_small, exact_large in [
        (Open(u), Open(v), measure_ro(length, u), measure_ro(length, v)),
        (Closed(v), Closed(u), closed_mass(length, v), closed_mass(length, u)),
    ]:
        bs = _stream_bounds(with_rationals(small), d.regions, TOL)
        bl = _stream_bounds(with_rationals(large), d.regions, TOL)
        assert bs.contains(exact_small) and bl.contains(exact_large)
        assert bs.lower <= bl.upper
        assert bs.width <= TOL and bl.width <= TOL


STAGE_STREAMS = [
    ("irrationals", CoCountable(RATIONALS)),
    ("rationals", CountablePoints(DYADICS)),
    ("closed", Closed(parse_ratopen("[0,1/8)|(1/4,3/8)|(5/8,1]"))),
    ("union", Union((CountablePoints(RATIONALS), Open(parse_ratopen("(1/2,3/4)"))))),
    ("meet", IntersectWithOpen(CountablePoints(RATIONALS), parse_ratopen("(1/3,1]"))),
]


def stage_fractions(regions, lazy):
    """_stages with its integer pairs read as Fractions."""
    for m, rest in _stages(regions, lazy):
        yield F(*m), F(*rest)


@pytest.mark.parametrize("name,x", STAGE_STREAMS, ids=[n for n, _ in STAGE_STREAMS])
def test_stage_measures_match_measure_fin(name, x):
    # restricted parts keep a running union of each stage's new pieces met
    # with their region; measure_fin on the whole stage is the definition
    region = parse_fin("[0,1/2]|(5/8,3/4)|[7/8,1]")
    descriptors = [
        LebesgueRestrictedTo(region),
        LebesgueRestrictedTo(parse_fin("(0,1)")),
        Mixture((Lebesgue(), LebesgueRestrictedTo(region), atomic([("1/2", "1/3")]))),
        Mixture((LebesgueRestrictedTo(parse_fin("[1/4,1/4]|[1/2,1]")),)),
    ]
    for k in (1, 5, 20):
        for d in descriptors:
            nb, length = neighborhood(x, k), Measure(d.regions)
            got = [m for m, _ in itertools.islice(stage_fractions(d.regions, nb), 61)]
            assert got == [measure_fin(length, nb.stage(n).fin) for n in range(61)], (name, k, d)


def test_rational_points_are_lebesgue_null():
    assert measure_bounds(CountablePoints(RATIONALS), Lebesgue(), TOL) == MeasureBounds(
        0, 0, ("normal-form",))
    # no open lies inside the rationals, so the lower bound needs no partner
    b = stream_bounds(CountablePoints(RATIONALS), Lebesgue(), TOL)
    assert b.upper <= TOL
    assert b.lower == 0
    assert "lower-zero" in b.certificates


def test_generic_is_null_for_every_descriptor():
    for d in [
        Lebesgue(),
        LebesgueRestrictedTo(parse_fin("[0,1/2]")),
        atomic([("1/2", "1")]),
        Mixture((Lebesgue(), atomic([("1/3", "2")]))),
    ]:
        assert measure_bounds(Generic(), d, TOL).upper == 0
        b = stream_bounds(Generic(), d, TOL)
        assert b.lower == 0
        assert b.upper <= TOL


def test_generic_avoids_atoms_exactly():
    # a purely atomic measure is weighed by shape alone, with no stream
    b = stream_bounds(Generic(), atomic([("1/2", "1")]), TOL)
    assert b.lower == b.upper == 0
    assert b.certificates == ("atoms-by-shape",)


def test_cocountable_complement_of_rationals():
    assert measure_bounds(CoCountable(RATIONALS), Lebesgue(), TOL).lower == 1
    b = stream_bounds(CoCountable(RATIONALS), Lebesgue(), TOL)
    assert b.upper == 1
    assert b.lower >= 1 - TOL


def test_atoms_see_the_points_that_carry_them():
    d = atomic([("1/2", "1")])
    b = measure_bounds(CountablePoints(RATIONALS), d, TOL)
    assert b.lower == b.upper == 1
    b2 = measure_bounds(CoCountable(RATIONALS), d, TOL)
    assert b2.lower == b2.upper == 0
    # dyadic points never reach 1/3
    b3 = measure_bounds(CountablePoints(DYADICS), atomic([("1/3", "1")]), TOL)
    assert b3.upper == 0


def test_union_bounds_use_structure_and_parts():
    d = Lebesgue()
    u = Union((CountablePoints(RATIONALS), CoCountable(RATIONALS)))
    # the normal form sees the whole; the streams only close in on it,
    # from the rationals as the partner
    assert measure_bounds(u, d, TOL) == MeasureBounds(1, 1, ("normal-form",))
    b = stream_bounds(u, d, TOL)
    assert b.upper == 1 and b.lower >= 1 - TOL
    assert b.certificates == ("stream-upper", "partner-lower", "atoms-by-shape")
    v = Union((Open(parse_ratopen("(0,1/2)")), CountablePoints(RATIONALS)))
    assert measure_bounds(v, d, TOL) == MeasureBounds(F(1, 2), F(1, 2), ("normal-form",))
    bv = stream_bounds(v, d, TOL)
    assert bv.contains(F(1, 2)) and bv.width <= TOL


def test_bounds_honestly_fail_when_no_lower_route_exists(stuck_partners):
    x = IntersectWithOpen(CoCountable(RATIONALS), parse_ratopen("(0,1)"))
    assert measure_bounds(x, Lebesgue(), TOL).lower == 1
    with pytest.raises(TolNotReached) as exc:
        stream_bounds(x, Lebesgue(), TOL)
    assert exc.value.lower == 0
    assert exc.value.upper == 1
    assert exc.value.side == "partner lower"


def test_a_part_with_no_partner_stalls_on_its_upper_stream(monkeypatch):
    # the generic part's lower bound 0 is exact, so only its upper stream
    # can stall: planted here to stay at the whole interval
    never = LazyOpen(lambda n: FULL_RO if n == 0 else EMPTY_RO, lambda n: (1, 1))
    monkeypatch.setattr(measure_module, "neighborhood", lambda x, k: never)
    with pytest.raises(TolNotReached) as exc:
        stream_bounds(Generic(), Lebesgue(), TOL)
    assert (exc.value.lower, exc.value.upper, exc.value.side) == (0, 1, "upper stream")


# ----------------------------------------------------------- the normal form against the streams
#
# The census: eight base parts, then growth steps that take every union
# of two parts (a part with itself included) and the meet of each part
# with the open and the closed part of each census open.

CENSUS_OPENS = [parse_ratopen("(0,1/2)"), parse_ratopen("(1/4,3/4)")]
CENSUS_BASE = [
    CountablePoints(RATIONALS), CoCountable(RATIONALS), CoCountable(DYADICS), Generic(),
    *map(Open, CENSUS_OPENS), *map(Closed, CENSUS_OPENS),
]


def census_step(parts):
    unions = [Union(pair) for pair in itertools.combinations_with_replacement(parts, 2)]
    meets = [meet(p, u) for p in parts for u in CENSUS_OPENS
             for meet in (IntersectWithOpen, IntersectWithClosed)]
    return unions + meets


CENSUS_DEPTH1 = census_step(CENSUS_BASE)
CENSUS_DEPTH2 = census_step(CENSUS_BASE + CENSUS_DEPTH1)
LADDER_TOLS = [F(1, 10 ** k) for k in (3, 6, 9, 12)]
EIGHTHS = [ivs.FinUnion((Iv(F(i, 8), F(i + 1, 8), False, False),)) for i in range(8)]


def fat(x, t) -> bool:
    """Does the set picture of x hold t, a point of no census end? The
    listings and generic weigh nothing, co-listings everything."""
    if isinstance(x, Open):
        return x.part.contains(t)
    if isinstance(x, Closed):
        return not x.of_open.contains(t)
    if isinstance(x, (CountablePoints, CoCountable, Generic)):
        return isinstance(x, CoCountable)
    if isinstance(x, Union):
        return any(fat(p, t) for p in x.parts)
    if isinstance(x, IntersectWithOpen):
        return fat(x.part, t) and x.open_.contains(t)
    return fat(x.part, t) and not x.of_open.contains(t)


def set_picture(x, d):
    """The length of x's set picture on the regions plus the atoms x
    holds. The census ends and the regions of DESCRIPTOR_KINDS lie on the
    quarters, so the picture is whole or empty inside each eighth."""
    length = Measure(d.regions)
    fill = sum((measure_fin(length, c) for i, c in enumerate(EIGHTHS) if fat(x, F(2 * i + 1, 16))), F(0))
    return fill + sum((w for q, w in d.atoms if holds_point(x, q)), F(0))


def test_the_census_has_its_counts():
    assert (len(CENSUS_DEPTH1), len(CENSUS_DEPTH2)) == (68, 3230)


def test_normal_forms_by_hand():
    rats, half = CountablePoints(RATIONALS), parse_ratopen("(0,1/2)")
    x = IntersectWithClosed(Union((rats, Open(parse_ratopen("(0,1/8)")))), parse_ratopen("(1/4,1/2)"))
    assert normal_form(x) == {rats: parse_fin("[0,1/4]|[1/2,1]"), WHOLE: parse_fin("(0,1/8)")}
    y = Union((IntersectWithOpen(CoCountable(DYADICS), half), Closed(half), Generic()))
    assert normal_form(y) == {CoCountable(DYADICS): half.fin, WHOLE: parse_fin("[0,0]|[1/2,1]"),
                              Generic(): ivs.FULL}
    # the partner is built on the interior (1/2,1] of S_big = [0,0]|[1/2,1]
    assert _partner(Union((Closed(half), Generic()))) == Union(
        (rats, Closed(parse_ratopen("(1/2,1]"))))
    assert _partner(Generic()) is None and _partner(CoCountable(DYADICS)) == rats


@pytest.mark.parametrize("part,route", [
    ("(0,1/2)", "exact-open"),
    ("union((0,1/4); (1/2,1))", "exact-open"),
    ("meet-open((0,1/2); (1/4,3/4))", "exact-open"),
    ("closed (0,1/2)", "exact-closed"),
    ("meet-closed((0,1/2); (1/4,3/4))", "exact-locally-closed"),
    ("meet-open(rationals; empty)", "exact-open"),
    ("meet-open(irrationals; (0,1/2))", "normal-form"),
])
def test_the_route_names_the_kind_of_part(part, route):
    from locale_lab.cli import parse_part

    assert measure_bounds(parse_part(part), Lebesgue(), TOL).certificates == (route,)


@pytest.mark.parametrize("i,kind", enumerate(sorted(DESCRIPTOR_KINDS)))
def test_the_census_answers_its_set_picture_exactly(i, kind):
    # every depth-1 shape under each kind, every depth-2 shape under one
    d = DESCRIPTOR_KINDS[kind]
    for x in CENSUS_BASE + CENSUS_DEPTH1 + CENSUS_DEPTH2[i::4]:
        b = measure_bounds(x, d, TOL)
        assert b.lower == b.upper == set_picture(x, d), x


@pytest.mark.parametrize("tol", LADDER_TOLS, ids=["1e-3", "1e-6", "1e-9", "1e-12"])
@pytest.mark.parametrize("kind", sorted(DESCRIPTOR_KINDS))
def test_the_streams_certify_the_depth1_census(kind, tol):
    # the base parts too: opens and closed parts stream like any other
    d = DESCRIPTOR_KINDS[kind]
    for x in CENSUS_BASE + CENSUS_DEPTH1:
        v = measure_bounds(x, d, tol).lower
        b = stream_bounds(x, d, tol)
        assert b.contains(v) and b.width <= tol, (x, v, b)


@given(st.sampled_from(CENSUS_DEPTH2), st.sampled_from(sorted(DESCRIPTOR_KINDS)),
       st.sampled_from(LADDER_TOLS))
@settings(max_examples=40, deadline=None)
def test_the_streams_certify_the_depth2_census(x, kind, tol):
    d = DESCRIPTOR_KINDS[kind]
    v = measure_bounds(x, d, tol).lower
    b = stream_bounds(x, d, tol)
    assert b.contains(v) and b.width <= tol, (x, v, b)


# ----------------------------------------------------------- interval additivity

def test_strict_additivity_exact_for_open_pairs():
    d = Lebesgue()
    x = Open(parse_ratopen("(0,1/2)"))
    y = Open(parse_ratopen("(1/4,3/4)"))
    r = strict_additivity_interval(x, y, d, TOL)
    assert r.lo == r.hi == 0


def test_strict_additivity_for_hidden_intersection_pair():
    d = Lebesgue()
    r = strict_additivity_interval(
        CountablePoints(RATIONALS), CoCountable(RATIONALS), d, TOL
    )
    assert r.union.lower == r.union.upper == 1
    assert r.contains_zero()
    assert r.width <= 4 * TOL


def test_strict_additivity_open_against_its_complement():
    d = Lebesgue()
    u = parse_ratopen("(0,1/2)")
    r = strict_additivity_interval(Open(u), Closed(u), d, TOL)
    assert r.contains_zero()
    assert r.union.lower == 1
    assert r.inter.upper == 0


def test_the_residual_answers_when_a_side_is_unboundable(stuck_partners):
    # the streams cannot bound x from below, but the residual reads the
    # normal form and needs no stream
    x = IntersectWithOpen(CoCountable(RATIONALS), parse_ratopen("(0,1)"))
    with pytest.raises(TolNotReached):
        stream_bounds(x, Lebesgue(), TOL)
    r = strict_additivity_interval(x, Generic(), Lebesgue(), TOL)
    assert (r.lo, r.hi) == (0, 0)
    assert (r.x.lower, r.y.upper, r.union.lower) == (1, 0, 1)


# ----------------------------------------------------------- interval partners

def test_null_partner_for_an_open():
    b, certs = null_partner_interval(Open(parse_ratopen("(0,1/3)")), Lebesgue(), TOL)
    assert b == Closed(parse_ratopen("(0,1/3)"))
    assert certs["union"].is_exact and certs["union"].lower == 1
    assert certs["intersection"].upper == 0
    assert certs["partner"].lower == F(2, 3)


def test_null_partner_for_a_closed():
    u = parse_ratopen("(0,1/3)")
    b, certs = null_partner_interval(Closed(u), Lebesgue(), TOL)
    assert b == Open(u)
    assert certs["partner"].lower == F(1, 3)


def test_null_partner_for_countable_points():
    b, certs = null_partner_interval(CountablePoints(RATIONALS), Lebesgue(), TOL)
    assert b == CoCountable(RATIONALS)
    assert certs["union"].lower == 1
    assert certs["intersection"].upper <= 2 * TOL
    assert certs["partner"].lower >= 1 - TOL


def test_null_partner_for_the_generic_sublocale():
    b, certs = null_partner_interval(Generic(), Lebesgue(), TOL)
    assert isinstance(b, Closed)
    assert certs["partner"].lower >= 1 - 2 * TOL
    assert certs["intersection"].upper <= TOL


def test_null_partner_stage_leaves_unheld_atoms_to_the_partner():
    # the generic part holds no atom, so its small stage drops them all,
    # even the one at 0, which stage 1 covers
    d = Mixture((Lebesgue(), atomic([("0", "1"), ("1/2", "1")])))
    b, certs = null_partner_interval(Generic(), d, TOL)
    assert isinstance(b, Closed)
    assert not b.of_open.contains(F(0)) and not b.of_open.contains(F(1, 2))
    assert certs["union"].lower >= total_measure(d) - 2 * TOL


def test_small_stage_counts_held_atoms_from_the_start():
    # the dyadics hold the atom at 0, so the stage's length gets only the
    # tol the atom leaves of the 2*tol
    d = Mixture((Lebesgue(), atomic([("0", "1/1000")])))
    w = _small_stage(CountablePoints(DYADICS), d, TOL)
    assert measure_ro(d, w) <= 2 * TOL


def test_null_partner_refuses_fat_shapes_without_structure():
    x = IntersectWithOpen(CoCountable(RATIONALS), parse_ratopen("(0,1)"))
    with pytest.raises((UnsupportedCombination, TolNotReached)):
        null_partner_interval(x, Lebesgue(), TOL)


# ----------------------------------------------------------- the streamed certificates
#
# The residual and partner certificates measured through the streams
# until they read the normal form. That route is kept here as their
# oracle: each exact certificate must lie inside its streamed one.

CENSUS_PAIRS = list(itertools.combinations_with_replacement(CENSUS_BASE, 2))  # the depth-1 unions


def stream_residual(x, y, d, tol):
    """strict_additivity_interval as it read stream_bounds: the exact meet
    for two opens, the monotone cap otherwise."""
    bx, by, bu = (stream_bounds(p, d, tol) for p in (x, y, Union((x, y))))
    if isinstance(x, Open) and isinstance(y, Open):
        m = measure_ro(d, meet(x.part, y.part))
        bi = MeasureBounds(m, m, ("exact-open",))
    else:
        cap = max(min(bx.upper, by.upper, bx.upper + by.upper - bu.lower), F(0))
        bi = MeasureBounds(F(0), cap, ("monotone-intersection",))
    return ResidualBounds(bu.lower + bi.lower - bx.upper - by.upper,
                          bu.upper + bi.upper - bx.lower - by.lower, bu, bi, bx, by)


def stream_partner(x, d, tol):
    """null_partner_interval as it read stream_bounds: an open and its
    closed complement are disjoint, a listing's meet with its co-listing
    is bounded by accounting, and a null x gets the closed complement of
    a small stage."""
    total = total_measure(d)
    whole = MeasureBounds(total, total, ())
    if isinstance(x, (Open, Closed)):
        b = Closed(x.part) if isinstance(x, Open) else Open(x.of_open)
        return b, {"union": whole, "intersection": MeasureBounds(0, 0, ()),
                   "partner": stream_bounds(b, d, tol)}
    if isinstance(x, (CountablePoints, CoCountable)):
        b = CoCountable(x.points) if isinstance(x, CountablePoints) else CountablePoints(x.points)
        bx, bb = stream_bounds(x, d, tol), stream_bounds(b, d, tol)
        return b, {"union": whole, "partner": bb,
                   "intersection": MeasureBounds(0, max(F(0), bx.upper + bb.upper - total), ())}
    bx = stream_bounds(x, d, tol)
    if bx.upper > tol:
        raise UnsupportedCombination(f"{x} is not null")
    w = _small_stage(x, d, tol)
    m = closed_mass(d, w)
    return Closed(w), {"union": MeasureBounds(m, total, ()), "partner": MeasureBounds(m, m, ()),
                       "intersection": MeasureBounds(0, bx.upper, ())}


@pytest.mark.parametrize("kind", sorted(DESCRIPTOR_KINDS))
def test_the_residual_lies_inside_the_streamed_residual(kind):
    d = DESCRIPTOR_KINDS[kind]
    for x, y in CENSUS_PAIRS:
        new, old = strict_additivity_interval(x, y, d, TOL), stream_residual(x, y, d, TOL)
        assert old.lo <= new.lo <= 0 <= new.hi <= old.hi, (x, y, new, old)


@pytest.mark.parametrize("kind", sorted(DESCRIPTOR_KINDS))
def test_the_residual_of_streamed_bounds_is_the_streamed_residual(kind, monkeypatch):
    # fed the streams' bounds, which have width, in place of the exact
    # ones, the interval arithmetic is the streamed route's; two opens
    # would stream their meet, which the streamed route took exactly
    d = DESCRIPTOR_KINDS[kind]
    monkeypatch.setattr(measure_module, "measure_bounds", stream_bounds)
    for x, y in CENSUS_PAIRS:
        if not (isinstance(x, Open) and isinstance(y, Open)):
            new, old = strict_additivity_interval(x, y, d, TOL), stream_residual(x, y, d, TOL)
            assert (new.lo, new.hi) == (old.lo, old.hi), (x, y)


@pytest.mark.parametrize("kind", sorted(DESCRIPTOR_KINDS))
def test_the_partner_certificates_lie_inside_the_streamed_ones(kind):
    d = DESCRIPTOR_KINDS[kind]

    def answer(f, x):
        try:
            return f(x, d, TOL)
        except (UnsupportedCombination, TolNotReached) as exc:
            return type(exc)

    for x in CENSUS_BASE + CENSUS_DEPTH1:
        new, old = answer(null_partner_interval, x), answer(stream_partner, x)
        if isinstance(old, type):
            assert new is old, (x, new)
            continue
        (b, certs), (old_b, old_certs) = new, old
        assert b == old_b, x
        for name, want in old_certs.items():
            got = certs[name]
            assert want.lower <= got.lower <= got.upper <= want.upper, (x, name, got, want)


def test_parse_descriptor_grammar():
    assert parse_descriptor("lebesgue") == Lebesgue()
    assert parse_descriptor("restrict [0,1/2]|(3/4,1)") == LebesgueRestrictedTo(
        parse_fin("[0,1/2]|(3/4,1)")
    )
    assert parse_descriptor("atoms 1/2:1,3/4:1/3") == atomic(
        [("1/2", "1"), ("3/4", "1/3")]
    )
    got = parse_descriptor("mix lebesgue + atoms 1/2:1")
    assert got == Mixture((Lebesgue(), atomic([("1/2", "1")])))
    with pytest.raises(UnsupportedDescriptor):
        parse_descriptor("uniform")
    with pytest.raises(UnsupportedDescriptor):
        parse_descriptor("atoms 1/2")


# ----------------------------------------------------------- one form against the tree
#
# Measures were once a tree of four descriptor classes, each operation a
# recursion over it. The tree and its recursions are kept here as the
# oracle for the single Measure(regions, atoms) form.


@dataclass(frozen=True)
class TreeLebesgue:
    pass


@dataclass(frozen=True)
class TreeRestricted:
    region: object


@dataclass(frozen=True)
class TreeAtoms:
    atoms: tuple  # sorted by point


@dataclass(frozen=True)
class TreeMix:
    parts: tuple


def tree_measure_fin(t, fin):
    if isinstance(t, TreeLebesgue):
        return fin.length()
    if isinstance(t, TreeRestricted):
        return ivs.intersect(fin, t.region).length()
    if isinstance(t, TreeAtoms):
        return sum((w for q, w in t.atoms if fin.contains(q)), F(0))
    return sum((tree_measure_fin(p, fin) for p in t.parts), F(0))


def tree_point_mass(t, q):
    if isinstance(t, TreeAtoms):
        return sum((w for p, w in t.atoms if p == q), F(0))
    if isinstance(t, TreeMix):
        return sum((tree_point_mass(p, q) for p in t.parts), F(0))
    return F(0)


def tree_null_open(t):
    if isinstance(t, TreeLebesgue):
        return EMPTY_RO
    if isinstance(t, TreeRestricted):
        fat = normalize(p for p in t.region.pieces if p.lo < p.hi)
        return RatOpen(interior(ivs.complement(ivs.closure(fat))))
    if isinstance(t, TreeAtoms):
        return full_minus_points(q for q, _ in t.atoms)
    acc = FULL_RO
    for p in t.parts:
        acc = meet(acc, tree_null_open(p))
    return acc


def tree_restrict(t, fin):
    if isinstance(t, TreeLebesgue):
        return TreeRestricted(fin)
    if isinstance(t, TreeRestricted):
        return TreeRestricted(ivs.intersect(t.region, fin))
    if isinstance(t, TreeAtoms):
        return TreeAtoms(tuple((q, w) for q, w in t.atoms if fin.contains(q)))
    return TreeMix(tuple(tree_restrict(p, fin) for p in t.parts))


def tree_without_atoms(t):
    if isinstance(t, TreeAtoms):
        return TreeAtoms(())
    if isinstance(t, TreeMix):
        return TreeMix(tuple(tree_without_atoms(p) for p in t.parts))
    return t


def tree_rest_bound(t, lazy, n):
    """The length left unseen after stage n, on a tree without atoms."""
    if isinstance(t, (TreeLebesgue, TreeRestricted)):
        return lazy.tail(n)
    if isinstance(t, TreeAtoms):
        return F(0)
    return sum((tree_rest_bound(p, lazy, n) for p in t.parts), F(0))


def tree_stage_measures(t, lazy):
    if isinstance(t, TreeRestricted):
        seen = ivs.EMPTY
        for n in itertools.count():
            seen = ivs.add(seen, ivs.intersect(lazy.grow(n).fin, t.region))
            yield seen.length()
    elif isinstance(t, TreeMix):
        for parts in zip(*(tree_stage_measures(p, lazy) for p in t.parts)):
            yield sum(parts, F(0))
    else:
        for n in itertools.count():
            yield tree_measure_fin(t, lazy.stage(n).fin)


def from_tree(t):
    """The same measure built by the public constructors."""
    if isinstance(t, TreeLebesgue):
        return Lebesgue()
    if isinstance(t, TreeRestricted):
        return LebesgueRestrictedTo(t.region)
    if isinstance(t, TreeAtoms):
        return Measure(atoms=t.atoms)
    return Mixture(tuple(from_tree(p) for p in t.parts))


@st.composite
def coarse_unions(draw):
    """Unions with endpoints on the eighths, degenerate pieces and pieces
    at 0 and 1 included."""
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted((draw(eighths), draw(eighths)))
        pieces.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    if draw(st.booleans()):
        q = draw(eighths)
        pieces.append(Iv(q, q, True, True))
    return normalize(pieces)


# few points, so that parts of a mixture repeat each other's atoms
ATOM_POINTS = [F(0), F(1, 3), F(1, 2), F(5, 8), F(1)]
atom_trees = st.dictionaries(
    st.sampled_from(ATOM_POINTS), st.sampled_from([F(1, 3), F(1, 2), F(1)]), min_size=1
).map(lambda m: TreeAtoms(tuple(sorted(m.items()))))
leaf_trees = st.one_of(
    st.just(TreeLebesgue()), coarse_unions().map(TreeRestricted), atom_trees, atom_trees
)
trees = st.one_of(
    leaf_trees,
    st.lists(st.one_of(leaf_trees, st.lists(leaf_trees, min_size=1, max_size=3)
                       .map(lambda ps: TreeMix(tuple(ps)))),
             min_size=1, max_size=3).map(lambda ps: TreeMix(tuple(ps))),
)


@given(trees, st.lists(coarse_unions(), min_size=1, max_size=3), coarse_opens())
@settings(max_examples=60, deadline=None)
def test_one_form_agrees_with_the_tree(tree, fins, u):
    # the tree beside itself repeats every atom across parts
    for t in (tree, TreeMix((tree, tree))):
        _agrees_with_the_tree(t, fins, u)


def _agrees_with_the_tree(t, fins, u):
    d = from_tree(t)
    assert total_measure(d) == tree_measure_fin(t, ivs.FULL)
    for fin in fins:
        assert measure_fin(d, fin) == tree_measure_fin(t, fin)
    for q in {F(i, 8) for i in range(9)} | set(ATOM_POINTS):
        assert point_mass(d, q) == tree_point_mass(t, q)
    assert null_open(d) == tree_null_open(t)
    for got, want in [(restrict_to_open(d, u), tree_restrict(t, u.fin)),
                      (restrict_to_closed(d, u), tree_restrict(t, ivs.complement(u.fin)))]:
        for fin in [ivs.FULL, *fins]:
            assert measure_fin(got, fin) == tree_measure_fin(want, fin)


@given(trees, st.sampled_from([1, 4]))
@settings(max_examples=12, deadline=None)
def test_stages_agree_with_the_tree(tree, k):
    for t in (tree, TreeMix((tree, tree))):
        d, length = from_tree(t), tree_without_atoms(t)
        for name, x in STAGE_STREAMS:
            nb = neighborhood(x, k)
            got = list(itertools.islice(stage_fractions(d.regions, nb), 61))
            want = zip(tree_stage_measures(length, nb),
                       (tree_rest_bound(length, nb, n) for n in range(61)))
            assert got == list(want), name


@pytest.mark.parametrize("desc", ["mix lebesgue + restrict [0,1/2]",
                                  "mix lebesgue + restrict [0,1/2] + atoms 1/2:1"])
def test_a_mixture_reads_each_grow_once(desc):
    # length and restricted length both read the same grow(n)
    nb = neighborhood(CoCountable(RATIONALS), 3)
    calls = []
    lazy = LazyOpen(lambda n: calls.append(n) or nb.grow(n), nb._tail)
    list(itertools.islice(_stages(parse_descriptor(desc).regions, lazy), 50))
    assert calls == list(range(50))


# Exact answers of streamed queries, as the command printed them when it
# streamed: a change that moves any of them changes what the streams
# certify.
PINNED_ANSWERS = [
    ("lebesgue", "irrationals", 12, "mu in [8796093022203/8796093022208, 1]"),
    ("mix lebesgue + restrict [0,1/2]", "irrationals", 12,
     "mu in [26388279066607/17592186044416, 3/2]"),
    ("restrict [0,1/2]", "irrationals", 12, "mu in [4398046511097/8796093022208, 1/2]"),
    ("mix lebesgue + atoms 1/3:1/2", "rationals", 12,
     "mu in [1/2, 4398046511109/8796093022208]"),
    ("lebesgue", "generic", 9, "mu in [0, 5/8589934592]"),
    ("mix restrict [1/4,3/4] + atoms 1/2:1 + lebesgue", "union(generic; (1/8,1/4))", 9,
     "mu in [2147483643/17179869184, 2147483655/17179869184]"),
    ("restrict [0,1/4]|[1/2,1]|[3/8,3/8]", "rationals", 9, "mu in [0, 5/8589934592]"),
    ("mix atoms 1/3:1/3 + atoms 1/3:1,1/2:1", "irrationals", 9, "mu = 0 (exact)"),
    # the unions' lower bounds come from the partner, no longer from their parts
    ("lebesgue", "union(rationals; (0,1/4))", 12,
     "mu in [2199023255547/8796093022208, 2199023255555/8796093022208]"),
    # through intersect and the gaps of a closed neighbourhood
    ("restrict [0,1/2]", "meet-closed(generic; (1/4,1/2))", 12, "mu in [0, 7/8796093022208]"),
]


@pytest.mark.parametrize("desc,part,digits,answer", PINNED_ANSWERS,
                         ids=[f"{d} | {p} | 1e-{k}" for d, p, k, _ in PINNED_ANSWERS])
def test_pinned_streamed_answers(desc, part, digits, answer):
    from locale_lab.cli import parse_part

    x, d, tol = parse_part(part), parse_descriptor(desc), F(1, 10 ** digits)
    b = stream_bounds(x, d, tol)
    assert (f"mu = {b.lower} (exact)" if b.is_exact else f"mu in [{b.lower}, {b.upper}]") == answer
    assert b.contains(measure_bounds(x, d, tol).lower)


def test_pinned_stalled_answer(capsys, monkeypatch, stuck_partners):
    from locale_lab import cli

    # the upper stream is x's own, so its bound is the one it stalled at
    # when there was no partner to stream
    monkeypatch.setattr(cli, "measure_bounds", stream_bounds)
    part = "meet-closed(union(rationals; (0,1/8)); (1/4,1/2))"
    assert cli.main(["measure", "restrict [0,1/2]", part, "--tol", f"1/{10 ** 12}"]) == 1
    assert capsys.readouterr().err.strip() == (
        f"tolerance 1/{10 ** 12} not reached: partner lower stalled: bounds stuck at "
        "[0, 295147905179352825857/2361183241434822606848] after 70 neighborhoods "
        "of up to 140 stages"
    )


def test_pinned_certificates():
    rats, tol = CountablePoints(RATIONALS), F(1, 10 ** 12)
    res = strict_additivity_interval(rats, CoCountable(RATIONALS), Lebesgue(), tol)
    assert (res.lo, res.hi) == (0, 0)
    partner, certs = null_partner_interval(rats, Lebesgue(), tol)
    assert partner == CoCountable(RATIONALS)
    assert str(certs["partner"]) == "[1, 1] (exact)"
    assert str(certs["intersection"]) == "[0, 0] (exact)"


BAD_TOLS = [0, -1, F(1, 2 ** 101)]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=["0", "-1", "2^-101"])
@pytest.mark.parametrize("entry", [
    lambda tol: measure_bounds(CountablePoints(RATIONALS), Lebesgue(), tol),
    lambda tol: stream_bounds(CountablePoints(RATIONALS), Lebesgue(), tol),
    lambda tol: strict_additivity_interval(
        CountablePoints(RATIONALS), CoCountable(RATIONALS), Lebesgue(), tol),
    lambda tol: null_partner_interval(CountablePoints(RATIONALS), Lebesgue(), tol),
], ids=["measure_bounds", "stream_bounds", "strict_additivity_interval", "null_partner_interval"])
def test_entry_points_refuse_a_bad_tolerance(entry, tol):
    with pytest.raises(BadTolerance) as exc:
        entry(tol)
    assert len(str(exc.value).splitlines()) == 1
    assert ("below 2^-100" in str(exc.value)) == (tol > 0)


# ----------------------------------------------------------- the punctured-stream reference
#
# Before outer measure was split by summand, every atom rode in every
# neighbourhood stream: the stream was punctured at the atoms the shape
# provably avoids, and an atom not yet reached was weighed in the rest
# whenever a conservative test said the limit may hold it. That path is
# kept here as the reference for holds_point and for the split.


def ref_avoids_point(x, a):
    """Is x provably disjoint from the point a? False means unknown."""
    if isinstance(x, Open):
        return not x.part.contains(a)
    if isinstance(x, Closed):
        return x.of_open.contains(a)
    if isinstance(x, CountablePoints):
        return not x.points.contains(a)
    if isinstance(x, CoCountable):
        return x.points.contains(a)
    if isinstance(x, Generic):
        return True
    if isinstance(x, Union):
        return all(ref_avoids_point(p, a) for p in x.parts)
    if isinstance(x, IntersectWithOpen):
        return ref_avoids_point(x.part, a) or not x.open_.contains(a)
    return ref_avoids_point(x.part, a) or x.of_open.contains(a)


def ref_may_contain(x, k, q):
    """False only where q is provably outside the limit of neighborhood(x, k)."""
    if isinstance(x, Open):
        return x.part.contains(q)
    if isinstance(x, Closed):
        return closed_neighborhood(x.of_open, k).contains(q)
    if isinstance(x, CoCountable):
        return full_minus_points(x.points.prefix(k)).contains(q)
    if isinstance(x, (CountablePoints, Generic)):
        return True  # a cover may hold any point
    if isinstance(x, Union):
        return any(ref_may_contain(p, k, q) for p in x.parts)
    if isinstance(x, IntersectWithOpen):
        return ref_may_contain(x.part, k, q) and x.open_.contains(q)
    return ref_may_contain(x.part, k, q) and closed_neighborhood(x.of_open, k).contains(q)


def lazy_puncture(a, pts):
    """Remove finitely many points from the limit open."""
    rest = full_minus_points(pts).fin
    return LazyOpen(lambda n: RatOpen(ivs.intersect(a.grow(n).fin, rest)), a._tail)


def ref_stages(d, lazy, may):
    """(measure of stage n, bound on the rest), atoms included: an atom
    counts from the first grow that holds it, and until then its weight is
    in the rest whenever may says the limit may hold it."""
    seen = [ivs.EMPTY] * len(d.regions)
    reached, waiting = F(0), d.atoms
    for n in itertools.count():
        new = lazy.grow(n).fin
        seen = [ivs.add(s, ivs.intersect(new, r)) for s, r in zip(seen, d.regions)]
        reached += sum((w for q, w in waiting if new.contains(q)), F(0))
        waiting = tuple((q, w) for q, w in waiting if not new.contains(q))
        rest = sum((w for q, w in waiting if may(q)), len(d.regions) * lazy.tail(n))
        yield sum((s.length() for s in seen), reached), rest


def ref_upper(x, d, k, inner, max_stage):
    """The least stage bound of x's k-th punctured neighbourhood."""
    pts = [q for q, _ in d.atoms if ref_avoids_point(x, q)]
    nb = lazy_puncture(neighborhood(x, k), pts)
    may = lambda q: q not in pts and ref_may_contain(x, k, q)  # noqa: E731
    best = None
    for m, rest in itertools.islice(ref_stages(d, nb, may), max_stage + 1):
        best = m + rest if best is None else min(best, m + rest)
        if rest <= inner:
            break
    return best


def ref_bounds(x, d, tol):
    """The bounds measure_bounds gave with atoms in the streams, or None
    where it raised TolNotReached."""
    if isinstance(x, Open):
        m = measure_ro(d, x.part)
        return MeasureBounds(m, m, ())
    if isinstance(x, Closed):
        m = closed_mass(d, x.of_open)
        return MeasureBounds(m, m, ())
    if isinstance(x, Union) and all(isinstance(p, Open) for p in x.parts):
        m = measure_ro(d, ivs.join(*(p.part for p in x.parts)))
        return MeasureBounds(m, m, ())
    total = total_measure(d)
    if isinstance(x, Union) and any(
        structural_union_is_whole(p, q) for p, q in itertools.combinations(x.parts, 2)
    ):
        return MeasureBounds(total, total, ())
    partner = {CountablePoints: CoCountable, CoCountable: CountablePoints}.get(type(x))
    lower = F(0)
    if isinstance(x, Union):
        for p in x.parts:
            sub = ref_bounds(p, d, tol)
            if sub is None:
                return None
            lower = max(lower, sub.lower)
    upper = total
    max_k, max_stage = _budgets(tol)
    for k in range(1, max_k + 1):
        upper = min(upper, ref_upper(x, d, k, tol / 4, max_stage))
        if partner is not None:
            lower = max(lower, total - ref_upper(partner(x.points), d, k, tol / 4, max_stage))
        if upper - lower <= tol:
            return MeasureBounds(lower, upper, ())
    return None


listings = st.sampled_from([RATIONALS, DYADICS])
base_shapes = st.one_of(
    listings.map(CountablePoints),
    listings.map(CoCountable),
    st.just(Generic()),
    coarse_opens().map(Open),
    coarse_opens().map(Closed),
)


def nested_shapes(depth=2):
    """Unions, meet-opens and meet-closeds of the base shapes, to depth."""
    shapes = base_shapes
    for _ in range(depth):
        shapes = st.one_of(
            shapes,
            st.tuples(shapes, shapes).map(Union),
            st.builds(IntersectWithOpen, shapes, coarse_opens()),
            st.builds(IntersectWithClosed, shapes, coarse_opens()),
        )
    return shapes


HALF_OPEN = parse_ratopen("(0,1/2)")


@given(nested_shapes(), st.one_of(eighths, st.just(F(1, 3))))
@settings(max_examples=100, deadline=None)
@example(Union((CountablePoints(DYADICS), Open(HALF_OPEN))), F(3, 4))
@example(IntersectWithClosed(CountablePoints(DYADICS), HALF_OPEN), F(1, 4))
@example(IntersectWithClosed(CoCountable(RATIONALS), HALF_OPEN), F(3, 4))
def test_holds_point_within_the_punctured_stream_bounds(x, q):
    # a unit atom at q measures x as 1 exactly when x holds q
    ref = ref_bounds(x, atomic([(q, 1)]), TOL)
    if ref is not None:
        assert ref.contains(int(holds_point(x, q))), (x, q, ref)


@pytest.mark.parametrize("kind", sorted(DESCRIPTOR_KINDS))
@given(nested_shapes())
@settings(max_examples=30, deadline=None)
def test_split_bounds_overlap_the_punctured_stream_bounds(kind, x):
    d = DESCRIPTOR_KINDS[kind]
    ref = ref_bounds(x, d, TOL)
    new = measure_bounds(x, d, TOL)
    if ref is not None:
        assert max(new.lower, ref.lower) <= min(new.upper, ref.upper), (x, new, ref)


# ----------------------------------------------------------- the k-walk reference
#
# _stream_bounds and _small_stage find their neighbourhood by doubling k
# and bisecting back. The walk over k = 1, 2, ... that they replaced is
# kept here as the reference. The two agree exactly when closing is
# monotone in k, which holds on every case tried but has no proof.


def walk_stream_bounds(x, regions, tol):
    """_stream_bounds with k walked from 1 up, the best bound on each side
    kept, until the two close. It reads the partner and the streams
    through the module, so a planted stall reaches it too."""
    total = total_measure(Measure(regions))
    partner = measure_module._partner(x)
    certs = ("stream-upper", "lower-zero" if partner is None else "partner-lower")
    lower, upper = F(0), total
    inner = tol / 4
    max_k, max_stage = _budgets(tol)
    for k in range(1, max_k + 1):
        last_upper = upper
        try:
            upper = min(upper, _lazy_upper(regions, measure_module.neighborhood(x, k), inner, max_stage))
            upper_cut = False
        except TolNotReached as exc:
            upper, upper_cut = min(upper, exc.upper), True
        if partner is not None:
            try:
                lower = max(lower, total - _lazy_upper(
                    regions, measure_module.neighborhood(partner, k), inner, max_stage))
            except TolNotReached as exc:
                lower = max(lower, total - exc.upper)
        if upper - lower <= tol:
            return MeasureBounds(lower, upper, certs)
    if partner is None or upper_cut or last_upper - upper >= upper - lower - tol:
        side = "upper stream"
    else:
        side = "partner lower"
    raise _stalled(side, lower, upper, tol)


def walk_small_stage(x, d, tol):
    """_small_stage with k walked from 1 up."""
    held = sum((w for q, w in d.atoms if holds_point(x, q)), F(0))
    max_k, max_stage = _budgets(tol)
    for k in range(1, max_k + 1):
        nb = neighborhood(x, k)
        for n, (m, rest) in enumerate(itertools.islice(stage_fractions(d.regions, nb),
                                                        max_stage + 1)):
            if rest <= tol:
                if m + held <= 2 * tol:
                    missed = full_minus_points(q for q, _ in d.atoms if not holds_point(x, q))
                    return ivs.meet(nb.stage(n), missed)
                break
    raise TolNotReached(
        f"upper stream stalled: no stage of measure at most {2 * tol} after "
        f"{max_k} neighborhoods of up to {max_stage} stages",
        side="upper stream",
    )


def outcome(f, *args):
    """What f returns, or the message and bounds of its TolNotReached."""
    try:
        return f(*args)
    except TolNotReached as exc:
        return str(exc), exc.lower, exc.upper, exc.side


@given(nested_shapes(), st.sampled_from(sorted(DESCRIPTOR_KINDS)),
       st.sampled_from([F(1, 10 ** 3), F(1, 10 ** 6)]))
@settings(max_examples=40, deadline=None)
@example(Union((CountablePoints(RATIONALS), IntersectWithOpen(CoCountable(RATIONALS), HALF_OPEN))),
         "lebesgue", TOL)
def test_the_search_finds_what_the_walk_finds(x, kind, tol):
    d = DESCRIPTOR_KINDS[kind]
    assert outcome(_stream_bounds, x, d.regions, tol) == outcome(walk_stream_bounds, x, d.regions, tol)
    assert outcome(_small_stage, x, d, tol) == outcome(walk_small_stage, x, d, tol)


def test_the_search_finds_what_the_walk_finds_on_a_stall(stuck_partners):
    # the walk oracle's stall, the shape its planted example once stalled on
    x = Union((CountablePoints(RATIONALS), IntersectWithOpen(CoCountable(RATIONALS), HALF_OPEN)))
    got = outcome(_stream_bounds, x, (ivs.FULL,), TOL)
    assert got == outcome(walk_stream_bounds, x, (ivs.FULL,), TOL)
    _, lower, upper, side = got
    assert (lower, side) == (0, "partner lower") and F(1, 2) <= upper <= F(1, 2) + TOL


def test_the_search_streams_few_neighbourhoods(monkeypatch):
    # the walk streams k = 1..39 for the irrationals and for their
    # partner, the rationals, 78 in all, and the small k, which never
    # close, cost the most
    ks = []

    def counted(x, k):
        ks.append(k)
        return neighborhood(x, k)

    monkeypatch.setattr(measure_module, "neighborhood", counted)
    tol = F(1, 10 ** 12)
    b = stream_bounds(CoCountable(RATIONALS), Lebesgue(), tol)
    assert b.upper == 1 and b.lower >= 1 - tol
    assert len(ks) <= 30, ks
