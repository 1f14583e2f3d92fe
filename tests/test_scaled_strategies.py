"""Strategies and profiles held as ints from lift to verify to recover.

``ScaledStrategy`` is a strategy over blocks checked once, when it is
built; ``ScaledProfile`` is a lifted or recovered profile with the ints of
its one scaling pass.  The verifiers, ``lift_to_bimatrix`` and recovery
read those ints when the offsets are the game's, and take the full pass
otherwise.  Every result must equal what the plain tuples give.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from lift_oracles import (
    MIXED_PLANTS,
    per_block_lift_to_bimatrix,
    planted_mixed_source,
    planted_pure_source,
)
from nashreduce import R, fileio, model
from nashreduce.errors import DimensionMismatch, ParameterError, ZeroBlockMass
from nashreduce.model import (
    BimatrixGame,
    ScaledStrategy,
    pure_strategy,
    random_normal_form,
    random_polymatrix,
)
from nashreduce.reductions import (
    bimatrixify,
    lift_to_polymatrix,
    linearize,
    normalize_bimatrix,
    recover_from_bimatrix,
    recover_from_polymatrix,
    recover_full,
    reduce_full,
)
from nashreduce.solvers import lift_to_bimatrix

OFFSETS = (0, 2, 5, 7)
# blocks 1/4, 1/2 and 1/4 of the mass, each over a scale of its own; block
# 1's scale is not the lcm of its entries' denominators
EXAMPLE = ScaledStrategy(OFFSETS, (4, 12, 8), (1, 0, 2, 0, 4, 1, 1))
VALUES = (F(1, 4), F(0), F(1, 6), F(0), F(1, 3), F(1, 8), F(1, 8))


# ---------------------------------------------------------------------------
# the type's contract


def test_reads_as_the_tuple_of_its_values():
    assert len(EXAMPLE) == 7
    assert tuple(EXAMPLE) == VALUES == tuple(EXAMPLE[r] for r in range(7))
    assert {type(v) for v in EXAMPLE} == {F}
    assert EXAMPLE[-1] == F(1, 8) and EXAMPLE[-7] == F(1, 4) and EXAMPLE[-3] == F(1, 3)
    assert EXAMPLE[1:5] == VALUES[1:5] and EXAMPLE[::-2] == VALUES[::-2]
    assert list(reversed(EXAMPLE)) == list(reversed(VALUES))
    assert EXAMPLE.index(F(1, 3)) == 4 and F(1, 6) in EXAMPLE
    for r in (7, -8):
        with pytest.raises(IndexError):
            EXAMPLE[r]


SLICES = [slice(1, 5), slice(None, None, -2), slice(-5, -1), slice(-1, -8, -3), slice(2, None, 3),
          slice(3, 3), slice(5, 1), slice(4, 100), slice(-100, 2), slice(9, 20), slice(100, None, -4)]


@pytest.mark.parametrize("r", SLICES, ids=str)
def test_a_slice_reads_as_the_tuple_slice(r):
    assert EXAMPLE[r] == VALUES[r] and type(EXAMPLE[r]) is tuple


def test_a_slice_builds_only_its_entries(monkeypatch):
    # a block at a time out of a long strategy stays linear in its length
    long = ScaledStrategy(range(0, 2001, 2), (2000,) * 1000, (1,) * 2000)
    monkeypatch.setattr(ScaledStrategy, "__iter__", lambda self: pytest.fail("the slice read every entry"))
    assert long[1998:2000] == (F(1, 2000),) * 2 and long[-1:-5:-2] == (F(1, 2000),) * 2


def test_equals_and_hashes_like_the_tuple():
    assert EXAMPLE == VALUES and VALUES == EXAMPLE
    assert not EXAMPLE != VALUES and not VALUES != EXAMPLE
    assert hash(EXAMPLE) == hash(VALUES)
    assert {VALUES: 1}[EXAMPLE] == 1 and {EXAMPLE: 1}[VALUES] == 1
    # the same values over other scales are the same strategy
    assert EXAMPLE == ScaledStrategy(OFFSETS, (8, 12, 16), (2, 0, 2, 0, 4, 2, 2))
    other = VALUES[:-2] + (F(1, 4), F(0))
    assert EXAMPLE != other and other != EXAMPLE
    assert EXAMPLE != list(VALUES)  # a tuple is never equal to a list


def test_is_immutable():
    for name in ("offsets", "scales", "units", "anything"):
        with pytest.raises(AttributeError):
            setattr(EXAMPLE, name, ())
        with pytest.raises(AttributeError):
            delattr(EXAMPLE, name)
    with pytest.raises(TypeError):
        EXAMPLE[0] = F(0)
    assert tuple(EXAMPLE) == VALUES


# units, scales, error class, message: the one scaling pass's own messages
MALFORMED = {
    "negative_unit": ((1, 0, 2, 4, -2, 1, 1), (4, 12, 8), ParameterError,
                      r"^follower strategy block 1 has a negative entry$"),
    "fraction_unit": ((1, 0, 2, 0, 4, F(1, 2), F(3, 2)), (4, 12, 8), ParameterError,
                      r"^follower strategy block 2 has an entry that is not an exact rational$"),
    "float_unit": ((1.0, 0, 2, 0, 4, 1, 1), (4, 12, 8), ParameterError,
                   r"^follower strategy block 0 has an entry that is not an exact rational$"),
    "mass_not_one": ((1, 0, 2, 0, 4, 1, 1), (4, 12, 7), ParameterError,
                     r"^follower strategy does not sum to 1$"),
    "wrong_length": ((1, 0, 2, 0, 4, 1), (4, 12, 8), DimensionMismatch,
                     r"^follower strategy has length 6, expected 7$"),
    "zero_scale": ((1, 0, 2, 0, 4, 1, 1), (4, 0, 8), ParameterError,
                   r"^follower strategy needs one positive int scale per block$"),
    "missing_scale": ((1, 0, 2, 0, 4, 1, 1), (4, 12), ParameterError,
                      r"^follower strategy needs one positive int scale per block$"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_the_constructor_rejects_what_the_pass_rejects(name):
    units, scales, cls, pattern = MALFORMED[name]
    with pytest.raises(cls, match=pattern):
        ScaledStrategy(OFFSETS, scales, units, "follower strategy")


def test_one_block_names_no_block():
    with pytest.raises(ParameterError, match=r"^mixed strategy has a negative entry$"):
        ScaledStrategy((0, 2), (1,), (2, -1))
    assert ScaledStrategy((0, 2), (3,), (1, 2)) == (F(1, 3), F(2, 3))


def small_structured(sizes=(2, 3, 2)) -> BimatrixGame:
    gm = random_polymatrix(3, sizes, lo=R(-1), hi=R(2))
    return BimatrixGame.structured(gm, R(5))


def test_other_block_sizes_take_the_full_pass(monkeypatch):
    """EXAMPLE's blocks are (2, 3, 2): a (3, 2, 2) game or the dense form
    reads its values, through the pass, as it reads the plain tuple."""
    calls = []
    scaled = model._scaled
    monkeypatch.setattr(model, "_scaled", lambda *args: calls.append(1) or scaled(*args))
    uniform = (F(1, 7),) * 7
    for game in (small_structured((3, 2, 2)), small_structured().to_dense()):
        for x, y in ((EXAMPLE, uniform), (uniform, EXAMPLE)):
            plain = (tuple(x), tuple(y))
            del calls[:]
            assert game.expected_payoffs(x, y) == game.expected_payoffs(*plain)
            assert len(calls) == 4
            for eps in (0, R(1, 20)):
                assert game.verify_wsne(x, y, eps) == game.verify_wsne(*plain, eps)
    # the game's own blocks read the ints: only the plain tuple is scaled
    game = small_structured()
    del calls[:]
    assert game.verify_wsne(EXAMPLE, uniform, 0) == game.verify_wsne(VALUES, uniform, 0)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# scaled against plain inputs, on seeded structured games


def random_scaled(rng: random.Random, offsets, played=None) -> ScaledStrategy:
    """A random strategy over the blocks, built from ints: block ``i`` has
    weight ``p[i] / Q`` and units ``p[i] * u`` over the scale ``Q *
    sum(u)``, times a common factor, so it is not in lowest terms.  Blocks
    outside ``played`` (default: a random nonempty subset) get no mass."""
    m = len(offsets) - 1
    if played is None:
        played = [i for i in range(m) if rng.random() < 0.7] or [rng.randrange(m)]
    p = [rng.randint(1, 5) if i in played else 0 for i in range(m)]
    q, k = sum(p), rng.randint(1, 3)
    scales, units = [], []
    for i, (a, b) in enumerate(zip(offsets, offsets[1:])):
        u = [rng.choice((0, 0, 1, 2, 3)) for _ in range(a, b)]
        u[rng.randrange(b - a)] += 1
        scales.append(k * q * sum(u))
        units += [k * p[i] * n for n in u]
    return ScaledStrategy(offsets, scales, units)


def seeded_cases(seed: int):
    """A structured game, its mapping and scaled strategy pairs: the
    lifted witness of a random profile, three random pairs whose follower
    plays every block and one whose follower may leave a block unplayed."""
    rng = random.Random(seed)
    counts = ((2, 3, 2), (2, 2, 2, 3), (3, 2))[seed % 3]
    gm = random_polymatrix(rng, counts, denominator=rng.choice((2, 6, 100)), lo=R(-1), hi=R(2))
    g2, mapping, _ = bimatrixify(gm, R(1, 2))
    profile = [
        pure_strategy(n, rng.randrange(n)) if rng.random() < 0.5
        else tuple(F(w, 6) for w in (6 - n + 1, *[1] * (n - 1)))
        for n in counts
    ]
    pairs = [lift_to_bimatrix(g2, profile, mapping)]
    everywhere = range(len(counts))
    pairs += [(random_scaled(rng, g2._offsets), random_scaled(rng, g2._offsets, everywhere))
              for _ in range(3)]
    pairs.append((random_scaled(rng, g2._offsets), random_scaled(rng, g2._offsets)))
    return g2, mapping, pairs


def outcome(call):
    try:
        return call()
    except ZeroBlockMass as err:
        return ("ZeroBlockMass", str(err))


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_scaled_inputs_give_what_their_tuples_give(seed, normalized):
    g2, mapping, pairs = seeded_cases(seed)
    game = normalize_bimatrix(g2) if normalized else g2
    found = 0
    for x, y in pairs:
        for a, b in ((x, y), (tuple(x), y), (x, tuple(y))):
            want = game.expected_payoffs(tuple(x), tuple(y))
            got = game.expected_payoffs(a, b)
            assert got == want
            assert [{type(v) for v in u} for u in got] == [{type(v) for v in u} for u in want]
            for eps in (0, R(1, 50), R(1, 2)):
                want = game.verify_wsne(tuple(x), tuple(y), eps)
                got = game.verify_wsne(a, b, eps)
                assert got.ok is want.ok and got.violations == want.violations
                assert [type(v.payoff) for v in got.violations] == [type(v.payoff) for v in want.violations]
                found += len(want.violations)
            want = outcome(lambda: recover_from_bimatrix(g2, (tuple(x), tuple(y)), mapping))
            got = outcome(lambda: recover_from_bimatrix(g2, (a, b), mapping))
            assert got == want
            if want[0] != "ZeroBlockMass":
                assert {type(v) for block in got for v in block} == {F}
    assert found


def test_recovered_blocks_are_built_when_read():
    g2, mapping, pairs = seeded_cases(1)
    x, y = pairs[1]
    plain = [tuple(F(v) for v in block) for block in
             [y[a:b] for a, b in zip(g2._offsets, g2._offsets[1:])]]
    back = recover_from_bimatrix(g2, (x, y), mapping)
    assert back._blocks == [None] * len(plain)
    assert back[-1] == tuple(v / sum(plain[-1]) for v in plain[-1])
    assert back._blocks[:-1] == [None] * (len(plain) - 1)
    assert back[1:3] == [tuple(v / sum(p) for v in p) for p in plain[1:3]]
    assert back == [tuple(v / sum(p) for v in p) for p in plain] == list(back)
    # a recovered profile verifies through its ints as its tuples do
    poly = g2.polymatrix
    for eps in (0, R(1, 10), R(1, 2)):
        assert poly.verify_wsne(back, eps) == poly.verify_wsne(list(back), eps)


def test_a_profile_of_other_players_takes_the_full_pass():
    g2, mapping, pairs = seeded_cases(0)  # blocks (2, 3, 2)
    back = recover_from_bimatrix(g2, pairs[1], mapping)
    other = random_polymatrix(1, (3, 2, 2))
    for profile in (back, list(back)):
        with pytest.raises(DimensionMismatch, match=r"^player 0 strategy has length 2, expected 3$"):
            other.verify_wsne(profile, 0)


def error_of(call) -> tuple:
    try:
        return ("ok", call())
    except (DimensionMismatch, ParameterError) as err:
        return (type(err), str(err))


SHARED_FAULTS = {
    # tuples that players 3 and 7 share, and that player 1 holds as a copy
    "negative_entry": (F(3, 2), F(-1, 2)),
    "sum_not_one": (F(1, 2), F(1, 3)),
    "float_entry": (0.5, 0.5),
    "good": (F(1, 3), F(2, 3)),
}


@pytest.mark.parametrize("fault", sorted(SHARED_FAULTS))
@pytest.mark.parametrize("copy_at", [None, 1, 5])
def test_a_shared_tuple_is_scaled_once_and_faults_name_the_first_player(fault, copy_at, monkeypatch):
    """A tuple object that several players hold is scaled once; an error
    is the one that the same profile of distinct copies raises, naming
    the first player at fault."""
    gm = random_polymatrix(1, (2,) * 9, lo=R(-1), hi=R(2))
    shared = SHARED_FAULTS[fault]
    profile = [(F(1, 2), F(1, 2))] * 9
    profile[3] = profile[7] = shared
    if copy_at is not None:
        profile[copy_at] = tuple(list(shared))
    copies = [tuple(list(p)) for p in profile]
    scaled = model._scaled
    lengths = []
    monkeypatch.setattr(model, "_scaled", lambda v, *args: lengths.append(len(v)) or scaled(v, *args))
    for call in (lambda p: gm.verify_wsne(p, R(1, 10)), gm.expected_payoffs):
        got, want = error_of(lambda: call(profile)), error_of(lambda: call(copies))
        assert got == want
    first = min(i for i in (3, copy_at) if i is not None)
    if fault != "good":
        assert want[1].startswith(f"player {first} strategy")
    # the shared objects, the copy and the common (1/2, 1/2) are scaled once each
    assert lengths[::2] == [2 * (2 + (copy_at is not None))] * 2
    assert lengths[1::2] == [2 * 9] * 2


def test_a_zero_block_fails_for_scaled_and_plain_alike():
    g2, mapping, _ = seeded_cases(0)
    y = random_scaled(random.Random(9), g2._offsets, played=[0, 2])
    for strategy in (y, tuple(y)):
        with pytest.raises(ZeroBlockMass, match="block 1"):
            recover_from_bimatrix(g2, ((F(1, 7),) * 7, strategy), mapping)


# ---------------------------------------------------------------------------
# a fully mixed equilibrium through the log reduction and back


def test_a_mixed_equilibrium_round_trips_exactly():
    p = [(R(1, 3), R(2, 3)), (R(2, 5), R(3, 5)), (R(3, 7), R(4, 7))]
    source = planted_mixed_source(p)
    assert source.verify_wsne(p, 0).ok
    g2, mapping, params = reduce_full(source, R(9, 10), "log")
    poly = lift_to_polymatrix(p, mapping)
    originals = range(3)
    assert g2.polymatrix.verify_wsne(poly, params.eps_m, clamped=originals).ok
    x, y = lift_to_bimatrix(g2, poly, mapping)
    assert max(v.denominator.bit_length() for v in y) >= 100
    assert sum(y) == 1 and sum(x) == 1
    back = recover_full(g2, (x, y), mapping)
    assert back == p
    assert {type(v) for block in back for v in block} == {F}


def lift_outcome(lift, g2, profile, mapping):
    """The witness as its ints and values, or the error raised."""
    try:
        x, y = lift(g2, profile, mapping)
    except ParameterError as err:
        return ("ParameterError", str(err))
    return [(s.offsets, s.scales, s.units, tuple(s)) for s in (x, y)]


@pytest.mark.parametrize(
    "case", ["pure-222", "pure-322", "pure-333", "mixed-3", "mixed-5", "small-alpha"]
)
def test_lift_to_bimatrix_matches_the_per_block_loop(case):
    """Blocks that share a best payoff and units share their weighing;
    the witness must be the one every block weighed anew gives,
    on planted pure and mixed lifts, and so must the small-alpha error."""
    kind, arg = case.split("-")
    if kind == "pure":
        source, profile = planted_pure_source(8, tuple(map(int, arg)))
    elif kind == "mixed":
        profile = MIXED_PLANTS[int(arg)]
        source = planted_mixed_source(profile, int(arg))
    else:
        source, profile = planted_pure_source(8, (2, 2, 2))
    g2, mapping, _ = reduce_full(source, R(9, 10), "log")
    poly = lift_to_polymatrix(profile, mapping)
    if kind == "small":
        g2 = BimatrixGame.structured(g2.polymatrix, R(1, 100))
        mapping = replace(mapping, alpha=g2.alpha, divisor=g2.divisor)
    want = lift_outcome(per_block_lift_to_bimatrix, g2, poly, mapping)
    assert lift_outcome(lift_to_bimatrix, g2, poly, mapping) == want
    # and on the plain tuples, which take the full scaling pass
    assert lift_outcome(lift_to_bimatrix, g2, list(poly), mapping) == want
    if kind == "small":
        assert want == ("ParameterError", "alpha is too small to rebalance the block weights")
    else:
        assert len(set(map(tuple, poly))) < len(poly) // 10  # blocks do repeat


# ---------------------------------------------------------------------------
# scaling passes over reduce-log's check sequence


def test_each_vector_is_scaled_once_from_lift_to_recover(tmp_path, monkeypatch):
    """Read back, lift, both verifies and both recoveries of a planted pure
    equilibrium, as reduce-log runs them: the lift scales its three inputs
    and evaluates the circuit on their ints, and recovery checks the three
    source strategies; every other stage reads ints it was handed."""
    source = random_normal_form(random.Random(4), (2, 2, 2))
    gm, lin_map, lin_params = linearize(source, R(9, 10), "log")
    g2, bi_map, bi_params = bimatrixify(gm, lin_params.eps_m)
    fileio.write_game(tmp_path / "g.json", g2)
    fileio.write_mapping(tmp_path / "m.json", bi_map, bi_params)
    pure = [pure_strategy(2, 0)] * 3

    calls = []
    scaled = model._scaled
    monkeypatch.setattr(model, "_scaled", lambda *args: calls.append(1) or scaled(*args))
    counts = {}

    def count(stage, call):
        del calls[:]
        result = call()
        counts[stage] = len(calls)
        return result

    g2_read = count("read", lambda: fileio.read_game(tmp_path / "g.json"))
    map_read, params_read = count("read_mapping", lambda: fileio.read_mapping(tmp_path / "m.json"))
    poly = count("lift", lambda: lift_to_polymatrix(pure, lin_map))
    count("poly_verify", lambda: gm.verify_wsne(poly, lin_params.eps_m))
    x, y = count("lift_to_bimatrix", lambda: lift_to_bimatrix(g2_read, poly, map_read))
    count("bimatrix_verify", lambda: g2_read.verify_wsne(x, y, params_read.eps_2))
    back = count("recover_bimatrix", lambda: recover_from_bimatrix(g2_read, (x, y), map_read))
    recovered = count("recover_polymatrix", lambda: recover_from_polymatrix(gm, back, lin_map))
    assert recovered == pure
    assert counts == {
        "read": 0,
        "read_mapping": 0,
        "lift": 3,
        "poly_verify": 0,
        "lift_to_bimatrix": 0,
        "bimatrix_verify": 0,
        "recover_bimatrix": 0,
        "recover_polymatrix": 3,
    }
