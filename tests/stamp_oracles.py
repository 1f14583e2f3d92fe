"""The always-build reference for stamped gadgets.

``GadgetCircuit._build_repeated`` builds a repeated gadget once and stamps
its later copies.  :func:`always_build` stands in for it and calls the
build every time, so every copy is made anew; a log multiplier still
shares its first input's digits through the circuit's table.
:func:`assert_same` checks that two circuits have the same players, specs,
edges, written files and lifted profiles.
"""

from nashreduce import R
from nashreduce.fileio import write_game


def always_build(self, key, build, inputs, out):
    """``GadgetCircuit._build_repeated`` without its recordings."""
    return build(inputs, out)


def exact_repr(edges) -> str:
    """Keys, values and entry types of every edge, in key order."""
    return repr(sorted((key, [[(type(x), x) for x in row] for row in mat]) for key, mat in edges.items()))


def free_values(circuit) -> dict:
    """A value for every input and undriven player: 1/3 on a binary one,
    (1/2, 1/3, 1/6, 0, ...) on a wider one."""
    players = circuit.combine().players
    free = {p for p, info in enumerate(players) if info.scope.startswith("input:")}
    free.update(circuit.undriven_players())
    return {
        p: R(1, 3) if n == 2 else (R(1, 2), R(1, 3), R(1, 6), *[R(0)] * (n - 3))
        for p, n in enumerate(circuit.strategy_counts)
        if p in free
    }


def assert_same(stamped, direct, tmp_path, lift=True):
    """``lift=False`` skips the lifts, which refuse a circuit holding the
    players of a build that raised."""
    assert stamped.strategy_counts == direct.strategy_counts
    assert stamped.undriven_players() == direct.undriven_players()
    assert repr(stamped.specs) == repr(direct.specs)
    games = [stamped.combine(), direct.combine()]
    assert games[0].players == games[1].players
    assert exact_repr(games[0].edges) == exact_repr(games[1].edges)
    for name, game in zip(("stamped", "direct"), games):
        write_game(tmp_path / f"{name}.json", game)
    assert (tmp_path / "stamped.json").read_bytes() == (tmp_path / "direct.json").read_bytes()
    if not lift:
        return
    values = free_values(stamped)
    assert values == free_values(direct)
    assert stamped.lift(values) == direct.lift(values)
