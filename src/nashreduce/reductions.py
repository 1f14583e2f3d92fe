"""Two-stage reduction from k-player games to two-player games.

Stage one (``linearize``) turns a k-player normal-form game into a
polymatrix game: each original player keeps its strategies, and one binary
*mediator* player per (player, opposing pure profile) is forced -- by a
chain of multiplication gadgets -- to carry the probability that those
opponents jointly play that profile.  Paying each original through its
mediators makes every payoff a *sum* of pairwise terms while preserving
well-supported equilibria up to a controlled tolerance loss.

Stage two (``bimatrixify``) folds any polymatrix game into a two-player
*imitation* game: the column player picks a (player, strategy) pair of the
polymatrix game and is paid to imitate the row player, while the row player
earns the polymatrix payoff of the pair it picks, minus a steep penalty
``alpha`` for colliding with the column player's block.  Equilibria spread
the column player across all blocks with near-equal mass, so renormalizing
its block masses recovers a polymatrix profile.

Both stages emit a :class:`GameMapping` (the stage and the source's strategy
counts, which fix where each source player/strategy landed: player ``i``
stays polymatrix player ``i`` and becomes the follower's block ``i``; plus
what is needed to reverse the trip) and a :class:`ReductionParams` ledger of
the exact tolerances involved.  The ledger stores only the reduction's
inputs and derives the rest (``eps_2 = eps_m / N``, ``alpha = 8 m^2 / eps_2``),
so it cannot state an inconsistent tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from ._rational import rational, rational_str
from .errors import (
    DegenerateGame,
    DimensionMismatch,
    ParameterError,
    SizeBudgetExceeded,
    ZeroBlockMass,
)
from .gadgets import GadgetCircuit, Tap, resolve_player_budget
from .model import (
    BimatrixGame,
    NormalFormGame,
    PolymatrixGame,
    Role,
    ScaledProfile,
    _check_exact,
    _scaled_blocks,
    _strategy_counts,
    profile_unindex,
    validate_mixed,
)
from .multipliers import build_multiplication_chain, get_params, predicted_player_count

Rat = Any

__all__ = [
    "GameMapping",
    "ReductionParams",
    "compute_eps_m",
    "eps_m_for_counts",
    "estimate_linearized_players",
    "linearize",
    "lift_to_polymatrix",
    "recover_from_polymatrix",
    "bimatrixify",
    "normalize_bimatrix",
    "recover_from_bimatrix",
    "reduce_full",
    "recover_full",
]

STAGES = ("linearize", "bimatrixify", "full")


# the ledger's values in print order; a mapping file's params object holds each
LEDGER = ("construction", "eps_k", "eps_m", "m", "N", "eps_2", "alpha", "divisor")


@dataclass(frozen=True)
class ReductionParams:
    """Exact tolerances and derived constants of a reduction.

    Only what a reduction takes as input is stored: ``eps_m``, which is
    always present and lies in (0, 1); ``eps_k`` and ``construction``, set
    by :func:`linearize`; and ``block_sizes`` (the polymatrix strategy
    counts, as the mapping holds them) and the game's ``divisor``, set by
    :func:`bimatrixify`.
    :func:`reduce_full` sets them all.  The two-player constants are derived
    from those, as the paper fixes them: ``m`` and ``N`` are the number and
    total size of the blocks, ``eps_2 = eps_m / N`` and
    ``alpha = 8 m^2 / eps_2``; they are None without ``block_sizes``.
    """

    eps_m: Rat
    eps_k: Rat | None = None
    construction: str | None = None
    block_sizes: tuple[int, ...] | None = None
    divisor: Rat | None = None

    def __post_init__(self):
        _check_exact((self.eps_m,), "eps_m")
        if not 0 < self.eps_m < 1:
            raise ParameterError(f"eps_m must lie in (0, 1), got {self.eps_m}")

    @property
    def m(self) -> int | None:
        return None if self.block_sizes is None else len(self.block_sizes)

    @property
    def N(self) -> int | None:
        return None if self.block_sizes is None else sum(self.block_sizes)

    @property
    def eps_2(self) -> Rat | None:
        return None if self.block_sizes is None else self.eps_m / self.N

    @property
    def alpha(self) -> Rat | None:
        return None if self.block_sizes is None else 8 * self.m**2 / self.eps_2

    @property
    def eps_2_normalized(self) -> Rat | None:
        """Tolerance to verify at in the normalized two-player game."""
        if self.eps_2 is None or self.divisor is None:
            return None
        return self.eps_2 / self.divisor

    def ledger_lines(self) -> list[str]:
        """Human-readable ``name = value`` lines of the ledger values that are
        set, then ``eps_2_normalized``; exact rationals throughout."""
        named = ((name, getattr(self, name)) for name in (*LEDGER, "eps_2_normalized"))
        return [
            f"{name} = {value if isinstance(value, str) else rational_str(value)}"
            for name, value in named
            if value is not None
        ]


@dataclass(frozen=True)
class GameMapping:
    """Where each source player and strategy lands in the target game.

    The stage fixes the layout, so ``g`` and ``h`` are derived, not stored:
    ``g[i]`` is the target player carrying source player ``i`` and ``h[i]``
    its strategy map.  Linearize keeps source player ``i`` as polymatrix
    player ``i``, strategy for strategy; bimatrixify and full make it block
    ``i`` of the follower (player 1), so ``source_counts`` must be the
    leading ``block_sizes`` (all of them for bimatrixify) and ``h[i]`` is
    that block's consecutive range.  Recovery needs nothing else: linearize
    projects the originals back out, bimatrixify renormalizes the
    follower's blocks.  ``circuit`` (present only on mappings built
    in-process) lets callers lift source profiles forward through the
    gadget circuit; it is never serialized.
    """

    stage: str
    source_counts: tuple[int, ...]
    block_sizes: tuple[int, ...] | None = None
    alpha: Rat | None = None
    divisor: Rat | None = None
    circuit: GadgetCircuit | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.stage not in STAGES:
            raise ParameterError(f"unknown reduction stage {self.stage!r}")
        _strategy_counts(self.source_counts)
        if self.block_sizes is not None:
            _strategy_counts(self.block_sizes)
        if min(self.source_counts, default=1) < 1:
            raise ParameterError("source strategy counts must be positive")
        # bimatrixify refuses an empty game, and a ledger of no blocks divides by zero
        if self.block_sizes is not None and min(self.block_sizes, default=0) < 1:
            raise ParameterError("block sizes must be one or more positive counts")
        if self.stage == "linearize":
            return
        if self.block_sizes is None or self.alpha is None:
            raise ParameterError(f"{self.stage} mappings need block_sizes and alpha")
        counts, full = tuple(self.source_counts), self.stage == "full"
        blocks = tuple(self.block_sizes[: len(counts) if full else None])
        if counts != blocks:
            raise DimensionMismatch(
                f"source counts {counts} are not {'the leading' if full else 'the'} block sizes {blocks}"
            )

    @property
    def g(self) -> tuple[int, ...]:
        k = len(self.source_counts)
        return tuple(range(k)) if self.stage == "linearize" else (1,) * k

    @property
    def h(self) -> tuple[tuple[int, ...], ...]:
        counts = self.source_counts
        if self.stage == "linearize":
            return tuple(map(tuple, map(range, counts)))
        return tuple(map(tuple, map(range, itertools.accumulate(counts, initial=0), itertools.accumulate(counts))))


# ---------------------------------------------------------------------------
# stage one: k-player -> polymatrix


def compute_eps_m(game: NormalFormGame, eps_k: Rat, construction: str) -> Rat:
    """Gadget tolerance for linearize: min{(eps_k / (3 nmax d k))^(1/c), eps0},
    where nmax is the largest number of opposing pure profiles any player faces."""
    return eps_m_for_counts(game.strategy_counts, eps_k, construction)


def eps_m_for_counts(counts: Sequence[int], eps_k: Rat, construction: str) -> Rat:
    """:func:`compute_eps_m` from the source's positive strategy counts, as a
    mapping file holds them; ``eps_k`` must be an exact rational in (0, 1)."""
    k = len(counts)
    if k < 2:
        raise DegenerateGame("need at least two players to linearize")
    _check_exact((eps_k,), "eps_k")
    if not 0 < eps_k < 1:
        raise ParameterError(f"eps_k must lie in (0, 1), got {eps_k}")
    nmax = max(math.prod(counts) // n for n in counts)
    return get_params(construction).eps_m_from(eps_k, nmax, k)


def estimate_linearized_players(
    game: NormalFormGame, eps_m: Rat, construction: str
) -> int:
    """Exact player count :func:`linearize` would build, without building it.

    Each mediator costs 2 players when k = 2 (a copy wire) and
    ``(k - 2) * size(multiplier)`` players otherwise, but log digits are
    built once per first input: a chain's first link reads a strategy of
    player 1 (player 0's mediators) or of player 0 (the others'), and every
    later link reads a new product.
    """
    k = game.k
    total = k
    if k == 2:
        per_mediator = 2
    else:
        per_mediator = (k - 2) * predicted_player_count(construction, eps_m)
        if construction == "log":
            digits = predicted_player_count("log_digits", eps_m)
            per_mediator -= digits
            total += sum(game.strategy_counts[:2]) * digits
    for i in range(k):
        total += math.prod(game.opponent_counts(i)) * per_mediator
    return total


def linearize(
    game: NormalFormGame,
    eps_k: Rat,
    construction: str = "unary",
    player_budget: int | None = None,
) -> tuple[PolymatrixGame, GameMapping, ReductionParams]:
    """k-player normal form to polymatrix, preserving well-supported
    equilibria: every eps_m-equilibrium of the output restricts, on the
    first k players, to an eps_k-equilibrium of the input.

    The first k players of the output are the originals, strategy-for-
    strategy.  Mediator q of player i is forced to the probability that
    i's opponents jointly play the q-th opposing pure profile, and player
    i's payoff matrix reappears column-for-column on its mediator edges.
    """
    k = game.k
    if k < 2:
        raise DegenerateGame("need at least two players to linearize")
    if any(n < 2 for n in game.strategy_counts):
        raise DegenerateGame(
            "single-strategy players have no deviations; drop them first"
        )
    eps_m = compute_eps_m(game, eps_k, construction)
    budget = resolve_player_budget(player_budget)
    predicted = estimate_linearized_players(game, eps_m, construction)
    if predicted > budget:
        raise SizeBudgetExceeded(
            f"linearizing needs {predicted} players, over the budget of {budget}"
        )
    circuit = GadgetCircuit(player_budget=budget)
    originals = [
        circuit.add_input(n=n, label=f"original[{i}]", role=Role.ORIGINAL)
        for i, n in enumerate(game.strategy_counts)
    ]
    zero = rational(0)
    for i in range(k):
        others = [p for p in range(k) if p != i]
        opp_counts = game.opponent_counts(i)
        payoff = game.payoffs[i]
        for q in range(math.prod(opp_counts)):
            mediator = circuit.add_player(
                role=Role.MEDIATOR, scope=f"mediator[{i},{q}]"
            )
            pures = profile_unindex(opp_counts, q)
            factors = [Tap(originals[p].player, s) for p, s in zip(others, pures)]
            build_multiplication_chain(
                circuit, factors, eps_m, construction, out=Tap(mediator, 1)
            )
            circuit.add_edge_matrix(
                originals[i].player,
                mediator,
                [(zero, payoff[j][q]) for j in range(game.strategy_counts[i])],
            )
    gm = circuit.combine()
    mapping = GameMapping("linearize", game.strategy_counts, circuit=circuit)
    params = ReductionParams(eps_m=eps_m, eps_k=eps_k, construction=construction)
    return gm, mapping, params


def lift_to_polymatrix(profile: Sequence[Sequence[Rat]], mapping: GameMapping) -> ScaledProfile:
    """Complete a source-game profile to a full polymatrix profile by giving
    every mediator and gadget player its forced value; the result is
    :meth:`GadgetCircuit.lift`'s :class:`ScaledProfile`, whose ints come
    from scaling the source strategies once and evaluating the circuit on
    ints.  The source players' blocks are the tuples of ``profile``."""
    if mapping.stage not in ("linearize", "full"):
        raise ParameterError(f"cannot lift through a {mapping.stage} mapping")
    if mapping.circuit is None:
        raise ParameterError(
            "this mapping has no gadget circuit (it was read from a file); "
            "lifting needs the in-process mapping"
        )
    k = len(mapping.source_counts)
    if len(profile) != k:
        raise DimensionMismatch(f"profile must cover all {k} source players")
    return mapping.circuit.lift({i: tuple(profile[i]) for i in range(k)})


def recover_from_polymatrix(
    gm: PolymatrixGame, profile: Sequence[Sequence[Rat]], mapping: GameMapping
) -> list[tuple]:
    """Project the original players' strategies out of a polymatrix profile
    (they are carried verbatim, so no renormalization is involved)."""
    if mapping.stage != "linearize":
        raise ParameterError(f"expected a linearize mapping, got {mapping.stage!r}")
    if len(profile) != gm.m:
        raise DimensionMismatch(
            f"profile has {len(profile)} strategies for {gm.m} players"
        )
    return [validate_mixed(profile[i], n) for i, n in enumerate(mapping.source_counts)]


# ---------------------------------------------------------------------------
# stage two: polymatrix -> bimatrix


def bimatrixify(
    gm: PolymatrixGame, eps_m: Rat
) -> tuple[BimatrixGame, GameMapping, ReductionParams]:
    """Polymatrix to a two-player imitation game: every eps_2-equilibrium of
    the output renormalizes to an eps_m-equilibrium of the input, with
    eps_2 = eps_m / N and collision penalty alpha = 8 m^2 / eps_2.

    The row player's matrix has the polymatrix edge blocks off the diagonal
    and -alpha on the diagonal blocks; the column player's is the identity
    (it is paid to match the row player exactly).
    """
    if gm.m < 1:
        raise DegenerateGame("cannot bimatrixify an empty game")
    counts = gm.strategy_counts
    alpha = ReductionParams(eps_m, block_sizes=counts).alpha  # checks eps_m
    game = BimatrixGame.structured(gm, alpha)
    mapping = GameMapping("bimatrixify", counts, block_sizes=counts, alpha=alpha, divisor=game.divisor)
    return game, mapping, ReductionParams(eps_m, block_sizes=counts, divisor=game.divisor)


def normalize_bimatrix(game: BimatrixGame) -> BimatrixGame:
    """The same game with every payoff mapped affinely into [0, 1] by
    (v + alpha) / divisor, where the game derives the divisor (alpha + 1,
    or alpha + 2 when an edge pays more than 1) just as :func:`bimatrixify`
    records it.  The result shares the game's polymatrix game and edges;
    an eps-equilibrium here is an (eps * divisor)-equilibrium of the
    unnormalized game and vice versa.  An edge entry below -alpha would map
    below 0, and raises :class:`ParameterError`."""
    if game.encoding != "structured":
        raise ParameterError("only structured imitation games can be normalized")
    if game.normalized:
        raise ParameterError("the game is already normalized")
    return BimatrixGame.structured(game.polymatrix, game.alpha, normalized=True)


def _check_bimatrix_mapping(g2: BimatrixGame, mapping: GameMapping) -> None:
    """Raise unless ``mapping`` is a bimatrixify or full mapping that agrees
    with the structured game ``g2``.

    The game's own block sizes, alpha and divisor are the ones used; a
    mapping that records others was made for another game, and raises
    :class:`DimensionMismatch`.
    """
    if mapping.stage not in ("bimatrixify", "full"):
        raise ParameterError(f"expected a bimatrixify or full mapping, got {mapping.stage!r}")
    if g2.encoding != "structured":
        raise ParameterError("block recovery and witnesses need the structured (block) encoding")
    if tuple(mapping.block_sizes) != g2.block_sizes:
        raise DimensionMismatch(
            f"mapping blocks {tuple(mapping.block_sizes)} do not match the game's {g2.block_sizes}"
        )
    if mapping.alpha != g2.alpha:
        raise DimensionMismatch(
            f"mapping alpha {rational_str(mapping.alpha)} differs from the game's "
            f"{rational_str(g2.alpha)}"
        )
    if mapping.divisor is not None and mapping.divisor != g2.divisor:
        raise DimensionMismatch(
            f"mapping divisor {rational_str(mapping.divisor)} differs from the game's "
            f"{rational_str(g2.divisor)}"
        )


def recover_from_bimatrix(
    g2: BimatrixGame,
    profile: tuple[Sequence[Rat], Sequence[Rat]],
    mapping: GameMapping,
) -> ScaledProfile:
    """Renormalize the column player's block masses into a polymatrix
    profile, exactly.  Raises ZeroBlockMass for blocks the profile never
    plays (a genuine eps_2-equilibrium gives every block positive mass).

    ``g2`` must be structured, and ``mapping`` must agree with its block
    sizes, alpha and divisor; ``profile`` must hold two strategies.  Both
    strategies are validated and scaled block by block, or read as they
    are when they are :class:`ScaledStrategy` over ``g2``'s blocks.  Over a
    block's own common denominator, ``v / mass`` is ``num / sum(nums)``: the
    result is a :class:`ScaledProfile` with the follower's units over the
    block masses, and a block's ``Fraction`` entries are built when it is
    first read.
    """
    _check_bimatrix_mapping(g2, mapping)
    if len(profile) != 2:
        raise DimensionMismatch(f"profile has {len(profile)} strategies for 2 players")
    x, y = profile
    offsets = g2._offsets
    _scaled_blocks(x, offsets, "leader strategy")
    _, _, units = _scaled_blocks(y, offsets, "follower strategy")
    masses = [sum(units[a:b]) for a, b in zip(offsets, offsets[1:])]
    if 0 in masses:
        raise ZeroBlockMass(masses.index(0))
    return ScaledProfile(offsets, masses, units)


# ---------------------------------------------------------------------------
# the composed pipeline


def reduce_full(
    game: NormalFormGame,
    eps_k: Rat,
    construction: str = "unary",
    player_budget: int | None = None,
) -> tuple[BimatrixGame, GameMapping, ReductionParams]:
    """linearize then bimatrixify; the mapping composes both stages, so
    original player i's strategy j sits at follower index h[i][j]."""
    gm, lin_map, lin_params = linearize(game, eps_k, construction, player_budget)
    g2, bi_map, bi_params = bimatrixify(gm, lin_params.eps_m)
    mapping = replace(bi_map, stage="full", source_counts=game.strategy_counts, circuit=lin_map.circuit)
    return g2, mapping, replace(bi_params, eps_k=eps_k, construction=construction)


def recover_full(
    g2: BimatrixGame,
    profile: tuple[Sequence[Rat], Sequence[Rat]],
    mapping: GameMapping,
) -> list[tuple]:
    """Bimatrix profile back to an original-game profile: renormalize the
    follower's blocks, then keep the original players' blocks, as a list;
    only those blocks become ``Fraction``s."""
    if mapping.stage != "full":
        raise ParameterError(f"expected a full mapping, got {mapping.stage!r}")
    polymatrix_profile = recover_from_bimatrix(g2, profile, mapping)
    return polymatrix_profile[: len(mapping.source_counts)]
