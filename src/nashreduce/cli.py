"""Command-line interface.

Five commands wrap the library: ``reduce`` runs a reduction stage and
writes the game/mapping/ledger files, ``recover`` maps a profile of a
reduced game back to the source game (verifying it first), ``verify``
checks a profile against a game at a tolerance, ``solve`` runs one of the
solvers, and ``gadget`` inspects, builds, and tests the gadget library.

Exit codes are stable:

* 0 — success
* 1 — verification failed, no equilibrium found, or an enumeration cap
  was exceeded
* 2 — unreadable input: file parse errors and malformed rational flags
* 3 — parameter violations (bad tolerances, mismatched dimensions,
  wrong game class for the operation)
* 4 — the reduction would exceed the player budget
  (``NASHREDUCE_PLAYER_BUDGET`` overrides the default cap)
* 5 — a recovery block had zero mass

All tolerances and grid steps are exact rationals written ``a/b``.  No
command prints floating point unless ``--approx`` is passed.  The
commands are deterministic.
"""

import sys
from functools import wraps

import click

from ._rational import rational, rational_str, unit_denominator
from .errors import (
    CapExceeded,
    NashreduceError,
    NoEquilibriumFound,
    ParameterError,
    ParseError,
    SizeBudgetExceeded,
    ZeroBlockMass,
)
from .fileio import (
    dumps_canonical,
    read_game,
    read_mapping,
    read_profile,
    write_game,
    write_mapping,
    write_profile,
)
from .gadgets import GADGET_INFO, GADGET_KINDS, GadgetCircuit
from .model import BimatrixGame, NormalFormGame, PolymatrixGame
from .multipliers import build_multiplier
from .reductions import (
    linearize,
    normalize_bimatrix,
    recover_from_bimatrix,
    recover_from_polymatrix,
    recover_full,
    reduce_full,
)
from .solvers import (
    brute_force_normal_nash,
    grid_enumerate_wsne,
    realized_eps,
    support_enumeration_bimatrix,
)
from .sweep import sweep_gadget

EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_PARSE = 2
EXIT_PARAMETER = 3
EXIT_BUDGET = 4
EXIT_ZERO_BLOCK = 5


def _exit_code(err: NashreduceError) -> int:
    if isinstance(err, ParseError):
        return EXIT_PARSE
    if isinstance(err, SizeBudgetExceeded):
        return EXIT_BUDGET
    if isinstance(err, ZeroBlockMass):
        return EXIT_ZERO_BLOCK
    if isinstance(err, (CapExceeded, NoEquilibriumFound)):
        return EXIT_NO_RESULT
    return EXIT_PARAMETER


def guarded(fn):
    """Map library errors to the documented exit codes."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NashreduceError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(_exit_code(err))

    return wrapper


class RationalType(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if not isinstance(value, str):
            return value
        try:
            return rational(value)
        except (ValueError, TypeError, ZeroDivisionError):
            self.fail(f"{value!r} is not a rational like '3/4'", param, ctx)


RAT = RationalType()


def _fmt(value, approx: bool) -> str:
    text = rational_str(value)
    return f"{text} ({float(value):.6g})" if approx else text


def _fmt_vector(vec, approx: bool) -> str:
    return "(" + ",".join(_fmt(v, approx) for v in vec) + ")"


def _fmt_profile(profile, approx: bool = False) -> str:
    return "(" + ",".join(_fmt_vector(v, approx) for v in profile) + ")"


def _where(game, v) -> str:
    """Where violation ``v`` of ``game`` sits, as a suffix of its line: a
    polymatrix player's role and scope, or a structured bimatrix game's
    block and strategy in block for the played and the best strategy."""
    if isinstance(game, PolymatrixGame):
        info = game.players[v.player]
        return f" (role {info.role.value}" + (f", scope {info.scope})" if info.scope else ")")
    if isinstance(game, BimatrixGame) and game.encoding == "structured":
        (i, j), (bi, bj) = game.block_of(v.strategy), game.block_of(v.best_strategy)
        return f" (block {i} strategy {j}; best: block {bi} strategy {bj})"
    return ""


def _echo_violations(game, violations, approx: bool, limit: int = 5) -> None:
    for v in violations[:limit]:
        click.echo(
            f"  player {v.player}: plays strategy {v.strategy} for "
            f"{_fmt(v.payoff, approx)} while strategy {v.best_strategy} "
            f"pays {_fmt(v.best_payoff, approx)}{_where(game, v)}"
        )
    if len(violations) > limit:
        click.echo(f"  ... and {len(violations) - limit} more")


@click.group()
@click.version_option(package_name="nashreduce")
def main():
    """Reduce k-player games to 2-player games, exactly."""


# ---------------------------------------------------------------------------
# reduce


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--eps-k", type=RAT, required=True, help="Tolerance to preserve in the source game.")
@click.option(
    "--construction",
    type=click.Choice(["unary", "log"]),
    default="unary",
    show_default=True,
    help="Multiplication gadget construction.",
)
@click.option(
    "--stage",
    type=click.Choice(["linearize", "full"]),
    default="full",
    show_default=True,
    help="linearize: stop at the polymatrix game; full: continue to bimatrix.",
)
@click.option("--out", "prefix", required=True, help="Output path prefix.")
@guarded
def reduce(input_file, eps_k, construction, stage, prefix):
    """Reduce a normal-form game file.

    Writes PREFIX.game.json, PREFIX.mapping.json, and PREFIX.ledger.txt;
    the full stage also writes PREFIX.normalized.json with all payoffs
    mapped into [0, 1].
    """
    game = read_game(input_file)
    if not isinstance(game, NormalFormGame):
        raise ParameterError("reduce expects a normal-form game file")
    lines = [f"stage = {stage}", f"source players = {game.k}"]
    if stage == "linearize":
        out_game, mapping, params = linearize(game, eps_k, construction)
        lines += params.ledger_lines()
        lines.append(f"polymatrix players = {out_game.m}")
    else:
        out_game, mapping, params = reduce_full(game, eps_k, construction)
        lines += params.ledger_lines()
        lines.append(f"bimatrix size = {out_game.n} x {out_game.n}")
        write_game(f"{prefix}.normalized.json", normalize_bimatrix(out_game))
    write_game(f"{prefix}.game.json", out_game)
    write_mapping(f"{prefix}.mapping.json", mapping, params)
    ledger = "\n".join(lines) + "\n"
    with open(f"{prefix}.ledger.txt", "w", encoding="utf-8") as fh:
        fh.write(ledger)
    click.echo(ledger, nl=False)
    click.echo(f"wrote {prefix}.game.json, {prefix}.mapping.json, {prefix}.ledger.txt")


# ---------------------------------------------------------------------------
# recover


@main.command()
@click.argument("game_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("mapping_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("profile_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--eps", type=RAT, default=None, help="Override the ledger tolerance.")
@click.option("--out", "out_path", default=None, help="Write the recovered profile here.")
@click.option("--approx", is_flag=True, help="Also show values as floats.")
@guarded
def recover(game_file, mapping_file, profile_file, eps, out_path, approx):
    """Map a reduced-game profile back to the source game.

    The profile is first verified against the reduced game at the
    mapping ledger's tolerance (or --eps); a failed verification still
    prints the recovered profile but exits 1.
    """
    game = read_game(game_file)
    mapping, params = read_mapping(mapping_file)
    profile = read_profile(profile_file)
    if mapping.stage == "linearize":
        if not isinstance(game, PolymatrixGame):
            raise ParameterError("a linearize mapping pairs with a polymatrix game")
        check_eps = eps if eps is not None else params.eps_m
        result = game.verify_wsne(profile, check_eps)
        recovered = recover_from_polymatrix(game, profile, mapping)
    else:
        if not isinstance(game, BimatrixGame):
            raise ParameterError(f"a {mapping.stage} mapping pairs with a bimatrix game")
        if len(profile) != 2:
            raise ParameterError("a bimatrix profile file must hold exactly two vectors")
        x, y = profile
        check_eps = eps if eps is not None else params.eps_2 / (game.divisor if game.normalized else 1)
        result = game.verify_wsne(x, y, check_eps)
        if mapping.stage == "bimatrixify":
            recovered = recover_from_bimatrix(game, (x, y), mapping)
        else:
            recovered = recover_full(game, (x, y), mapping)
    if out_path:
        write_profile(out_path, recovered)
        click.echo(f"wrote {out_path}")
    click.echo(f"recovered profile: {_fmt_profile(recovered, approx)}")
    status = "PASS" if result.ok else "FAIL"
    click.echo(f"verification at eps = {rational_str(check_eps)}: {status}")
    if not result.ok:
        _echo_violations(game, result.violations, approx)
        sys.exit(EXIT_NO_RESULT)


# ---------------------------------------------------------------------------
# verify


@main.command()
@click.argument("game_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("profile_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--eps", type=RAT, default=rational(0), help="Tolerance (default 0: exact Nash).")
@click.option("--approx", is_flag=True, help="Also show values as floats.")
@guarded
def verify(game_file, profile_file, eps, approx):
    """Check that a profile is an eps-well-supported equilibrium."""
    game = read_game(game_file)
    profile = read_profile(profile_file)
    if isinstance(game, BimatrixGame):
        if len(profile) != 2:
            raise ParameterError("a bimatrix profile file must hold exactly two vectors")
        profile = (profile[0], profile[1])
        result = game.verify_wsne(profile[0], profile[1], eps)
    else:
        result = game.verify_wsne(profile, eps)
    realized = realized_eps(game, profile)
    click.echo(f"realized eps = {_fmt(realized, approx)}")
    if result.ok:
        click.echo(f"PASS at eps = {rational_str(eps)}")
    else:
        click.echo(f"FAIL at eps = {rational_str(eps)}: {len(result.violations)} violation(s)")
        _echo_violations(game, result.violations, approx)
        sys.exit(EXIT_NO_RESULT)


# ---------------------------------------------------------------------------
# solve


@main.command()
@click.argument("game_file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--method",
    type=click.Choice(["support-enum", "grid", "brute-force"]),
    default="support-enum",
    show_default=True,
)
@click.option("--eps", type=RAT, default=None, help="Tolerance (grid method).")
@click.option("--step", type=RAT, default=None, help="Grid step 1/D (grid and brute-force).")
@click.option("--cap", type=int, default=None, help="Override the enumeration cap.")
@click.option("--limit", type=int, default=1, show_default=True, help="Profiles to print (grid method).")
@click.option("--out", "out_path", default=None, help="Write the (first) profile here.")
@click.option("--approx", is_flag=True, help="Also show values as floats.")
@guarded
def solve(game_file, method, eps, step, cap, limit, out_path, approx):
    """Find an equilibrium of a game file.

    support-enum: exact Nash of a bimatrix game.  grid: all profiles on
    a grid that pass the eps verifier.  brute-force: best profile of a
    normal-form game on a grid (exact if one exists on it).
    """
    game = read_game(game_file)
    kwargs = {} if cap is None else {"cap": cap}
    if method == "grid":
        if eps is None or step is None:
            raise ParameterError("the grid method needs --eps and --step")
        found = 0
        first = None
        for profile in grid_enumerate_wsne(game, eps, step, **kwargs):
            found += 1
            if found <= limit:
                click.echo(_fmt_profile(profile, approx))
            if first is None:
                first = profile
        if first is None:
            click.echo(f"no profile on the {rational_str(step)} grid passes at eps = {rational_str(eps)}")
            sys.exit(EXIT_NO_RESULT)
        click.echo(f"{found} profile(s) pass at eps = {rational_str(eps)}")
    else:
        if method == "support-enum":
            if not isinstance(game, BimatrixGame):
                raise ParameterError("support enumeration needs a bimatrix game")
            result, suffix = support_enumeration_bimatrix(game, **kwargs), ""
        else:
            if not isinstance(game, NormalFormGame):
                raise ParameterError("brute-force needs a normal-form game")
            if step is not None:
                kwargs["grid_denominator"] = unit_denominator(step, "--step")
            result = brute_force_normal_nash(game, **kwargs)
            suffix = f", method = {result.method}"
        first = result.profile
        click.echo(_fmt_profile(first, approx))
        click.echo(f"certificate = {result.certificate}, eps = {rational_str(result.eps)}{suffix}")
    if out_path:
        write_profile(out_path, list(first))
        click.echo(f"wrote {out_path}")


# ---------------------------------------------------------------------------
# gadget


@main.group()
def gadget():
    """Inspect, build, and test the gadget library."""


@gadget.command("list")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def gadget_list(as_json):
    """Catalog of gadget kinds, parameters, and guarantees."""
    if as_json:
        data = {
            info.kind: {
                "arity": info.arity,
                "takes_zeta": info.takes_zeta,
                "aux_players": info.aux_players,
                "error_band": info.error_band,
                "summary": info.summary,
            }
            for info in GADGET_INFO.values()
        }
        click.echo(dumps_canonical(data), nl=False)
        return
    header = f"{'kind':<12} {'arity':<6} {'zeta':<5} {'error band':<14} summary"
    click.echo(header)
    click.echo("-" * len(header))
    for info in GADGET_INFO.values():
        arity = "m" if info.arity is None else str(info.arity)
        zeta = "yes" if info.takes_zeta else "no"
        click.echo(f"{info.kind:<12} {arity:<6} {zeta:<5} {info.error_band:<14} {info.summary}")


@gadget.command("build-mult")
@click.option("--construction", type=click.Choice(["unary", "log"]), required=True)
@click.option("--eps", type=RAT, required=True, help="Accuracy of the multiplier.")
@click.option("--out", "out_path", required=True, help="Game file to write.")
@guarded
def gadget_build_mult(construction, eps, out_path):
    """Build a two-input multiplication gadget as a polymatrix game.

    The game's first two players are the clamped factor inputs; the
    last-added output player carries the product.
    """
    circuit = GadgetCircuit()
    in1 = circuit.add_input(label="factor[0]")
    in2 = circuit.add_input(label="factor[1]")
    out_tap = build_multiplier(circuit, in1, in2, eps, construction)
    game = circuit.combine()
    write_game(out_path, game)
    click.echo(
        f"wrote {out_path}: {game.m} players "
        f"(inputs 0 and 1, output {out_tap.player}), construction = {construction}, "
        f"eps = {rational_str(eps)}"
    )


@gadget.command("test")
@click.argument("name")
@click.option("--eps", type=RAT, default=rational(1, 20), help="Tolerance (default 1/20).")
@click.option(
    "--grid",
    type=RAT,
    default=rational(1, 100),
    help="Internal profile grid step (default 1/100).",
)
@click.option(
    "--input-grid",
    type=RAT,
    default=rational(1, 20),
    help="Input value grid step (default 1/20).",
)
@guarded
def gadget_test(name, eps, grid, input_grid):
    """Run the guarantee-soundness sweep for one gadget kind (or 'all').

    Every profile the eps verifier accepts (inputs clamped on the input
    grid, everyone else on the profile grid) must satisfy the gadget's
    guarantee band.  Prints one pass/fail row per guarantee.
    """
    kinds = GADGET_KINDS if name == "all" else (name,)
    # sweep first, so that a bad argument exits before anything is printed
    reports = [
        sweep_gadget(kind, eps=eps, input_step=input_grid, internal_step=grid)
        for kind in kinds
    ]
    header = f"{'kind':<12} {'cases':>7} {'failures':>9} {'empty':>6} result"
    click.echo(header)
    click.echo("-" * len(header))
    failed = []
    for kind, report in zip(kinds, reports):
        status = "PASS" if report.ok else "FAIL"
        click.echo(
            f"{kind:<12} {report.cases:>7} {len(report.failures):>9} "
            f"{report.empty:>6} {status}"
        )
        failed.extend(report.failures)
    if failed:
        click.echo(f"{len(failed)} failing case(s); first few:")
        for case in failed[:5]:
            inputs = _fmt_vector(case.inputs, approx=False)
            zeta = "" if case.zeta is None else f", zeta = {rational_str(case.zeta)}"
            click.echo(f"  {case.kind} inputs {inputs}{zeta}")
        sys.exit(EXIT_NO_RESULT)


if __name__ == "__main__":
    main()
