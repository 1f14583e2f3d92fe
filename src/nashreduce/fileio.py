"""Game, profile, and mapping files.

Everything is JSON with one canonical rendering -- sorted keys, no
whitespace, a trailing newline, rationals as ``"numerator/denominator"``
strings -- so equal objects serialize to identical bytes and every
round trip is exact.  No floats ever appear on either side.

A rational in a file must match ``-?[0-9]+(/[0-9]+)?`` exactly, with a
nonzero denominator: no spaces, ``+`` signs, underscores or decimals.  This
is :func:`~nashreduce._rational.rational`'s string grammar.  It must also
be the canonical form :func:`~nashreduce._rational.rational_str` writes:
lowest terms, no ``/1``, no ``-0`` and no leading zeros, so ``"2/2"`` is
unreadable input.  One read parses and checks each distinct string once: a
per-read dict (``_Rationals``) maps every string it has parsed to its
``Fraction``, and each later cell with the same string gets that object.
A reduced game holds tens of thousands of cells but only dozens of
distinct strings.  A failed parse raises and is never stored, so every
malformed cell fails.

Game and mapping files are at version 2, profiles at version 1, and a
reader accepts only its writer's current tag.  A polymatrix or structured
bimatrix file stores its edges as a ``matrices`` table, which holds each
distinct matrix once in the order of first use over the sorted edges, and
``[i, j, k]`` edge triples whose ``k`` indexes the table.  A polymatrix
game holds one object per distinct matrix value, so the writer numbers the
game's matrix objects and renders each once, and the bytes depend only on
the values; a read parses each table entry once and gives every edge that
uses it one shared matrix.  A mapping holds no ``g`` or ``h``, which its
stage and source counts fix.

A reader accepts a file only if its writer writes that file for the value
read.  It builds the value from the file's inputs, renders it with the
writer's own code and compares that with the parsed JSON, type-strictly
(``2.0`` is not ``2``, ``true`` is not ``1``) but ignoring key order and
whitespace.  The first JSON path that differs -- an unknown field, a
missing field or a differing value -- is a :class:`ParseError` naming it.
A mapping's inputs are its stage, counts, block sizes, divisor and its
ledger's ``eps_m`` (bimatrixify) or ``eps_k`` and ``construction``
(otherwise); the rest of the ledger, and ``alpha``, are derived.  The
matrix bodies are not rendered again, since what they hold is the value
read: every ``payoffs``, ``a``, ``b`` or table entry that parses and
builds is what the writer writes for it.  Edges are checked on the game
built: its triples, numbered by matrix object, must equal the file's, as
ints, and a table entry past the last one they use is an unknown field.
So edges out of order or repeated, an all-zero edge, and a table entry
that repeats another, is out of first-use order or is used by no edge are
each a :class:`ParseError` naming a JSON path.  A structured bimatrix body
is read as the polymatrix game of its block sizes and edges.  A field that
breaks a game builder's or a :class:`~nashreduce.reductions.GameMapping`
rule is a :class:`ParseError` too.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from ._rational import rational, rational_str
from .errors import DegenerateGame, DimensionMismatch, ParameterError, ParseError
from .model import (
    BimatrixGame,
    NormalFormGame,
    PlayerInfo,
    PolymatrixGame,
    Role,
)
from .reductions import LEDGER, GameMapping, ReductionParams, eps_m_for_counts

Rat = Any

GAME_FORMAT = "nashreduce-game/2"
PROFILE_FORMAT = "nashreduce-profile/1"
MAPPING_FORMAT = "nashreduce-mapping/2"

__all__ = [
    "GAME_FORMAT",
    "PROFILE_FORMAT",
    "MAPPING_FORMAT",
    "dumps_canonical",
    "game_to_dict",
    "game_from_dict",
    "profile_to_dict",
    "profile_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
    "write_game",
    "read_game",
    "write_profile",
    "read_profile",
    "write_mapping",
    "read_mapping",
]


def dumps_canonical(data: Any) -> str:
    """The one true rendering: sorted keys, tight separators, newline-terminated."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# scalar plumbing


def _not_a_string(value: Any) -> ParseError:
    return ParseError(f"rationals must be strings like '3/4', got {value!r}")


class _Rationals(dict):
    """The rationals of one file: each distinct string, parsed once, maps to
    its ``Fraction``.  A lookup of a new key parses it in the strict grammar
    and checks that it is canonical; a key that fails raises
    :class:`ParseError` and is not stored."""

    def __missing__(self, text: Any) -> Fraction:
        if not isinstance(text, str):
            raise _not_a_string(text)
        try:
            value = rational(text)
        except (ValueError, ZeroDivisionError):  # off the grammar, a zero denominator, too many digits
            raise ParseError(f"invalid rational {text!r}") from None
        canonical = rational_str(value)
        if text != canonical:
            raise ParseError(f"non-canonical rational {text!r}; its canonical form is {canonical!r}")
        self[text] = value
        return value


def _rat_in(value: Any, rats: _Rationals) -> Rat:
    try:
        return rats[value]
    except TypeError:  # unhashable, so not a string
        raise _not_a_string(value) from None


def _opt_rat_out(value: Rat | None) -> str | None:
    return None if value is None else rational_str(value)


def _opt_rat_in(value: Any, rats: _Rationals) -> Rat | None:
    return None if value is None else _rat_in(value, rats)


def _int_in(value: Any, what: str) -> int:
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _ints_in(data: Any, what: str) -> list[int]:
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a list of integers")
    if {*map(type, data)} <= {int}:
        return list(data)
    return [_int_in(x, what) for x in data]  # names the first entry that is not an int


def _vector_in(data: Any, rats: _Rationals) -> tuple:
    if not isinstance(data, list):
        raise ParseError("expected a list of rationals")
    try:
        return tuple(map(rats.__getitem__, data))
    except TypeError:  # an unhashable entry; report the first bad entry in order
        return tuple(_rat_in(x, rats) for x in data)


def _matrix_out(mat) -> list[list[str]]:
    return [[rational_str(x) for x in row] for row in mat]


def _matrix_in(data: Any, rats: _Rationals) -> list[tuple]:
    if not isinstance(data, list) or not data:
        raise ParseError("expected a non-empty matrix")
    return [_vector_in(row, rats) for row in data]


def _numbered(mats: list) -> tuple[list, list]:
    """The distinct objects of ``mats`` in first-use order, and the index of
    each entry's object among those.  A game holds one object per distinct
    matrix, so this numbers the values without rendering them."""
    ids = [*map(id, mats)]
    distinct = dict(zip(ids, mats))  # the list holds every keyed matrix
    number = dict(zip(distinct, itertools.count()))
    return [*distinct.values()], [*map(number.__getitem__, ids)]


def _edge_table(edges) -> tuple[list, list, list]:
    """The keys of ``edges`` sorted, the distinct matrix objects in
    first-use order over them, and the index of each sorted edge's object
    among those (:func:`_numbered`)."""
    keys = sorted(edges)  # the keys alone sort about three times faster than the items
    return keys, *_numbered([*map(edges.__getitem__, keys)])


def _triples(keys: list, ks: list) -> list[list[int]]:
    return [[i, j, k] for (i, j), k in zip(keys, ks)]


def _edges_out(edges) -> tuple[list, list]:
    """The ``matrices`` table and ``[i, j, k]`` triples of a game's edges:
    each distinct matrix rendered once, in lists of its own."""
    keys, table, ks = _edge_table(edges)
    return [*map(_matrix_out, table)], _triples(keys, ks)


def _edges_in(data: dict, rats: _Rationals, build: Callable[[dict], PolymatrixGame]) -> PolymatrixGame:
    """``build(edges)`` for the edges of a game file, ``{(i, j): rows}``,
    from its ``matrices`` table and ``[i, j, k]`` triples.  Every table
    entry is parsed, once, before the game is built, and edges that share an
    entry share its parsed matrix.  The triples must then be the ones the
    writer writes for the game built, and the table must hold no entry past
    the last one they use; with the game's one object per distinct matrix,
    that fixes the table's order and leaves no repeated, unused or all-zero
    entry.  The triples are compared without being built: the game keeps
    the file's edge order, and its matrices are numbered in that order, so
    when it drops no edge, its keys are sorted and the file's ``k`` are the
    game's numbers, the file holds the writer's triples."""
    table, triples = data.pop("matrices"), data.pop("edges")
    if not isinstance(table, list):
        raise ParseError("matrices must be a list of matrices")
    if not isinstance(triples, list):
        raise ParseError("edges must be a list of [i, j, k] triples")
    parsed = [_matrix_in(mat, rats) for mat in table]
    if not (
        {*map(type, triples)} <= {list}
        and {*map(len, triples)} <= {3}
        and {*map(type, itertools.chain.from_iterable(triples))} <= {int}
    ):
        for pos, entry in enumerate(triples):  # name the first fault
            if type(entry) is not list or len(entry) != 3:
                raise ParseError(f"edges[{pos}] must be an [i, j, k] triple, got {entry!r}")
            for field, value in enumerate(entry):
                if type(value) is not int:
                    raise ParseError(f"edges[{pos}][{field}] must be an integer, got {value!r}")
    try:
        edges = {(i, j): parsed[k] for i, j, k in triples}
    except IndexError:
        pos, k = next((pos, k) for pos, (_, _, k) in enumerate(triples) if not 0 <= k < len(parsed))
        raise ParseError(f"edges[{pos}][2] is {k}, but matrices has {len(parsed)} entries") from None
    game = build(edges)
    keys = [*game.edges]
    used, ks = _numbered([*game.edges.values()])
    # a repeated or all-zero edge leaves the game fewer edges than the file;
    # sorted keys number as the writer numbers; the scan above left only
    # ints to compare
    if len(keys) != len(triples) or sorted(keys) != keys or [*map(operator.itemgetter(2), triples)] != ks:
        keys, _, ks = _edge_table(game.edges)
        _check_written(triples, _triples(keys, ks), "game", "edges")
    if len(table) > len(used):
        raise ParseError(f"unknown game field 'matrices[{len(used)}]'")
    return game


# ---------------------------------------------------------------------------
# games


def _game_fields(game) -> dict:
    """Every field of a game file but its matrix bodies: the header (format
    tag, class, player and strategy counts, payoff range, and a structured
    game's divisor, null unless normalized), roles and encoding data."""
    if isinstance(game, NormalFormGame):
        cls, players, counts = "normal_form", game.k, game.strategy_counts
    elif isinstance(game, PolymatrixGame):
        cls, players, counts = "polymatrix", game.m, game.strategy_counts
    elif isinstance(game, BimatrixGame):
        cls, players, counts = "bimatrix", 2, (game.n, game.n)
    else:
        raise TypeError(f"not a serializable game: {type(game).__name__}")
    lo, hi = game.payoff_range()
    data = {
        "format": GAME_FORMAT,
        "class": cls,
        "players": players,
        "strategy_counts": list(counts),
        "payoff_range": [rational_str(lo), rational_str(hi)],
    }
    if cls == "polymatrix":
        # one Role.value per role, not per player: it is a Python-level property
        names = {role: role.value for role in Role}
        data["roles"] = [[names[info.role], info.scope] for info in game.players]
    elif cls == "bimatrix":
        data["encoding"] = game.encoding
        if game.encoding == "structured":
            data["divisor"] = rational_str(game.divisor) if game.normalized else None
            data["block_sizes"] = list(game.block_sizes)
            data["alpha"] = rational_str(game.alpha)
            data["normalized"] = game.normalized
    return data


def game_to_dict(game) -> dict:
    data = _game_fields(game)
    if isinstance(game, NormalFormGame):
        data["payoffs"] = [_matrix_out(mat) for mat in game.payoffs]
    elif isinstance(game, BimatrixGame) and game.encoding == "dense":
        data["a"] = _matrix_out(game.a)
        data["b"] = _matrix_out(game.b)
    else:
        data["matrices"], data["edges"] = _edges_out(game.edges)
    return data


def _normal_form_from(data: dict, rats: _Rationals) -> NormalFormGame:
    counts = _ints_in(data["strategy_counts"], "strategy count")
    payoffs = data.pop("payoffs")
    if not isinstance(payoffs, list):
        raise ParseError("payoffs must be a list of matrices")
    return NormalFormGame(counts, [_matrix_in(mat, rats) for mat in payoffs])


def _polymatrix_from(data: dict, rats: _Rationals) -> PolymatrixGame:
    counts = _ints_in(data["strategy_counts"], "strategy count")
    roles = data["roles"]
    if not isinstance(roles, list) or len(roles) != len(counts):
        raise ParseError("roles must list [role, scope] once per player")
    # a dict lookup per player, where Role(name) is a slow enum call
    by_name = {role.value: role for role in Role}
    # one frozen PlayerInfo per distinct (role, scope), shared by its players
    infos: dict[tuple[Role, str], PlayerInfo] = {}
    players = []
    for entry in roles:
        if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[1], str):
            raise ParseError(f"malformed role entry {entry!r}")
        try:
            role = by_name[entry[0]]
        except (KeyError, TypeError):  # TypeError: an unhashable JSON list or object
            raise ParseError(f"unknown role {entry[0]!r}") from None
        key = (role, entry[1])
        info = infos.get(key)
        if info is None:
            info = infos[key] = PlayerInfo(role, entry[1])
        players.append(info)
    return _edges_in(data, rats, lambda edges: PolymatrixGame(counts, edges, players))


def _bimatrix_from(data: dict, rats: _Rationals) -> BimatrixGame:
    encoding = data["encoding"]
    if encoding == "dense":
        return BimatrixGame.dense(_matrix_in(data.pop("a"), rats), _matrix_in(data.pop("b"), rats))
    if encoding == "structured":
        blocks = _ints_in(data["block_sizes"], "block size")
        polymatrix = _edges_in(data, rats, lambda edges: PolymatrixGame(blocks, edges))
        return BimatrixGame.structured(polymatrix, _rat_in(data["alpha"], rats), data["normalized"])
    raise ParseError(f"unknown bimatrix encoding {encoding!r}")


_GAME_BUILDERS = {
    "normal_form": _normal_form_from,
    "polymatrix": _polymatrix_from,
    "bimatrix": _bimatrix_from,
}


def game_from_dict(data: Any):
    if not isinstance(data, dict):
        raise ParseError("a game file must hold a JSON object")
    _check_format(data, GAME_FORMAT)
    cls = data.get("class")
    builder = _GAME_BUILDERS.get(cls) if isinstance(cls, str) else None
    if builder is None:
        raise ParseError(f"unknown game class {cls!r}")
    fields = dict(data)  # each builder takes out the matrix bodies it reads and checks
    try:
        game = builder(fields, _Rationals())
    except KeyError as err:
        raise ParseError(f"game file is missing field {err.args[0]!r}") from None
    except DimensionMismatch as err:  # the builders size the body by the header's counts
        raise ParseError(f"game body contradicts its header: {err}") from None
    except ParameterError as err:  # the body breaks a builder's rule
        raise ParseError(str(err)) from None
    _check_written(fields, _game_fields(game), "game")
    return game


# ---------------------------------------------------------------------------
# profiles


def profile_to_dict(profile) -> dict:
    return {
        "format": PROFILE_FORMAT,
        "strategies": [[rational_str(x) for x in strategy] for strategy in profile],
    }


def profile_from_dict(data: Any) -> list[tuple]:
    if not isinstance(data, dict):
        raise ParseError("a profile file must hold a JSON object")
    _check_format(data, PROFILE_FORMAT)
    strategies, rats = data.get("strategies"), _Rationals()
    profile = [_vector_in(strategy, rats) for strategy in strategies] if isinstance(strategies, list) else []
    _check_written(data, profile_to_dict(profile), "profile")
    return profile


# ---------------------------------------------------------------------------
# mappings


def _ledger_out(value: Any) -> Any:
    """A ledger value as a file holds it: null, a string, an int or a rational string."""
    return value if value is None or isinstance(value, (str, int)) else rational_str(value)


def mapping_to_dict(mapping: GameMapping, params: ReductionParams) -> dict:
    return {
        "format": MAPPING_FORMAT,
        "stage": mapping.stage,
        "source_counts": list(mapping.source_counts),
        "block_sizes": None if mapping.block_sizes is None else list(mapping.block_sizes),
        "alpha": _opt_rat_out(mapping.alpha),
        "divisor": _opt_rat_out(mapping.divisor),
        "params": {name: _ledger_out(getattr(params, name)) for name in LEDGER},
    }


def _params_from(raw: Any, mapping: GameMapping, rats: _Rationals) -> ReductionParams:
    """The ledger of a mapping file, from its inputs: ``eps_m`` for a
    bimatrixify mapping, else ``eps_k`` and ``construction``, with the
    mapping's block sizes and divisor."""
    if not isinstance(raw, dict):
        raise ParseError("malformed mapping file")
    inputs = ("eps_m",) if mapping.stage == "bimatrixify" else ("eps_k", "construction")
    for name in inputs:
        if name not in raw:
            raise ParseError(f"mapping file is missing field 'params.{name}'")
    if mapping.stage == "bimatrixify":
        eps_m, eps_k, construction = _rat_in(raw["eps_m"], rats), None, None
    else:
        eps_k, construction = raw["eps_k"], raw["construction"]
        if eps_k is None or not isinstance(construction, str):
            raise ParseError(f"a {mapping.stage} mapping needs eps_k and a construction")
        eps_k = _rat_in(eps_k, rats)
        eps_m = eps_m_for_counts(mapping.source_counts, eps_k, construction)
    return ReductionParams(eps_m, eps_k, construction, mapping.block_sizes, mapping.divisor)


def mapping_from_dict(data: Any) -> tuple[GameMapping, ReductionParams]:
    """The mapping and ledger of a mapping file.  The mapping is validated
    before its ledger is derived, which divides by its counts, and then
    takes the ledger's ``alpha``, so the file's must be the derived one."""
    if not isinstance(data, dict):
        raise ParseError("a mapping file must hold a JSON object")
    _check_format(data, MAPPING_FORMAT)
    try:
        raw_blocks = data["block_sizes"]
        rats = _Rationals()
        mapping = GameMapping(
            stage=data["stage"],
            source_counts=tuple(_ints_in(data["source_counts"], "source count")),
            block_sizes=None if raw_blocks is None else tuple(_ints_in(raw_blocks, "block size")),
            alpha=_opt_rat_in(data["alpha"], rats),
            divisor=_opt_rat_in(data["divisor"], rats),
        )
        params = _params_from(data["params"], mapping, rats)
        mapping = replace(mapping, alpha=params.alpha)
    except KeyError as err:
        raise ParseError(f"mapping file is missing field {err.args[0]!r}") from None
    except (DegenerateGame, DimensionMismatch, ParameterError) as err:  # the fields break a reduction's rule
        raise ParseError(str(err)) from None
    _check_written(data, mapping_to_dict(mapping, params), "mapping")
    return mapping, params


# ---------------------------------------------------------------------------
# file helpers


def _check_format(data: dict, expected: str) -> None:
    if data.get("format") != expected:
        raise ParseError(f"expected format {expected!r}, got {data.get('format')!r}")


def _check_written(given: Any, written: Any, what: str, path: str = "") -> None:
    """Raise :class:`ParseError` at the first JSON path where ``given``, as
    read from a ``what`` file, differs from ``written``, what the writer
    writes for the value read: an unknown field, a missing field or a
    differing value.  Values compare with their JSON types, so ``2.0`` is
    not ``2`` and ``true`` is not ``1``."""
    if type(given) is type(written):
        if type(written) is dict:
            at = f"{path}." if path else ""
            for key in given:
                if key not in written:
                    raise ParseError(f"unknown {what} field {at + str(key)!r}")
            for key, value in written.items():
                if key not in given:
                    raise ParseError(f"{what} file is missing field {at + key!r}")
                _check_written(given[key], value, what, at + key)
            return
        if given == written and (type(written) is not list or _same_types(given, written)):
            return
        if type(written) is list:
            for i, value in enumerate(written):
                if i == len(given):
                    raise ParseError(f"{what} file is missing field '{path}[{i}]'")
                _check_written(given[i], value, what, f"{path}[{i}]")
            if len(given) > len(written):
                raise ParseError(f"unknown {what} field '{path}[{len(written)}]'")
            return
    raise ParseError(
        f"{what} field {path} is {json.dumps(given, default=repr)}, "
        f"but rewriting what was read gives {json.dumps(written)}"
    )


def _same_types(given: list, written: list) -> bool:
    """Whether the entries of two equal lists, or of two equal lists of
    rows, have the same types entry by entry; False when an entry is an
    object or nested deeper, which leaves the check to the caller."""
    if all(map(operator.is_, given, written)):  # the very objects read, like a list of counts
        return True
    if written and {*map(type, written)} == {list}:  # rows, like roles or a profile's strategies
        given, written = [*itertools.chain(*given)], [*itertools.chain(*written)]
    kinds = {*map(type, written)}
    if kinds <= {str, type(None)}:  # only a string equals a string, and only null equals null
        return True
    return not kinds & {list, dict} and [*map(type, given)] == [*map(type, written)]


def _write(path, data: dict) -> None:
    Path(path).write_text(dumps_canonical(data), encoding="utf-8")


def _read(path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    try:
        return json.loads(text)
    except ValueError as err:  # a JSONDecodeError, or an int literal past Python's digit limit
        raise ParseError(f"{path} is not valid JSON: {err}") from None


def write_game(path, game) -> None:
    _write(path, game_to_dict(game))


def read_game(path):
    return game_from_dict(_read(path))


def write_profile(path, profile) -> None:
    _write(path, profile_to_dict(profile))


def read_profile(path) -> list[tuple]:
    return profile_from_dict(_read(path))


def write_mapping(path, mapping: GameMapping, params: ReductionParams) -> None:
    _write(path, mapping_to_dict(mapping, params))


def read_mapping(path) -> tuple[GameMapping, ReductionParams]:
    return mapping_from_dict(_read(path))
