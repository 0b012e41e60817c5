"""Command-line interface: one subcommand per library operation.

File conventions: matrices and configuration travel as JSON (human-
diffable), time series as CSV whose numbers are exactly ``'%.17g' % x``
(17 significant digits), written in numpy by :func:`_csv_text`.  Commands
raise on failure; :func:`main` reads and cross-checks their ``--input``
and ``--p0`` files and maps errors to exit codes: 0 success, 2 validation
error naming the violated invariant, 1 internal error.  All outputs are
byte-identical across runs for identical inputs.  JSON outputs are the
text of ``json.dumps(obj, indent=2, sort_keys=True)``, written with few
encoder calls; a decomposition's ``S`` and ``A`` format one triangle each
and mirror the other.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import instances
from .core import (
    _json_field,
    as_dense,
    generator_from_json,
    generator_to_json,
    probability_from_json,
    probability_vector,
)
from .continuum import refinement_study
from .decompose import compose, cycle_decompose, decompose, dual
from .entropy import _KINDS, RELATIVE_GINI, RELATIVE_SHANNON, SHANNON
from .errors import MarkovFlowError
from .evolve import _check_time_grid, default_time_grid, entropy_trace, evolve
from .spectral import spectral_bound, verify_bound
from .stationary import stationary_solve, stationary_tree

TRACE_TOKENS = {
    "shannon": SHANNON,
    "kl": RELATIVE_SHANNON,
    "gini": RELATIVE_GINI,
}


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_text(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None):
    _emit_text(_json_text(obj) + "\n", output)


_flat_json = json.JSONEncoder(sort_keys=True).encode
_NUMBER_TYPES = {int, float}
_SIGN_BIT = np.uint64(1 << 63)


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, nested ``indent`` deep,
    with an ndarray ``obj`` written as its ``tolist()``.

    ``indent`` forces the stdlib's pure-Python encoder, so a non-empty list
    is encoded as a column instead (:func:`_column_texts`): a list of
    numbers, or of non-empty lists of numbers, is one C-encoder call whose
    text is split back into items on ``", "`` or on the indented
    ``"], ["``.  That is byte-safe because no number text contains
    ``", "``, ``[`` or ``]``.  An ndarray, which must be a square float
    matrix, goes to :func:`_square_text`.  Other lists and string-keyed
    dicts recurse; anything else (empty containers, other keys) goes to
    the stdlib with its newlines indented, since every newline in indented
    JSON is structural.
    """
    inner = indent + "  "
    if isinstance(obj, np.ndarray):
        return _square_text(obj, indent)
    if isinstance(obj, (str, int, float)) or obj is None:
        return _flat_json(obj)
    if isinstance(obj, (list, tuple)) and obj:
        items = (",\n" + inner).join(_column_texts(obj, inner))
        return f"[\n{inner}{items}\n{indent}]"
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = (",\n" + inner).join(f"{_flat_json(k)}: {_json_text(v, inner)}"
                                      for k, v in sorted(obj.items()))
        return f"{{\n{inner}{items}\n{indent}}}"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _column_texts(column: list, indent: str) -> list[str]:
    """``[_json_text(v, indent) for v in column]``; a column of number
    lists has its ``", "`` indented before it is split into lists."""
    types = set(map(type, column))
    if types <= _NUMBER_TYPES:
        return _number_texts(column)
    if (types <= {list, tuple} and all(column)
            and set(map(type, chain.from_iterable(column))) <= _NUMBER_TYPES):
        inner = indent + "  "
        body = _flat_json(column)[2:-2].replace(", ", ",\n" + inner)
        return [f"[\n{inner}{items}\n{indent}]"
                for items in body.split("],\n" + inner + "[")]
    return [_json_text(v, indent) for v in column]


def _number_texts(values: list) -> list[str]:
    """The JSON text of each number in ``values``, from one C-encoder call."""
    return _flat_json(values)[1:-1].split(", ")


def _square_text(m: np.ndarray, indent: str) -> str:
    """``_json_text(m.tolist(), indent)`` for a non-empty square float
    matrix, formatting each distinct number once.

    The upper triangle, diagonal included, is one encoder call.  Each
    lower entry reuses its mirror's text: unchanged when their bits are
    equal, with the sign flipped when they differ in the sign bit alone
    (unless NaN, whose text has no sign).  The entries left, which a
    symmetric ``S`` or antisymmetric ``A`` does not have, are one more
    encoder call.  So ``S`` and ``A`` format about ``n^2 / 2`` floats each,
    and an asymmetric matrix formats each of its ``n^2`` once.
    """
    n = m.shape[0]
    upper, lower = np.triu_indices(n), np.tril_indices(n, -1)
    texts = np.empty((n, n), dtype=object)
    texts[upper] = _number_texts(m[upper].tolist())
    bits = m.view(np.uint64)
    diff = bits[lower] ^ bits.T[lower]
    values, mirrored = m[lower], texts.T[lower]
    flip = (diff == _SIGN_BIT) & ~np.isnan(values)
    mirrored[flip] = [t[1:] if t[0] == "-" else "-" + t for t in mirrored[flip]]
    rest = (diff != 0) & ~flip
    if rest.any():
        mirrored[rest] = _number_texts(values[rest].tolist())
    texts[lower] = mirrored
    inner = indent + "  "
    body = f"\n{inner}],\n{inner}[\n{inner}  ".join(
        map((",\n" + inner + "  ").join, texts.tolist()))
    return f"[\n{inner}[\n{inner}  {body}\n{inner}]\n{indent}]"


_CSV_CHUNK = 2 ** 14  # numbers converted at a time; bounds the byte buffers
# bytes per number: sign, "0." and three zeros, 17 digit/dot slot pairs,
# "e+XXX", separator
_SLOT = 46


def _dekker_split(a):
    """``a = hi + lo`` with 26-bit halves, so their products are exact."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _decimal_tables():
    """Column ``300 + s`` of the first table is ``10^s = hi + lo`` for ``s``
    in [-300, 300], as rows (hi split in two), hi, lo.  Row ``300 + e`` of
    the second holds ``%g``'s prefix ("0.", "0.0", ...) and exponent
    ("e-05", "e+17", ...) bytes for decimal exponent ``e``.  Built from
    Python ints, whose true division rounds correctly."""
    hi, lo, affixes = [], [], []
    for s in range(-300, 301):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
        prefix = b"0." + b"0" * (-s - 1) if -4 <= s < 0 else b""
        exponent = b"e%+03d" % s if not -4 <= s < 17 else b""
        affixes.append(prefix.ljust(5, b"\0") + exponent)
    hi = np.array(hi)
    return (np.array([*_dekker_split(hi), hi, lo]),
            np.array(affixes, "S10").view(np.uint8).reshape(-1, 10))


def _scaled(a: np.ndarray, e: np.ndarray):
    """The integer part and fraction of ``a * 10^(16 - e)``, to about 1e-14:
    Dekker's exact two-product (Numer. Math. 18, 1971) with the power held
    as ``hi + lo``."""
    bh, bl, b, lo = _decimal_tables()[0][:, 316 - e]
    ah, al = _dekker_split(a)
    p = a * b
    head = np.floor(p)
    f = (p - head) + (((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo)
    tail = np.floor(f)
    return head.astype(np.int64) + tail.astype(np.int64), f - tail


def _number_bytes(x: np.ndarray, buf: np.ndarray):
    """Write ``'%.17g' % x[i]`` into row ``i`` of the zeroed byte buffer
    ``buf`` (``x.size`` by ``_SLOT``), in the template's slots; unused slots
    stay 0.

    Each ``|x|`` in (1e-280, 1e280) is scaled by ``10^(16 - e)`` for its
    decimal exponent ``e``, rounded to 17 digits and laid out by the
    ``%g`` rules: fixed notation for ``-4 <= e < 17``, else ``d.ddde+XX``,
    trailing zeros stripped.  Zeros are written as "0" and "-0".  The rest
    go through ``'%.17g' % x``: non-finite values, magnitudes outside that
    range, and numbers whose scaled value is near an edge: its integer part
    not 17 digits long, its fraction within 1e-9 of an integer or a half
    (ties, where 1e-14 cannot decide).
    """
    m = x.size
    a = np.abs(x)
    vector = (a > 1e-280) & (a < 1e280)
    a[~vector] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n, f = _scaled(a, e)
    zero = x == 0
    # the integer part has 17 digits unless log10 missed by one next to a
    # power of ten.  A fixed-notation text without a point needs x within
    # half a unit of its 17th digit of an integer, which the spacing of
    # doubles makes x itself, of fraction 0: each fixed text below has one
    fallback = ~vector | (n < 10 ** 16) | (n >= 10 ** 17) | (
        np.abs(2 * f - np.round(2 * f)) < 2e-9)
    n += f > 0.5
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    # the digits of the two 9-digit halves of n, in uint32; the high half's
    # first is 0.  Trailing zeros are blanked
    w = np.stack([n // 10 ** 9, n % 10 ** 9]).astype(np.uint32)
    digits = np.empty((2, 9, m), np.uint8)
    for i in range(8, -1, -1):
        q = w // 10
        digits[:, i] = w - q * 10
        w = q
    digits = digits.reshape(18, m)[1:]
    kept = digits != 0
    for i in range(15, -1, -1):
        kept[i] |= kept[i + 1]
    buf[:, 6:40:2] = ((digits + ord("0")) * kept).T
    # the digit the point follows; none in a one-digit d.ddde+XX
    point = np.where((e < -4) | (e >= 17), np.where(kept[1], 0, -1), e)
    dot = np.flatnonzero(point >= 0)
    buf[dot, 7 + 2 * point[dot]] = ord(".")
    affixes = _decimal_tables()[1][e + 300]
    buf[:, 0] = np.signbit(x) * ord("-")
    buf[:, 1:6] = affixes[:, :5]
    buf[:, 40:45] = affixes[:, 5:]
    buf[zero, 1:45] = 0
    buf[zero, 6] = ord("0")
    idx = np.flatnonzero(fallback & ~zero)
    if idx.size:
        texts = np.array(["%.17g" % v for v in x[idx].tolist()], "S45")
        buf[idx, :45] = texts.view(np.uint8).reshape(idx.size, 45)


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    """The CSV of ``columns`` under ``header``: each number's text is
    exactly ``'%.17g' % x``.

    The numbers are written in numpy, without a Python float each
    (:func:`_number_bytes`): whole rows of about ``_CSV_CHUNK`` numbers at
    a time go into a byte buffer of fixed slots, whose zero bytes are then
    dropped.
    """
    table = np.column_stack(columns)
    rows, cols = table.shape
    step = max(1, _CSV_CHUNK // cols)
    parts = [",".join(header) + "\n"]
    for start in range(0, rows, step):
        block = table[start:start + step]
        buf = np.zeros((len(block), cols, _SLOT), np.uint8)
        buf[:, :, -1] = ord(",")
        buf[:, -1, -1] = ord("\n")
        _number_bytes(block.ravel(), buf.reshape(-1, _SLOT))
        buf = buf.ravel()
        parts.append(np.compress(buf != 0, buf).tobytes().decode("ascii"))
    return "".join(parts)


def _decomposition_json(d) -> dict:
    """``pi`` as a list; ``S`` and ``A`` as arrays, for :func:`_square_text`."""
    return {"pi": d.pi.p.tolist(), "S": as_dense(d.S), "A": as_dense(d.A)}


def _emit_trajectory_csv(traj, output: str | None):
    header = ["t"] + [f"p_{i + 1}" for i in range(traj.n)]
    columns = [traj.times] + [traj.states[:, i] for i in range(traj.n)]
    for name in sorted(traj.traces):
        header.append(name)
        columns.append(traj.traces[name])
    _emit_text(_csv_text(header, columns), output)


def _emit_bound_csv(report, output: str | None):
    _emit_text(
        _csv_text(
            ["t", "D", "bound_lambda2", "bound_2lambda2", "ratio"],
            [report.times, report.divergence, report.bound, report.bound_sharp,
             report.ratio],
        ),
        output,
    )


def _cmd_stationary(args, gen):
    if args.method == "tree":
        pi = stationary_tree(gen)
    else:
        pi = stationary_solve(gen)
    _emit_json({"pi": pi.p.tolist()}, args.output)


def _cmd_decompose(args, gen):
    _emit_json(_decomposition_json(decompose(gen)), args.output)


def _cmd_compose(args):
    pi = probability_from_json(_read_json(args.pi))
    s = _json_field(_read_json(args.S), "S", "matrix")
    a = _json_field(_read_json(args.A), "A", "matrix")
    _emit_json(generator_to_json(compose(pi, s, a)), args.output)


def _cmd_dual(args, gen):
    _emit_json(generator_to_json(dual(gen)), args.output)


_CYCLE = '    {\n      "nodes": [\n        %s\n      ],\n      "weight": %s\n    }'


def _cmd_cycles(args, gen):
    """Writes the text :func:`_emit_json` would write for
    ``{"cycles": [{"nodes": [...], "weight": w}, ...]}``, rendered straight
    from the cycle tuples."""
    cycles = cycle_decompose(decompose(gen).A).cycles
    labels = [str(i) for i in range(gen.n)]
    weights = _number_texts([w for _, w in cycles])
    items = ",\n".join(
        _CYCLE % (",\n        ".join(map(labels.__getitem__, nodes)), w)
        for (nodes, _), w in zip(cycles, weights))
    body = f"[\n{items}\n  ]" if cycles else "[]"
    _emit_text(f'{{\n  "cycles": {body}\n}}\n', args.output)


def _cmd_entropy(args, gen, p0):
    kind = TRACE_TOKENS[args.kind]
    value = _KINDS[kind.tag][1](p0, stationary_solve(gen), kind.f)
    _emit_text(json.dumps(value) + "\n", args.output)


def _time_grid(gen, args, d, sb=None) -> np.ndarray:
    """The ``--t-max``/``--points`` grid.  Without ``--t-max`` it runs to
    ten relaxation times of ``sb``, the spectral bound of ``gen``'s
    decomposition ``d``; when ``sb`` is None it is computed from ``d`` here,
    on a best-effort basis."""
    rate = None
    if args.t_max is None:
        try:
            rate = (spectral_bound(d) if sb is None else sb).lambda2
        except MarkovFlowError:
            pass
    return default_time_grid(gen, points=args.points, t_max=args.t_max, decay_rate=rate)


def _cmd_evolve(args, gen, p0):
    tokens = [tok.strip() for tok in args.traces.split(",") if tok.strip()]
    unknown = [tok for tok in tokens if tok not in TRACE_TOKENS]
    if unknown:
        raise ValueError(
            f"unknown trace tokens {unknown}; available: {sorted(TRACE_TOKENS)}"
        )
    _check_time_grid(args.points, gen.n, args.t_max)
    d = decompose(gen)
    traj = evolve(gen, p0, _time_grid(gen, args, d))
    traj = entropy_trace(traj, d, [TRACE_TOKENS[tok] for tok in tokens])
    _emit_trajectory_csv(traj, args.output)


def _cmd_bound(args, gen, p0):
    _check_time_grid(args.points, gen.n, args.t_max)
    d = decompose(gen)
    sb = spectral_bound(d)
    traj = evolve(gen, p0, _time_grid(gen, args, d, sb))
    _emit_bound_csv(verify_bound(traj, sb), args.output)


def _cmd_continuum(args):
    conf = _read_json(args.problem)
    if not isinstance(conf, dict):
        raise ValueError(
            f"problem invariant violated: the problem JSON must be an object, "
            f"got {type(conf).__name__}"
        )
    domain = conf.get("domain", [[-3.0, 3.0], [-3.0, 3.0]])
    phi = conf.get("phi", "quadratic")
    if not isinstance(phi, str):
        raise ValueError(
            'problem invariant violated: phi must be a catalog tag or '
            '"custom_samples"'
        )
    if phi == "custom_samples":
        if "phi_samples" not in conf:
            raise ValueError(
                'problem invariant violated: phi "custom_samples" needs a '
                "phi_samples array"
            )
        phi = conf["phi_samples"]

    grids = [args.grid * (2 ** k) for k in range(args.refine)]
    levels = refinement_study(domain, grids, phi, conf.get("D", "identity"),
                              conf.get("gamma", 0.0))
    l1 = [lv["l1_error_gibbs"] for lv in levels]
    mismatch = [lv["mismatch"] for lv in levels]
    report = {
        "domain": domain,
        "phi": conf.get("phi", "quadratic"),
        "gamma": conf.get("gamma", 0.0),
        "grids": grids,
        "levels": levels,
        "l1_ratios": [a / b for a, b in zip(l1, l1[1:]) if b > 0.0],
        "mismatch_ratios": [a / b for a, b in zip(mismatch, mismatch[1:]) if b > 0.0],
    }
    _emit_json(report, args.output)


def _cmd_demo(args):
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    for name, gen in (
        ("decomposition_2state.json", instances.two_state()),
        ("decomposition_3cycle.json", instances.three_cycle()),
    ):
        path = out / name
        _emit_json(_decomposition_json(decompose(gen)), str(path))
        written.append(path)

    gen, p0 = instances.shannon_nonmonotone()
    times = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 200)])
    traj = evolve(gen, p0, times)
    traj = entropy_trace(traj, decompose(gen),
                         [SHANNON, RELATIVE_SHANNON, RELATIVE_GINI])
    path = out / "entropy_traces.csv"
    _emit_trajectory_csv(traj, str(path))
    written.append(path)

    cyc = instances.three_cycle()
    sb = spectral_bound(decompose(cyc))
    times = np.concatenate([[0.0], np.geomspace(1e-3, 10.0 / sb.lambda2, 200)])
    traj = evolve(cyc, probability_vector([1.0, 0.0, 0.0]), times)
    path = out / "bound_3cycle.csv"
    _emit_bound_csv(verify_bound(traj, sb), str(path))
    written.append(path)

    for path in written:
        sys.stdout.write(f"wrote {path}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-flow",
        description="Decompose continuous-time Markov chains into stationary "
                    "distribution, reversible flow and circulation; evolve, "
                    "trace entropies and verify spectral decay bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *inputs):
        """Add subcommand ``name`` with ``--output`` and the ``inputs`` ("input",
        "p0") that :func:`main` reads and passes on as ``func(args, gen[, p0])``."""
        p = sub.add_parser(name, help=help)
        if "input" in inputs:
            p.add_argument("--input", required=True, help="generator JSON file")
        if "p0" in inputs:
            p.add_argument("--p0", required=True, help="probability JSON file")
        p.add_argument("--output", help="output file (default: stdout)")
        p.set_defaults(func=func)
        return p

    p = command("stationary", _cmd_stationary, "stationary distribution of a generator",
                "input")
    p.add_argument("--method", choices=["solve", "tree"], default="solve")
    command("decompose", _cmd_decompose, "split a generator into (pi, S, A)", "input")
    p = command("compose", _cmd_compose, "build a generator from pi, S and A")
    p.add_argument("--pi", required=True, help="probability JSON file")
    p.add_argument("--S", required=True, help="symmetric flow JSON file")
    p.add_argument("--A", required=True, help="circulation JSON file")
    command("dual", _cmd_dual, "time-reversed chain (same pi, negated circulation)",
            "input")
    command("cycles", _cmd_cycles, "peel the circulation into weighted cycles", "input")
    p = command("entropy", _cmd_entropy, "entropy or divergence of a distribution",
                "input", "p0")
    p.add_argument("--kind", choices=list(TRACE_TOKENS), required=True)

    traced = command("evolve", _cmd_evolve,
                     "integrate the master equation, emit CSV traces", "input", "p0")
    traced.add_argument("--traces", default=",".join(TRACE_TOKENS),
                        help=f"comma-separated subset of {','.join(TRACE_TOKENS)}")
    for p in (traced, command("bound", _cmd_bound,
                              "verify the spectral decay bound along a trajectory",
                              "input", "p0")):
        p.add_argument("--t-max", type=float, default=None,
                       help="end time (default: 10 / decay rate)")
        p.add_argument("--points", type=int, default=200)

    p = command("continuum", _cmd_continuum, "discretize a drift-diffusion problem "
                                             "and run a grid-refinement study")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--grid", type=int, default=16, help="base grid size per axis")
    p.add_argument("--refine", type=int, default=3,
                   help="number of levels, doubling the grid each time")

    p = sub.add_parser("demo", help="regenerate the repository's worked examples")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=_cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process; parsing leaves
    it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs = []
        if "input" in args:
            inputs.append(generator_from_json(_read_json(args.input)))
        if "p0" in args:
            gen, p0 = inputs[0], probability_from_json(_read_json(args.p0))
            if p0.n != gen.n:
                raise ValueError(
                    f"size invariant violated: p0 has {p0.n} entries, the "
                    f"generator has {gen.n} states"
                )
            inputs.append(p0)
        args.func(args, *inputs)
    except (MarkovFlowError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
