"""Command line front end: ``wgqed COMMAND --config PATH [options]``.

Five commands cover the pipeline: ``modes`` tabulates the guided
spectrum, ``decay`` computes the emission rate and level shift,
``corr`` samples the detection correlation map and fits its two decay
rates, ``omegad`` reports the line center where the rate ratio crosses
the refractive index, and ``validate`` runs the invariant battery.

Every artifact and sidecar embeds an envelope identifying the tool,
the command, the model tags and the full effective configuration, so a
file on its own says how it was made; ``_emit`` builds it, once per
artifact. Column names and JSON field names are frozen;
docs/artifact_schema.md in the repository is the reference. With
``--reproducible`` the timestamp is omitted and repeated runs are
byte-identical.

Exit codes: 0 success, 2 configuration or command line error, 3 domain
error, 4 convergence failure, 5 validation failure, 6 no crossing found.
A refusal is one stderr line; ``_REFUSALS`` gives each error class its
prefix and status.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import itertools
import json
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .config import FLAGS, load_config
from .detection import (
    CorrelationGrid,
    RadicandModel,
    closed_form_crossing,
    fit_decay_rates,
    omega_d,
)
from .emission import decay_rate, level_shift
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NoCrossingError,
    WgError,
)
from .modes import MAX_TABLE_ROWS, POLARIZATIONS, mode_table, table_rows
from .validate import run_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_VALIDATION = 5
EXIT_NO_CROSSING = 6

# each refusal's stderr prefix and exit status, by its class
_REFUSALS = {
    ConfigError: ("configuration error", EXIT_CONFIG),
    DomainError: ("domain error", EXIT_DOMAIN),
    ConvergenceError: ("convergence failure", EXIT_CONVERGENCE),
    NoCrossingError: ("no crossing", EXIT_NO_CROSSING),
}


def _fmt(value, digits: int) -> str:
    """One deterministic cell; empty string for missing values. A float
    is its ``digits``-digit %g text unless that rounds past the largest
    float, and then the repr of its exact value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = format(value, f".{digits}g")
        # a finite value whose rounding overflows keeps all its digits
        return repr(float(value)) if math.isinf(float(text)) else text
    text = str(value)
    # RFC 4180: a cell holding a separator, a quote or a line break is
    # quoted, with its quotes doubled
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(value, digits: int):
    if isinstance(value, float):
        # a finite value is its CSV cell read back; inf and nan stay text
        text = _fmt(value, digits)
        return float(text) if math.isfinite(value) else text
    if isinstance(value, dict):
        return {k: _json_value(v, digits) for k, v in value.items()}
    return value


def _envelope(command: str, config, reproducible: bool,
              discrepancies: dict | None = None) -> dict:
    env = {
        "tool": "wgqed",
        "version": __version__,
        "command": command,
        "dos_model": config.dos.value,
        "radicand_model": config.radicand.value,
        "config": dict(config.effective_items()),
        "discrepancies": discrepancies or {},
    }
    if not reproducible:
        env["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    return env


def _envelope_lines(env: dict, digits: int):
    yield f"# tool = {env['tool']}"
    yield f"# version = {env['version']}"
    yield f"# command = {env['command']}"
    yield f"# dos_model = {env['dos_model']}"
    yield f"# radicand_model = {env['radicand_model']}"
    yield from _comment_lines("config", env["config"], digits)
    yield from _comment_lines("discrepancy", env["discrepancies"], digits)
    if "timestamp" in env:
        yield f"# timestamp = {env['timestamp']}"


def _comment_lines(prefix: str, items: dict, digits: int):
    # one CSV header comment per item, keys sorted
    for key in sorted(items):
        yield f"# {prefix}.{key} = {_fmt(items[key], digits)}"


def _json_cell(value, digits: int) -> str:
    # what json.dumps writes for _json_value of one scalar
    if type(value) is float and math.isfinite(value):
        return repr(_json_value(value, digits))
    return json.dumps(_json_value(value, digits))


def _cells(values, digits: int, json: bool) -> list[bytes]:
    """The UTF-8 text of each cell in one format, ``_json_cell`` or
    ``_fmt`` of the cell. An array is rendered by its dtype: integers
    by numpy's cast to bytes, which writes ``str`` of each; strings
    once per distinct value; float64 by the ``%g`` texts of
    ``gformat.g_texts`` at once, kept by a vectorized mask where they
    already are the cell: in CSV below 1e308, where no rounding
    overflows; in JSON up to 15 digits where ``_json_kept`` holds, a
    zero written "0.0" or "-0.0"; in JSON from 16 digits on as the repr
    of each text read back, where that is finite. Every cell a mask
    refuses, every cell of an array of any other dtype and every cell
    of any other sequence goes through the format's renderer."""
    render = _json_cell if json else _fmt
    if not isinstance(values, np.ndarray):
        return [render(v, digits).encode() for v in values]
    values = values.ravel()
    if values.dtype.kind in "iu":
        return values.astype(bytes).tolist()
    if values.dtype.kind == "U":
        cells = values.tolist()
        texts = {v: render(v, digits).encode() for v in set(cells)}
        return [texts[v] for v in cells]
    if values.dtype != np.float64:
        return [render(v, digits).encode() for v in values.tolist()]
    # imported on first use: a command that renders no float array
    # neither compiles nor loads the kernel
    from .gformat import g_texts
    if not json:
        texts = g_texts(values, digits)
        kept = ~np.isfinite(values) | (np.abs(values) < 1e308)
    elif digits <= 15:
        texts = g_texts(values, digits)
        kept = _json_kept(values, digits)
        zeros = np.flatnonzero(values == 0.0)
        signs = np.signbit(values[zeros]).tolist()
        for i, negative in zip(zeros.tolist(), signs):
            texts[i] = b"-0.0" if negative else b"0.0"
    else:
        # the texts read back in one pass; 17 digits read back as the
        # value itself
        read = (values if digits == 17 else
                np.array(g_texts(values, digits)).astype(np.float64))
        texts = [repr(v).encode() for v in read.tolist()]
        kept = np.isfinite(read)
    odd = np.flatnonzero(~kept)
    for i, value in zip(odd.tolist(), values[odd].tolist()):
        texts[i] = render(value, digits).encode()
    return texts


def _json_kept(values: np.ndarray, digits: int) -> np.ndarray:
    """Where a JSON cell up to 15 digits is its ``%g`` text or, for a
    zero, "0.0" or "-0.0": at every zero and at a normal value more
    than |v| * 10**(1 - digits) from every integer. Such a value's text
    round-trips, has no "e+", since the value lies below
    10**(digits - 1), and does not read as an integer."""
    size = np.abs(values)
    with np.errstate(invalid="ignore"):
        off_integer = np.abs(values - np.rint(values))
    return (values == 0.0) | ((size >= sys.float_info.min)
                              & (off_integer > size * 10.0 ** (1 - digits)))


GRID_COLUMNS = ("x", "z", "t", "g1", "inside_cone")

# cells in one streamed block of a table, rounded down to whole rows,
# z rows for the corr grid: enough to spread each block's set-up over
# many cells, few enough that its ~0.5-1 MB of text is filled and
# written while still in cache
GRID_BLOCK_CELLS = 8_192


def _grid_rows(grid: CorrelationGrid, digits: int, json: bool,
               cell_sep: str, row_sep: str) -> Iterator[bytes | bytearray]:
    """Yield the rows of ``grid`` as UTF-8 byte blocks, x outermost and
    t innermost as in ``values.ravel()``. A block holds whole z rows of
    one x value, at most GRID_BLOCK_CELLS cells unless one z row alone
    is longer, and is one template with a ``%s`` slot per g1 cell,
    filled by a single bytes ``%``. Every text comes from _cells: the
    axes, the g1 cells of a block and the cone flags, each rendered
    once, and each t tail once per flag; a z row shares a whole tail
    list unless it crosses the light front. Only the first block starts
    without a row separator, so the blocks join to the whole table."""
    sep, row_sep = cell_sep.encode(), row_sep.encode()
    false, true = _cells([False, True], digits, json)
    # rendered numbers and flags hold no "%"
    t_text = _cells(grid.t_values, digits, json)
    outside = [t + sep + b"%s" + sep + false for t in t_text]
    inside = [t + sep + b"%s" + sep + true for t in t_text]
    tails = [inside if all(row) else outside if not any(row)
             else [i if cell else o
                   for o, i, cell in zip(outside, inside, row)]
             for row in grid.inside_cone.tolist()]
    z_heads = [z + sep for z in _cells(grid.z_values, digits, json)]
    z_count, t_count = grid.values.shape[1:]
    step = max(1, GRID_BLOCK_CELLS // t_count)
    lead = len(row_sep)
    for x, plane in zip(_cells(grid.x_values, digits, json), grid.values):
        for start in range(0, z_count, step):
            stop = start + step
            template = bytearray()
            for z, row in zip(z_heads[start:stop], tails[start:stop]):
                head = row_sep + x + sep + z
                template += head
                template += head.join(row)
            del template[:lead]
            lead = 0
            yield template % tuple(_cells(plane[start:stop], digits, json))


def _table_text(table, digits: int, json: bool, cell_sep: str,
                row_sep: str) -> tuple[Sequence[str],
                                       Iterable[bytes | bytearray] | None]:
    """The column names of ``table`` and its rows in one format as UTF-8
    byte chunks that join to one text, None when it has no rows,
    rendered as they are consumed: a grid's by _grid_rows, a dict's in
    blocks of whole rows, at most GRID_BLOCK_CELLS cells each unless
    one row is longer, each column's cells by _cells."""
    if isinstance(table, CorrelationGrid):
        return GRID_COLUMNS, _grid_rows(table, digits, json, cell_sep,
                                        row_sep)
    columns = list(table.values())
    count = min(map(len, columns), default=0)
    cell_sep, row_sep = cell_sep.encode(), row_sep.encode()

    def blocks():
        step = max(1, GRID_BLOCK_CELLS // len(columns))
        for start in range(0, count, step):
            text = row_sep.join(map(cell_sep.join, zip(
                *(_cells(col[start:start + step], digits, json)
                  for col in columns))))
            yield row_sep + text if start else text
    return list(table), blocks() if count else None


def _csv_chunks(env: dict, table, digits: int,
                extra: dict | None) -> Iterable[bytes | bytearray]:
    lines = list(_envelope_lines(env, digits))
    for key in sorted(extra or {}):
        lines += _comment_lines(key, extra[key], digits)
    columns, rows = _table_text(table, digits, False, ",", "\n")
    lines.append(",".join(columns))
    head = ("\n".join(lines) + "\n").encode()
    if rows is None:
        return (head,)
    return itertools.chain((head,), rows, (b"\n",))


# the top level key sits at indent 2; nested keys and string values
# cannot produce this text
_JSON_ROWS = '\n  "rows": []'


def _json_chunks(env: dict, table, digits: int,
                 extra: dict | None) -> Iterable[bytes | bytearray]:
    # the rows take the layout indent=2 gives a list of lists
    columns, rows = _table_text(table, digits, True, ",\n      ",
                                "\n    ],\n    [\n      ")
    doc = {
        "envelope": _json_value(env, digits),
        "columns": list(columns),
        "rows": [],
    }
    if extra:
        doc.update(_json_value(extra, digits))
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if rows is None:
        return (text.encode(),)
    head, _, tail = text.partition(_JSON_ROWS)
    return itertools.chain(
        (head.encode(), b'\n  "rows": [\n    [\n      '), rows,
        (b"\n    ]\n  ]", tail.encode()))


def _write(outputs):
    """Write each ``(path, chunks)`` pair, ``chunks`` an iterable of
    UTF-8 byte chunks and a None path meaning standard output, in
    order. The callers render every envelope, header, tail and sidecar
    before this opens a file; only a table's row blocks are rendered
    while its file is written. Any exception raised while opening,
    rendering or writing removes each regular file this call created
    or truncated, so no artifact is left partial or without its
    sidecar, and is raised again, an ``OSError`` as a ConfigError.
    Standard output and targets that are not regular files, such as
    devices, FIFOs and symbolic links, are never removed."""
    made = []
    path = None
    try:
        for path, chunks in outputs:
            if path is None:
                _write_stdout(chunks)
                continue
            with open(path, "wb") as fh:
                entry = os.fstat(fh.fileno())
                if (stat.S_ISREG(entry.st_mode)
                        and os.path.samestat(os.lstat(path), entry)):
                    made.append(path)
                fh.writelines(chunks)
    except BaseException as err:
        for done in made:
            with contextlib.suppress(OSError):
                os.remove(done)
        if isinstance(err, OSError):
            where = "to standard output" if path is None else repr(path)
            raise ConfigError(f"cannot write artifact {where}: {err}") \
                from err
        raise


def _write_stdout(chunks):
    # the same text through the stream's own layer, which may be a
    # StringIO with no bytes under it; the flush makes a closed pipe
    # fail here rather than at exit
    try:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
        sys.stdout.flush()
    except OSError:
        # what is still buffered goes to the null device, so the flush
        # at interpreter exit neither fails nor reports
        with contextlib.suppress(OSError):
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise


def _columns(names: Sequence[str], rows: Sequence[Sequence]) -> dict:
    # a table's columns from its rows; the names stay when there are none
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _emit(args, config, command, table, discrepancies=None, extra=None,
          sidecar=None):
    """Render the artifact of ``command``, a block of rows at a time,
    under the envelope built here from ``config``, ``discrepancies`` and
    ``--reproducible``. ``table`` is either a dict mapping column names
    to columns, each a 1-d array, which _cells renders by its dtype, or
    a sequence of scalar cells rendered cell by cell, or a
    ``CorrelationGrid``, whose rows run over x, then z, then t under
    the columns of GRID_COLUMNS. ``extra`` holds named flat dicts that
    land as top level objects in JSON and as comment lines in CSV.
    ``sidecar``, a dict of named objects, is written with the same
    envelope as a JSON document at ``<out>.json``, together with the
    table or not at all."""
    env = _envelope(command, config, args.reproducible, discrepancies)
    chunks = _csv_chunks if config.out_format == "csv" else _json_chunks
    outputs = [(args.out, chunks(env, table, config.digits, extra))]
    if sidecar is not None:
        doc = json.dumps(_json_value({"envelope": env, **sidecar},
                                     config.digits),
                         sort_keys=True, indent=2)
        outputs.append((args.out + ".json", [(doc + "\n").encode()]))
    _write(outputs)


def cmd_modes(config, args) -> int:
    size = table_rows(config.max_mn, config.max_mn)
    if size > MAX_TABLE_ROWS:
        raise ConfigError(
            f"a modes table for max_mn = {config.max_mn} has {size} rows, "
            f"over the limit of {MAX_TABLE_ROWS}")
    codes, m, n, h, nu_c = mode_table(config.waveguide_spec(),
                                      config.max_mn, config.max_mn)
    labels = np.array([pol.value for pol in POLARIZATIONS])
    _emit(args, config, "modes", {
        "polarization": labels[codes], "m": m, "n": n,
        "transverse_wavenumber": h, "cutoff": nu_c,
        "branch_at_omega": np.where(config.atom_omega > nu_c, "traveling",
                                    "decaying")})
    return EXIT_OK


DECAY_COLUMNS = ("kind", "polarization", "m", "n", "branch", "direction",
                 "weight", "coupling_re", "coupling_im", "value")


def cmd_decay(config, args) -> int:
    spec, atom, box = config.waveguide_spec(), config.atom(), config.box()
    decay = decay_rate(spec, atom, box, config.dos,
                       max_index=config.max_mn)
    shift = level_shift(spec, atom, box, config.dos,
                        window=config.shift_window(decay.total),
                        max_index=config.max_mn)
    # decay channels first, then shift contributions
    rows = [("decay_channel", ch.mode.polarization.value, ch.mode.m,
             ch.mode.n, "traveling", ch.direction, ch.weight,
             ch.coupling.real, ch.coupling.imag, ch.rate)
            for ch in decay.channels]
    rows += [("shift_contribution", con.mode.polarization.value,
              con.mode.m, con.mode.n, con.branch.value, None, None, None,
              None, con.value) for con in shift.contributions]
    summary = {
        "decay_total": decay.total,
        "oscillatory": decay.oscillatory,
        "level_shift": shift.value,
        "shifted_frequency": config.atom_omega - shift.value,
        "window_lo": shift.window[0],
        "window_hi": shift.window[1],
    }
    _emit(args, config, "decay", _columns(DECAY_COLUMNS, rows),
          extra={"summary": summary})
    return EXIT_OK


def cmd_corr(config, args) -> int:
    if config.out_format == "csv" and args.out is None:
        raise ConfigError(
            "corr with CSV output needs --out, since the fit goes to "
            "a JSON sidecar next to the table")
    grid = config.correlation()
    fit = fit_decay_rates(grid)
    meta = grid.metadata
    fit_items = {
        "fitted_temporal_slope": -fit.temporal_rate,
        "fitted_spatial_slope": -fit.spatial_rate,
        "slope_ratio": fit.rate_ratio,
        "cone_ratio": fit.cone_ratio,
        "spatial_over_temporal_exact":
            abs(meta.pole.spatial_rate) / meta.pole.decay_rate,
        "max_log_residual": fit.max_log_residual,
        "shifted_frequency": meta.pole.shifted_frequency,
        "decay_rate": meta.pole.decay_rate,
        "spatial_rate": meta.pole.spatial_rate,
        "beta_r": meta.pole.beta_r,
        "beta_i": meta.pole.beta_i,
        "front_speed_factor": meta.front_speed_factor,
    }
    discrepancies = {
        "grid_consistency_max_rel": meta.consistency_max_rel,
        "alternative_prefactor_ratio":
            meta.alternative_prefactor_ratio,
    }
    if config.out_format == "csv":
        _emit(args, config, "corr", grid, discrepancies,
              sidecar={"fit": fit_items})
    else:
        _emit(args, config, "corr", grid, discrepancies,
              extra={"fit": fit_items})
    return EXIT_OK


def cmd_omegad(config, args) -> int:
    spec, atom, box = config.waveguide_spec(), config.atom(), config.box()
    decay = decay_rate(spec, atom, box, config.dos,
                       max_index=config.max_mn)
    closed = closed_form_crossing(spec, decay.traveling_total())
    columns = ("model", "status", "closed_form", "root_found",
               "discrepancy", "ratio_min_seen", "ratio_max_seen")
    rows = []
    discrepancies = {}
    selected_error = None
    for model in RadicandModel:
        try:
            report = omega_d(spec, decay.total, model)
            rows.append((model.value, "crossing", closed,
                         report.root_found, report.discrepancy,
                         None, None))
            discrepancies[f"omega_d_{model.value}"] = \
                report.discrepancy
        except NoCrossingError as err:
            rows.append((model.value, "no_crossing", closed, None,
                         None, err.value_range[0], err.value_range[1]))
            if model is config.radicand:
                selected_error = err
    _emit(args, config, "omegad", _columns(columns, rows), discrepancies)
    if selected_error is not None:
        # main prints its one line and exits EXIT_NO_CROSSING
        raise selected_error
    return EXIT_OK


def cmd_validate(config, args) -> int:
    results = run_checks(config)
    table = _columns(("check", "passed", "measured", "tolerance", "detail"),
                     [(r.name, r.passed, r.measured, r.tolerance, r.detail)
                      for r in results])
    failures = sum(not r.passed for r in results)
    _emit(args, config, "validate", table,
          extra={"summary": {"checks": len(results),
                             "failures": failures}})
    return EXIT_VALIDATION if failures else EXIT_OK


# each command's line in --help; main runs the module's cmd_<name>
COMMANDS = {
    "modes": "tabulate the guided mode spectrum",
    "decay": "emission rate and level shift",
    "corr": "correlation map and fitted decay rates",
    "omegad": "rate-ratio crossing line center",
    "validate": "run the invariant battery",
}


class _Parser(argparse.ArgumentParser):
    # a refused command line is one line with EXIT_CONFIG, as in main
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One parser; flag values stay text, parsed as their keys are. The
    four override flags come from the ``RunConfig`` fields that declare
    them."""
    parser = _Parser(
        prog="wgqed", usage="%(prog)s COMMAND --config PATH [options]",
        description="guided-mode emission and detection pipeline")
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help="; ".join(map(": ".join, COMMANDS.items())))
    parser.add_argument("--version", action="version",
                        version=f"wgqed {__version__}")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="key = value configuration file")
    parser.add_argument("--out", metavar="PATH",
                        help="artifact path (default stdout)")
    parser.add_argument("--reproducible", action="store_true",
                        help="omit the timestamp for byte-identical "
                             "reruns")
    for name, f in FLAGS.items():
        flag = f.metadata["flag"]
        parser.add_argument(
            flag, dest=name, help=f"{f.metadata['key']} override",
            metavar="N" if f.metadata["kind"] is int else flag[2:].upper())
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config).with_overrides(
            **{name: getattr(args, name) for name in FLAGS})
        # looked up per call, so a handler replaced on this module runs
        return globals()[f"cmd_{args.command}"](config, args)
    except WgError as err:
        prefix, status = _REFUSALS[type(err)]
        print(f"{prefix}: {err}", file=sys.stderr)
        return status
