"""Command-line front end: zero tables, spectra, field grids, verification.

Commands
--------
zeros   first zeros of J_m or of the annular cross-product determinant
modes   TM spectrum below a frequency cutoff (optionally as a histogram)
field   one mode sampled over a rho/phi/z grid
verify  run the built-in invariant suites

Common flags: ``--format {csv,json}`` (default csv, json for ``verify``),
``--out PATH`` (default stdout) and ``--config PATH``: each line
``key = value`` of that file is the flag ``--key=value``, read before the
command line, whose flags therefore win. CSV output
is comma-separated with a header row and LF line endings; JSON output is
a single document ``{"schema": "coaxmode/1", "command": ..., "params":
{...}, "rows": [...]}``. Numbers are serialized with shortest-round-trip
repr (up to 17 significant digits), so identical runs are byte-identical
and CSV and JSON carry identical values. Rows are written as they are
computed, in batches of 256, so a field grid of any size runs in flat
memory. A batch whose cells are all ints and floats is formatted by one
%-template per command, built from the column names, which writes the
bytes csv.writer and json.dumps(indent=2) would write; batches with text
cells, and JSON batches holding NaN or infinities, go through csv.writer
and the JSON encoder. ``field`` takes its rows from ``fields.field_grid``,
which evaluates the mode's separable factors once per rho, phi and z, and
prints them the same way: each rho, phi and z is rendered as text once per
job, and each row formats only its ten field values. ``zeros``, ``modes``
and ``verify`` format every cell of every row.

Every check that can fail runs before the first byte: a failing command
writes nothing and creates no ``--out`` file.

A ``field`` grid renders on every CPU the process may use, one CPU per
_SPLIT_ROWS (1,024) rows, so from 2,048 rows up on two CPUs. It is cut into
sub-grids in row order, each a ``field_grid`` call over a range of one axis
with the outer axes fixed, and each round forks one worker per sub-grid
after its first. The job prints the first sub-grid itself; each worker
writes its own into an unnamed temp file under TMPDIR (default /tmp), which
the job appends in order. A sub-grid's rows are the full grid's, bit for
bit, and go through the same renderer, so the bytes cannot differ from a
serial run's. A worker that fails makes the job exit 1. A sub-grid holds
at most _SUBGRID_ROWS (16,384) rows, so a temp file stays under about 8 MB.
The job stays serial with one usable CPU, with a second thread alive,
without fork, or when TMPDIR takes no temp file; ``zeros``, ``modes`` and
``verify`` always do. Flat memory holds per process.

Each command imports the layers it runs inside the command, so a cold
process loads only those: ``zeros`` loads roots (and specfun under it),
``modes`` cavity, ``field`` cavity and fields, and ``verify`` the layers of
the suites it runs. ``--version`` and the flags argparse rejects load no
layer, and neither csv nor json: only ``_emit`` imports them, csv for CSV
output and json for JSON.

Exit codes: 0 success, 1 numerical failure (or failed verification),
2 argument/validation errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import operator
import os
import sys
from typing import Callable, Iterable, Iterator, Optional

from . import __version__
from .errors import CoaxmodeError, GeometryError, DomainError, OrderError

SCHEMA = "coaxmode/1"
# a field grid renders on one CPU per _SPLIT_ROWS rows (a cold job on two
# CPUs breaks even with one at about 2,048 rows); a sub-grid, and so a
# worker's temp file, holds at most _SUBGRID_ROWS rows
_SPLIT_ROWS = 1024
_SUBGRID_ROWS = 16384


class _UsageError(Exception):
    """Bad arguments detected after parsing; mapped to exit code 2."""


def _is_numeric(batch: list) -> bool:
    # int and float cells print as their repr in both formats; bool is an int
    # subclass that JSON spells true/false, so it takes the encoder path
    return (set(map(type, batch)) == {tuple}
            and set(map(type, itertools.chain.from_iterable(batch))) <= {int, float})


def _renderer(template: str, grid: Optional[tuple]) -> Callable[[list], Optional[str]]:
    """The step that turns a batch of rows into text: template % row each.

    Without a grid, a batch that is not all ints and floats gets None, and
    the caller's csv.writer or JSON encoder prints it. With a grid (rhos,
    phis, zs), the rows are ``field_grid``'s floats in its product order, z
    fastest: each rho, phi and z is repr'd once, from the axis value itself
    and in axis order, so -0.0 keeps its sign, and each row formats only the
    cells after its three coordinates.
    """
    if grid is None:
        return lambda batch: "".join(map(template.__mod__, batch)) if _is_numeric(batch) else None
    rhos, phis, zs = grid
    lead_rho, lead_phi, lead_z, rest = template.split("%r", 3)
    phi_texts = [lead_phi + repr(phi) + lead_z for phi in phis]
    z_texts = list(map(repr, zs))
    # one head per (rho, phi), built as the rows reach it, so a grid of any
    # shape holds its axes' text and no more
    heads = (rho + phi for rho in (lead_rho + repr(rho) for rho in rhos)
             for phi in phi_texts)
    coords = itertools.chain.from_iterable(zip(itertools.repeat(head), z_texts)
                                           for head in heads)
    row_template = "%s%s" + rest
    values = operator.itemgetter(slice(3, None))
    return lambda batch: "".join(map(row_template.__mod__, map(
        operator.add, itertools.islice(coords, len(batch)), map(values, batch))))


def _subgrids(grid: tuple, ways: int) -> list[tuple]:
    """The grid (rhos, phis, zs) as sub-grids in row order, ``ways`` to a round.

    Each sub-grid fixes one value of every axis outside the split axis and
    takes a range of it; the split axis is the outermost one whose per-value
    block fits in an equal share of a round, and no share exceeds
    _SUBGRID_ROWS rows.
    """
    total = math.prod(map(len, grid))
    rounds = -(-total // (ways * _SUBGRID_ROWS))
    share = -(-total // (ways * rounds))
    block = total
    for axis, split in enumerate(grid):
        block //= len(split)
        if block <= share:
            break
    step = share // block
    outer = itertools.product(*([[value] for value in values] for values in grid[:axis]))
    return [(*fixed, split[i:i + step], *grid[axis + 1:])
            for fixed in outer for i in range(0, len(split), step)]


def _cpus(rows: int) -> list[int]:
    """The CPUs a field grid of ``rows`` rows renders on, the job's own first.

    Fewer than two keep the job serial: without fork, with one usable CPU,
    with a second thread alive (fork copies only the calling one), below
    _SPLIT_ROWS rows per CPU, or when /proc/self/stat names no CPU.
    """
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "O_TMPFILE")):
        return []
    import threading
    cpus = sorted(os.sched_getaffinity(0))
    ways = min(len(cpus), rows // _SPLIT_ROWS)
    if ways < 2 or threading.active_count() > 1:
        return []
    # a fresh fork can share its parent's CPU for a hundred milliseconds
    # while another CPU idles, so each worker is pinned to one after the job's
    try:
        with open("/proc/self/stat", encoding="ascii") as stat:
            here = cpus.index(int(stat.read().rsplit(")", 1)[1].split()[36]))
    except (OSError, IndexError, ValueError):
        return []
    return [cpus[(here + k) % len(cpus)] for k in range(ways)]


def _split(handle, body: Callable, rows: Iterable[tuple], grid: tuple,
           sub_rows: Callable) -> Iterator[str]:
    """body(rows, grid)'s texts, rendered on every CPU the job may use.

    Each round forks one worker per sub-grid after its first, each pinned to
    a CPU of its own. The parent yields the first sub-grid's texts as it
    renders them; each worker renders its own into an unnamed temp file
    under TMPDIR (default /tmp) and ends,
    and the parent reaps the workers in order and yields their files in
    64 KB pieces. A sub-grid's rows are the full grid's, bit for bit, so the
    texts are body(rows, grid)'s. A worker that fails ends the job with
    ChildProcessError, and on any exit the parent kills and reaps the
    workers it has left. Without a temp file the job stays serial.
    """
    cpus, fds, pids = _cpus(math.prod(map(len, grid))), [], []
    try:
        try:
            for _ in cpus[1:]:
                fds.append(os.open(os.environ.get("TMPDIR") or "/tmp",
                                   os.O_TMPFILE | os.O_RDWR, 0o600))
        except OSError:
            cpus = []
        if not cpus:
            yield from body(rows, grid)
            return
        import signal
        parent, subgrids = os.getpid(), _subgrids(grid, len(cpus))
        for start in range(0, len(subgrids), len(cpus)):
            own, *rest = subgrids[start:start + len(cpus)]
            # a worker ends with os._exit, so no buffered text can print twice
            for stream in (handle, sys.stdout, sys.stderr):
                stream.flush()
            for sub, fd, cpu in zip(rest, fds, cpus[1:]):
                os.ftruncate(fd, 0)
                os.lseek(fd, 0, os.SEEK_SET)
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        with contextlib.suppress(OSError):
                            os.sched_setaffinity(0, {cpu})
                        with open(fd, "w", encoding="utf-8", newline="\n",
                                  closefd=False) as tmp:
                            for text in body(sub_rows(*sub), sub):
                                if os.getppid() != parent:
                                    break  # the job is gone
                                tmp.write(text)
                            else:
                                code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            yield from body(sub_rows(*own), own)
            for fd in fds[:len(pids)]:
                code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                del pids[0]
                if code:
                    raise ChildProcessError(f"a worker rendering the grid failed "
                                            f"(exit code {code})")
                os.lseek(fd, 0, os.SEEK_SET)
                with open(fd, "r", encoding="utf-8", newline="", closefd=False) as tmp:
                    while piece := tmp.read(1 << 16):
                        yield piece
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _emit(command: str, params: dict, columns: tuple[str, ...],
          rows: Iterable[tuple], fmt: str, out: Optional[str],
          grid: Optional[tuple] = None, sub_rows: Optional[Callable] = None) -> None:
    """Write the rows, tuples in column order, as they arrive.

    Rows go out in batches of 256. A batch of numeric rows is formatted by
    one %-template per call, which prints each cell's repr exactly where
    csv.writer or json.dumps would put it; any other batch goes through
    csv.writer or the JSON encoder itself. ``grid`` (rhos, phis, zs) says
    the rows are ``field_grid``'s, whose first three cells then print from
    text made once per axis value (see ``_renderer``), and ``sub_rows(rhos,
    phis, zs)`` gives the rows of any sub-grid of it, which ``_split``
    renders on several CPUs. csv loads only for CSV and json only for JSON,
    so ``--version`` and the arguments argparse rejects import neither.
    """
    if fmt == "csv":
        import csv
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")

        def fallback(batch: list) -> str:
            buffer.seek(0)
            buffer.truncate()
            writer.writerows(batch)
            return buffer.getvalue()

        template = ",".join(["%r"] * len(columns)) + "\n"
        head, ends = fallback([columns]), ("", "")
    else:
        import json
        # json.dumps(doc, indent=2) byte for byte, "rows" (the last key) streamed
        # in batches, because each encode call pays the encoder's set-up again
        doc = {"schema": SCHEMA, "command": command, "params": params, "rows": []}
        head, tail = json.dumps(doc, indent=2).rsplit("[]", 1)
        head += "["
        ends = ("\n  ]" + tail + "\n", "]" + tail + "\n")
        encode = json.JSONEncoder(indent=2).encode
        # "[\n  {...},\n  {...}\n]" -> the same objects two levels deeper
        fallback = lambda batch: "," + encode(
            [dict(zip(columns, row)) for row in batch])[1:-2].replace("\n", "\n  ")
        # one row object, indented two levels below the document, after a comma
        # that the document's first row drops
        template = ",\n    {\n" + ",\n".join(
            "      " + json.dumps(name).replace("%", "%%") + ": %r" for name in columns
        ) + "\n    }"

    def body(rows: Iterable[tuple], grid: Optional[tuple]) -> Iterator[str]:
        render = _renderer(template, grid)
        rows = iter(rows)
        while batch := list(itertools.islice(rows, 256)):
            text = render(batch)
            # repr spells non-finite floats nan/inf where JSON has NaN/Infinity
            if text is None or fmt == "json" and ("nan" in text or "inf" in text):
                text = fallback(batch)
            yield text

    with (open(out, "w", encoding="utf-8", newline="\n") if out
          else contextlib.nullcontext(sys.stdout)) as handle:
        handle.write(head)
        with contextlib.closing(_split(handle, body, rows, grid, sub_rows) if sub_rows
                                else body(rows, grid)) as texts:
            first = next(texts, None)
            if first is not None:
                handle.write(first[fmt == "json":])
                for text in texts:
                    handle.write(text)
        handle.write(ends[first is None])


def _load_config(path: str) -> list[str]:
    """The file's ``key = value`` lines as ``--key=value`` flags, in file order."""
    flags = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("_", "-")
            # --config (or a prefix of it) would parse, and then be ignored
            if key and "config".startswith(key):
                raise _UsageError(f"{path}:{lineno}: a config file cannot name another one")
            flags.append(f"--{key}={value.strip()}")
    return flags


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise _UsageError(f"--{name.replace('_', '-')} is required")
    return value


def _geometry(args: argparse.Namespace):
    from .cavity import AnnulusGeometry, CylinderGeometry
    cavity_kind = _require(args, "cavity")
    b = _require(args, "b")
    l = _require(args, "l")
    if cavity_kind == "annulus":
        return AnnulusGeometry(a=_require(args, "a"), b=b, l=l)
    if args.a is not None:
        raise _UsageError("--a applies to the annulus only; drop it or use --cavity annulus")
    return CylinderGeometry(b=b, l=l)


def _params(geometry, **job) -> dict:
    """A job's JSON params: the cavity, b and l, the job's own, then a for the annulus."""
    a = {"a": geometry.a} if geometry.a else {}
    return {"cavity": "annulus" if a else "cylinder", "b": geometry.b, "l": geometry.l, **job, **a}


def _parse_grid(spec: str, flag: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError(f"{flag} expects LO:HI:COUNT, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc
    if n < 1 or hi < lo:
        raise _UsageError(f"{flag}: need COUNT >= 1 and HI >= LO, got {spec!r}")
    # LO and HI themselves: lo + 0.0 loses the sign of -0.0, the last step can round past HI
    values = [lo] + [lo + (hi - lo) * i / (n - 1) for i in range(1, n - 1)] + [hi] * (n > 1)
    # NaN passes the comparisons above, and a finite LO and HI can still span
    # more than a float holds
    if not (math.isfinite(hi) and all(map(math.isfinite, values))):
        raise _UsageError(f"{flag}: LO, HI and every sample must be finite, got {spec!r}")
    return values


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_zeros(args) -> int:
    from .roots import bessel_zeros, cross_product_zeros
    kind = _require(args, "kind")
    if kind == "cross":
        a = _require(args, "a")
        b = _require(args, "b")
    elif args.a is not None or args.b is not None:
        raise _UsageError("--a/--b apply to --kind cross only")
    m = abs(_require(args, "m"))  # the table of J_{-m} equals that of J_m
    count = _require(args, "count")
    if kind == "bessel":
        table = bessel_zeros(m, count)
        params = {"kind": kind, "m": m, "count": count}
    else:
        table = cross_product_zeros(m, a, b, count)
        params = {"kind": kind, "m": m, "count": count, "a": a, "b": b}
    rows = ((m, i + 1, z, r) for i, (z, r) in enumerate(zip(table.zeros, table.residuals)))
    _emit("zeros", params, ("m", "n", "value", "residual"), rows, args.format, args.out)
    return 0


def _omega_max(args) -> float:
    if args.omega_max is not None and args.freq_max_hz is not None:
        raise _UsageError("give either --omega-max or --freq-max-hz, not both")
    if args.omega_max is not None:
        return args.omega_max
    if args.freq_max_hz is not None:
        return 2.0 * math.pi * args.freq_max_hz
    raise _UsageError("--omega-max or --freq-max-hz is required")


def _cmd_modes(args) -> int:
    from .cavity import enumerate_modes_below, mode_count_histogram
    geometry = _geometry(args)
    omega_max = _omega_max(args)
    params = _params(geometry, omega_max=omega_max)
    if args.histogram is not None:
        hist = mode_count_histogram(geometry, omega_max, args.histogram)
        params["histogram_bins"] = args.histogram
        _emit("modes", params, ("omega_bin_edge", "cumulative_count"), hist,
              args.format, args.out)
        return 0
    entries = enumerate_modes_below(geometry, omega_max)
    rows = ((e.index.m, e.index.n, e.index.p, e.gamma, e.omega, e.degeneracy) for e in entries)
    _emit("modes", params, ("m", "n", "p", "gamma", "omega_rad_s", "degeneracy"),
          rows, args.format, args.out)
    return 0


def _cmd_field(args) -> int:
    from .cavity import ModeIndex
    from .fields import field_grid
    geometry = _geometry(args)
    mode_spec = _require(args, "mode")
    try:
        m, n, p = (int(v) for v in mode_spec.split(","))
    except ValueError as exc:
        raise _UsageError(f"--mode expects M,N,P integers, got {mode_spec!r}") from exc
    index = ModeIndex(m, n, p)
    sign = 1 if _require(args, "sign") == "+" else -1
    try:
        re, _, im = args.amplitude.partition(",")
        amplitude = complex(float(re), float(im) if im else 0.0)
    except ValueError as exc:
        raise _UsageError(f"--amplitude expects RE or RE,IM, got {args.amplitude!r}") from exc

    rhos = _parse_grid(_require(args, "rho"), "--rho")
    phis = _parse_grid(_require(args, "phi"), "--phi")
    zs = _parse_grid(_require(args, "z"), "--z")
    if rhos[0] < geometry.a or rhos[-1] > geometry.b or zs[0] < 0.0 or zs[-1] > geometry.l:
        raise _UsageError(
            f"grid leaves the cavity: rho must stay in [{geometry.a}, {geometry.b}], "
            f"z in [0, {geometry.l}]")

    # the grid and the mode are checked here, before any output
    rows = field_grid(geometry, index, sign, amplitude, rhos, phis, zs)
    params = _params(geometry, mode=[m, n, p], sign="+" if sign > 0 else "-",
                     amplitude=[amplitude.real, amplitude.imag])
    columns = ("rho", "phi", "z",
               "re_ez", "im_ez", "re_erho", "im_erho", "re_ephi", "im_ephi",
               "re_brho", "im_brho", "re_bphi", "im_bphi")
    _emit("field", params, columns, rows, args.format, args.out, grid=(rhos, phis, zs),
          sub_rows=lambda *sub: field_grid(geometry, index, sign, amplitude, *sub))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_checks
    module = args.module_pos or args.module
    results = run_checks(module)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.module}.{r.check}: {r.detail}", file=sys.stderr)
    # CSV spells the flag as JSON does; csv.writer alone would print True/False
    spell = {True: "true", False: "false"}.get if args.format == "csv" else bool
    rows = ((r.module, r.check, spell(r.passed), r.detail) for r in results)
    params = {"module": module or "all", "all_passed": all(r.passed for r in results)}
    _emit("verify", params, ("module", "check", "passed", "detail"), rows,
          args.format, args.out)
    return 0 if params["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default %(default)s)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write output to PATH instead of stdout")
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="flat key=value file supplying defaults; flags override")


def _add_geometry(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cavity", choices=("cylinder", "annulus"), default=None,
                     help="cavity cross-section")
    sub.add_argument("--a", type=float, default=None, help="inner radius, meters (annulus)")
    sub.add_argument("--b", type=float, default=None, help="outer/wall radius, meters")
    sub.add_argument("--l", type=float, default=None, help="cavity height, meters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coaxmode",
        description="TM mode spectra and fields of cylindrical and annular cavities")
    parser.add_argument("--version", action="version", version=f"coaxmode {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    zeros = commands.add_parser("zeros", help="radial eigenvalue tables")
    zeros.add_argument("--kind", choices=("bessel", "cross"), default=None)
    zeros.add_argument("--m", type=int, default=None, help="angular order")
    zeros.add_argument("--count", type=int, default=None, help="how many zeros")
    zeros.add_argument("--a", type=float, default=None, help="inner radius, meters (cross)")
    zeros.add_argument("--b", type=float, default=None, help="outer radius, meters (cross)")
    _add_common(zeros)
    zeros.set_defaults(run=_cmd_zeros)

    modes = commands.add_parser("modes", help="TM spectrum below a cutoff")
    _add_geometry(modes)
    modes.add_argument("--omega-max", dest="omega_max", type=float, default=None,
                       help="angular frequency cutoff, rad/s")
    modes.add_argument("--freq-max-hz", dest="freq_max_hz", type=float, default=None,
                       help="frequency cutoff in Hz (converted via omega = 2 pi f)")
    modes.add_argument("--histogram", type=int, default=None, metavar="BINS",
                       help="emit cumulative mode counts at BINS edges instead")
    _add_common(modes)
    modes.set_defaults(run=_cmd_modes)

    field = commands.add_parser("field", help="sample one mode on a grid")
    _add_geometry(field)
    field.add_argument("--mode", default=None, metavar="M,N,P")
    field.add_argument("--sign", choices=("+", "-"), default=None,
                       help="azimuthal orientation e^{+imphi} or e^{-imphi}")
    field.add_argument("--amplitude", default="1", metavar="RE[,IM]",
                       help="default 1; a negative RE needs the --amplitude=-1,2 form")
    field.add_argument("--rho", default=None, metavar="LO:HI:COUNT")
    field.add_argument("--phi", default=None, metavar="LO:HI:COUNT")
    field.add_argument("--z", default=None, metavar="LO:HI:COUNT")
    _add_common(field)
    field.set_defaults(run=_cmd_field)

    verify = commands.add_parser("verify", help="run the invariant suites")
    verify.add_argument("module_pos", nargs="?", default=None,
                        help="optional module filter: specfun, roots, cavity, fields")
    verify.add_argument("--module", default=None, help="module filter (same as positional)")
    _add_common(verify)
    verify.set_defaults(run=_cmd_verify, format="json")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # argparse keeps an option's last value: the command line wins
            args = parser.parse_args(argv[:1] + _load_config(args.config) + argv[1:])
        return args.run(args)
    except (_UsageError, GeometryError, DomainError, OrderError) as exc:
        print(f"coaxmode {args.command}: {exc}", file=sys.stderr)
        return 2
    except CoaxmodeError as exc:
        print(f"coaxmode {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"coaxmode {args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # report after the handler, whose exit frees what the job held
    print(f"coaxmode {args.command}: out of memory; reduce the job or raise the "
          "memory limit", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
