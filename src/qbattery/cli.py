"""Batch command-line front end.

Four subcommands: ``verify`` (seeded Monte Carlo sweep of the power bound and
its identity chain), ``evolve`` (trajectory of a scenario under exact unitary
evolution), ``search`` (zero-power / saturation optimization), and ``demo``
(built-in worked cases with pass/fail checks).

Every file-writing subcommand stores its data payload at --out and a sidecar
manifest at <out>.manifest.json with the resolved configuration, seed, tool
version, input digests, and wall-clock duration. An existing file is
rewritten in place, never truncated to zero first; no write is atomic or
fsynced. Payload bytes depend only on configuration and seed — never on
--threads or timing. Exit codes: 0 success, 1 a mathematical claim failed to
hold (or a search goal was not reached), 2 bad input.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (  # noqa: F401  trajectory_rows: a name bench/tracer.py patches here
    TRAJECTORY_COLUMNS,
    ScenarioError,
    _trajectory_lines,
    builtin_exchange_scenario,
    parse_scenario,
    trajectory_report,
    trajectory_rows,
)
from .ensembles import (
    SeedSpec,
    Workspace,
    battery_eigenstate_product,
    draw_batch,
    draw_instance,  # noqa: F401  a name bench/tracer.py patches here
    gue_hermitian,
    haar_pure,
)
from .moments import REPORT_FIELDS, _chain_stage, _one_instance, _verify_checked, batch_rows
from .moments import compute_moments, verify_instance  # noqa: F401  names bench/tracer.py patches here
from .operators import (
    DensityMatrix,
    HermitianOperator,
    NumericalIntegrityError,
    RejectedInputError,
    TensorStructure,
    _CheckedMatrix,
    to_matrix_literal,
)
from .search import (
    SearchConfig,
    SearchThresholds,
    find_saturating,
    find_zero_power,
)

ENSEMBLES = {"haar": "haar", "ginibre": "ginibre", "gue-ops": "mix"}

TRIAL_COLUMNS = ("trial", "kind", *REPORT_FIELDS, "mean_f", "mean_v", "var_f", "var_v", "cov_re", "cov_im")
_SLACK = REPORT_FIELDS.index("slack")  # its column in the values after "trial" and "kind"


def _hermitian_reprs(x: np.ndarray) -> list:
    """Rows of float.__repr__ of each entry of a finite real x with |x| == |x.T|.

    Only the upper triangle, diagonal included, is formatted. An entry below
    it is +-x[j, i], so its text is its partner's with the leading "-"
    toggled where their sign bits differ: repr(-y) == "-" + repr(y) for every
    finite y, signed zeros included.
    """
    flip = (np.signbit(x) != np.signbit(x.T)).tolist()
    text = []
    for i, row in enumerate(x.tolist()):
        # x[j, i] for j < i, as row j was written
        out = [(s[1:] if s[0] == "-" else "-" + s) if f else s
               for s, f in zip([r[i] for r in text], flip[i])]
        out += map(float.__repr__, row[i:])
        text.append(out)
    return text


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_scalar(obj):
    """The text of a finite float, string, bool, None or int, as _json_bytes writes it; None for other values."""
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    if type(obj) is str:
        return json.encoder.encode_basestring_ascii(obj)
    if obj is None or type(obj) is bool:  # before int: a bool is an int
        return _JSON_CONSTANTS[obj]
    if type(obj) is int:
        return int.__repr__(obj)
    return None


def _json_pieces(obj, newline: str):
    """`obj` as _json_bytes writes it, indented as `newline` is, in pieces that join to its text.

    The pieces follow the value. A scalar, or a list, tuple or dict of
    scalars, is one piece, and an empty one is "[]" or "{}". A finite
    checked matrix equal to its conjugate transpose is one piece per row of
    its literal's "im" and "re" lists, with only the upper triangle
    formatted. Any other list, tuple or dict with string keys gives its
    opener and each entry's head, a scalar's with its text, and recurses
    into the other entries; everything else is written by the stdlib.
    """
    text = _json_scalar(obj)
    if text is not None:
        yield text
        return
    inner = newline + "  "
    if isinstance(obj, _CheckedMatrix):
        a = obj.mat
        if a.size and np.isfinite(a).all() and (a == a.conj().T).all():
            row, entry = inner + "  ", inner + "    "
            head = "{" + inner + f'"dim": {len(a)}'
            for name, x in (("im", a.imag), ("re", a.real)):
                head += "," + inner + f'"{name}": [' + row
                for texts in _hermitian_reprs(x):
                    yield head + "[" + entry + ("," + entry).join(texts) + row + "]"
                    head = "," + row
                head = inner + "]"
            yield head + newline + "}"
            return
        obj = to_matrix_literal(obj)
    if type(obj) in (list, tuple):
        opener, closer, items = "[", "]", [("", x) for x in obj]
    elif type(obj) is dict and all(type(k) is str for k in obj):
        opener, closer = "{", "}"
        items = [(json.encoder.encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())]
    else:
        # anything else as the stdlib writes it (its strings hold no raw newline)
        yield json.dumps(obj, indent=2, sort_keys=True, default=to_matrix_literal).replace("\n", newline)
        return
    if not items:
        yield opener + closer
        return
    # (head, value) items, the head a dict entry's key and ": "
    sep = "," + inner
    texts = [_json_scalar(v) for _, v in items]
    if None not in texts:
        yield opener + inner + sep.join([head + text for (head, _), text in zip(items, texts)]) + newline + closer
        return
    for i, ((head, value), text) in enumerate(zip(items, texts)):
        yield (sep if i else opener + inner) + head + (text or "")
        if text is None:
            yield from _json_pieces(value, inner)
    yield newline + closer


def _json_blocks(obj):
    """The bytes of json.dumps(obj, indent=2, sort_keys=True, default=to_matrix_literal) + "\n", piece by piece.

    Byte-identical to that stdlib call for every value it accepts, and, like
    it, raises for anything else, though only once the pieces before the
    value that it cannot write are made. Each piece of `_json_pieces` is
    encoded as it is made, and a verify payload's longest is one matrix
    row, so no copy of a whole payload is made. A DensityMatrix or
    HermitianOperator is written as its to_matrix_literal dict.
    It streams because a writer of the joined string wrote the same bytes
    but faulted in 254-269 pages per rank-4 D = 64 60-trial verify at
    --threads 2 (0 with pieces) and held 1.1 MB more peak RSS, at the same
    speed: 21.4 against 21.5 ms (medians of 40 commands in one process,
    8 runs each; 2-core host, numpy 2.4.6).
    """
    for piece in _json_pieces(obj, "\n"):
        yield piece.encode()
    yield b"\n"


def _json_bytes(obj) -> bytes:
    """The payload bytes of `obj`: the join of its `_json_blocks`."""
    return b"".join(_json_blocks(obj))


# ext4 (with its default auto_da_alloc) starts writeback of a file's data when
# a file that was truncated to 0 is closed, and when a file is renamed over
# another; see "auto_da_alloc" in the kernel's ext4 admin guide. Median time to
# rewrite a 1 kB file, 40 rewrites each, on a 2-core host (Linux 6.18, Python
# 3.11), ext4 against tmpfs (/dev/shm):
# - open(path, "wb"), which truncates with O_TRUNC: 60-82 ms against 0.004-0.005 ms;
# - write a temp file, then os.replace over it: 62-81 ms against 0.008-0.010 ms;
# - unlink, then create: 0.008-0.019 ms against 0.006 ms;
# - rewrite in place, shrinking only to a non-zero length: 0.004 ms on both.
def _write_file(path: str, data) -> None:
    """Write `data`, bytes or an iterable of byte blocks, to `path` in place, each block as it is made.

    The file is created with mode 0o666 & ~umask if missing. Unlike
    open(path, "wb"), it is never truncated to zero first: the blocks are
    written through one open file, which is cut to their total length only
    when it was longer, as a character device or a FIFO (size 0) never is.
    Like open(path, "wb"), it follows symlinks, writes through hard links,
    and is neither atomic nor fsynced.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as fh:
        size, written = os.fstat(fd).st_size, 0
        for block in [data] if isinstance(data, bytes) else data:
            written += fh.write(block)
        if size > written:
            fh.truncate()


def _start() -> tuple[float, int]:
    """Where a command starts: the clock, and the process's minor page faults so far."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _write_manifest(args, started: float, faults: int, digests=None, config=None, **telemetry) -> None:
    """Write <out>.manifest.json for the parsed `args` of a command begun at `_start()`.

    Its config is every parsed argument but the subcommand, --out and --seed
    (which has its own field), with `config` laid over it. `resources` holds
    the command's minor page faults and the process's peak RSS in MB
    (ru_maxrss, which Linux counts in KiB); like the durations, they are
    never part of a payload.
    """
    parsed = {k: v for k, v in vars(args).items() if k not in ("command", "out", "seed")}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "subcommand": args.command,
        "config": {**parsed, **(config or {})},
        "seed": args.seed,
        "version": __version__,
        "input_digests": digests or {},
        "duration_seconds": time.perf_counter() - started,
        "resources": {"minor_page_faults": usage.ru_minflt - faults,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0},
        **telemetry,
    }
    _write_file(args.out + ".manifest.json", _json_blocks(manifest))


def _parse_dims(text: str) -> TensorStructure:
    parts = text.split(",")
    if len(parts) != 4:
        raise RejectedInputError(f"--dims wants dW,dS,dB,dA (4 integers), got {text!r}")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise RejectedInputError(f"--dims entries must be integers, got {text!r}") from None
    return TensorStructure.from_dims(dims)


_g17 = "%.17g".__mod__  # a float's CSV text; a bound C method, called once per value


@functools.cache
def _helpers(count: int) -> ThreadPoolExecutor:
    """`count` helper threads for `_map_ordered`, started on first use and kept for the process."""
    return ThreadPoolExecutor(max_workers=count)


# a forked child has none of its parent's threads: it starts its own helpers
if hasattr(os, "register_at_fork"):  # not on Windows, which does not fork
    os.register_at_fork(after_in_child=_helpers.cache_clear)


# The verify pool pays at D = 64 with single-threaded BLAS, which is how the
# benchmark runs it (OPENBLAS_NUM_THREADS=1). On 2 cores (numpy 2.4.6,
# OpenBLAS 0.3.31), `verify --dims 2,2,4,4 --ensemble ginibre --rank 4
# --trials 60`, four chunks of 15 rows, medians of 40 commands in one
# process at each --threads value, six interleaved runs:
# - the chunks (manifest stage_seconds "chunks") took 12.8-18.7 ms on
#   1 thread and 9.0-12.0 ms on 2, though their summed draw and kernel time
#   rose from 12.7-18.5 ms to 16.6-22.6 ms: a chunk costs more on two
#   threads than on one, so fewer chunks (moments.BATCH_ENTRIES) gain more
#   on two, where eight 8-row chunks took 10.7-13.7 ms and summed
#   20.3-25.9 ms;
# - with the caller taking chunks and the helpers and Workspaces kept for the
#   process, the benchmark's sweep-wide read 2,763 items/s (quartiles
#   2,689-2,804) against 2,555 (2,523-2,620) with a new pool per command and
#   an idle caller (10 pairs of 8 s runs, seeds 11-20), and 2,290-2,410 with
#   no pool (8 s runs, seeds 1-4); a repeated command faults in 0 pages on
#   2 threads, against 812 with the new pool.
# Threaded BLAS competes with the pool, so measure it with BLAS on one thread.
def _map_ordered(fn, items, threads: int) -> list:
    """[fn(item) for item in items], run on the calling thread and `threads - 1` helpers.

    Each thread takes the next item's index until none is left or an item
    has failed. The failure of the lowest index is raised once no item is
    running: every item below it was handed out first, so it is the error
    of the earliest failing item.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results, failures = [None] * len(items), []
    lock, order = threading.Lock(), iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as err:  # raised below, once no item is running
                failures.append((i, err))

    helpers = [_helpers(threads - 1).submit(work) for _ in range(min(threads, len(items)) - 1)]
    work()
    for helper in helpers:
        helper.result()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


# ---------------------------------------------------------------- verify

def _trial_chunks(trials: int, dim: int, width: int) -> list[range]:
    """Consecutive ranges of `batch_rows(dim, width)` trials, `width` the widest factor drawn."""
    size = batch_rows(dim, width)
    return [range(a, min(a + size, trials)) for a in range(0, trials, size)]


class _Offers:
    """The least offer of a trial to report that verify's chunks make, from any thread.

    An offer is (key, trial, rows), rows a function that returns copies of
    the trial's drawn (Q, F, V); it runs only for an offer that is the least
    so far. A failed trial's key (0, trial) ranks before any clean trial's. A
    clean trial's key is (1, 0, trial) for a NaN slack, which np.argmin ranks
    first, else (1, 1, slack, trial). No two trials share a key, so the least
    offer does not depend on the order in which the chunks finish.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.least = None  # (key, trial, (Q, F, V))

    def offer(self, key: tuple, trial: int, rows) -> None:
        with self._lock:
            if self.least is None or key < self.least[0]:
                self.least = (key, trial, rows())


# each thread's Workspace, kept for the life of the process
_WORKSPACES = threading.local()


def _verify_chunk(structure: TensorStructure, kind: str, seed: int, rank, offers: _Offers,
                  trials: range) -> tuple:
    """Draw the chunk's trials as factor stacks, one per state kind, then verify each in one batch.

    The draws' factors passed `factor_stack`'s checks, and F and V are
    exactly Hermitian by construction with finite entries checked, so the
    kernel takes them as they are. Returns the kinds, each row's first
    failed check, an (N, 15) array of the values in TRIAL_COLUMNS after
    "trial" and "kind", and the seconds spent drawing and in the kernel.
    The chunk offers `offers` its first failed trial, else its clean trial
    of least slack (np.argmin's: the first of equal slacks). The stacks are
    drawn into the running thread's `Workspace` in _WORKSPACES, which its
    later chunks, of this command and of later ones, reuse, and the kernel
    writes each kind's dV in turn into the draw's normals array, which
    holds at least V's floats: nothing the chunk returns or offers is a
    view of them.
    """
    started = time.perf_counter()
    if not hasattr(_WORKSPACES, "workspace"):
        _WORKSPACES.workspace = Workspace()
    workspace = _WORKSPACES.workspace
    groups, kinds = draw_batch(structure, kind, seed, trials, rank, workspace=workspace)
    drawn = time.perf_counter()
    errors, values = [None] * len(kinds), np.empty((len(kinds), len(TRIAL_COLUMNS) - 2))
    for rows, q, f, v in groups:
        batch = _verify_checked(q, f, v, structure, workspace("normals", v.shape, complex))
        m = batch.moments
        named = {**m._asdict(), **batch._asdict(), "cov_re": m.cov.real, "cov_im": m.cov.imag}
        values[rows] = np.stack([named[k] for k in TRIAL_COLUMNS[2:]], axis=1)
        for k, err in zip(rows, batch.errors):
            errors[k] = err
    checked = time.perf_counter()
    failed = [k for k, err in enumerate(errors) if err is not None]
    k = failed[0] if failed else int(np.argmin(values[:, _SLACK]))
    slack, trial = float(values[k, _SLACK]), trials[k]
    key = (0, trial) if failed else (1, 0, trial) if math.isnan(slack) else (1, 1, slack, trial)
    for rows, *stacks in groups:
        if k in rows:
            j = rows.index(k)
            offers.offer(key, trial, lambda: tuple(stack[j].copy() for stack in stacks))
    return kinds, errors, values, (drawn - started, checked - drawn)


# The trials CSV is formatted and written a block of rows at a time. Peak RSS
# of `verify --dims 2,1,1,1 --trials 100000` (numpy 2.4.6, Python 3.11):
# 78 MB without the CSV, 171 MB with the whole table formatted before it was
# written, 81 MB in blocks of 4,096 rows.
_CSV_BLOCK_ROWS = 4096


def _trial_csv(trials: list, kinds: list, rows: np.ndarray):
    """The trials CSV, header first, as byte blocks of _CSV_BLOCK_ROWS rows each.

    `trials` are the clean trials, `rows` their values after "trial" and
    "kind", each formatted by `_g17`.
    """
    yield (",".join(TRIAL_COLUMNS) + "\n").encode()
    for a in range(0, len(trials), _CSV_BLOCK_ROWS):
        block = zip(trials[a : a + _CSV_BLOCK_ROWS], rows[a : a + _CSV_BLOCK_ROWS].tolist())
        yield "".join([",".join([str(trial), kinds[trial], *map(_g17, row)]) + "\n"
                       for trial, row in block]).encode()


def cmd_verify(args) -> int:
    structure = _parse_dims(args.dims)
    if args.trials < 0:
        raise RejectedInputError(f"--trials must be non-negative, got {args.trials}")
    if args.rank is not None and not 1 <= args.rank <= structure.dim:
        raise RejectedInputError(
            f"--rank must be in [1, {structure.dim}] for these dims, got {args.rank}"
        )
    SeedSpec(args.seed)  # rejects a bad seed even when no trial draws with it
    kind = ENSEMBLES[args.ensemble]
    started, faults = _start()
    offers = _Offers()
    width = 1 if kind == "haar" else args.rank or structure.dim  # the widest factor drawn
    trials = _trial_chunks(args.trials, structure.dim, width)
    one = functools.partial(_verify_chunk, structure, kind, args.seed, args.rank, offers)
    chunks = _map_ordered(one, trials, args.threads)
    pooled = time.perf_counter()
    kinds, errors, values = [], [], [np.empty((0, len(TRIAL_COLUMNS) - 2))]
    for chunk in chunks:
        kinds += chunk[0]
        errors += chunk[1]
        values.append(chunk[2])
    draw, kernel = sum((np.array(chunk[3]) for chunk in chunks), np.zeros(2)).tolist()
    for err in errors:
        if err is not None and not isinstance(err, NumericalIntegrityError):
            raise err
    clean = np.flatnonzero([err is None for err in errors])
    rows = np.concatenate(values)[clean]
    column = dict(zip(TRIAL_COLUMNS[2:], rows.T))
    violations = len(errors) - len(clean)
    summary = {
        "trials": args.trials,
        "violations": violations,
        "max_power_sq": None,
        "min_slack": None,
        "mean_saturation_ratio": None,
        "worst_case": None,
    }
    if len(clean):
        least = int(np.argmin(column["slack"]))  # the first of equal slacks: the least trial
        summary["max_power_sq"] = float(column["power_sq"].max())
        summary["min_slack"] = float(column["slack"][least])
        summary["mean_saturation_ratio"] = math.fsum(column["saturation_ratio"].tolist()) / len(clean)
    if errors:
        # the least offer: the first failed trial, else the clean trial of least
        # slack, with the rows its chunk drew, which are draw_instance's bits, as
        # a draw depends only on (seed, trial)
        _, worst, (q, f, v) = offers.least
        case = ({"violation": str(errors[worst])} if violations
                else {"report": dict(zip(REPORT_FIELDS, rows[worst].tolist()))})
        instance = {"rho": DensityMatrix.from_factor(q), "f": HermitianOperator.wrap_checked(f),
                    "v": HermitianOperator.wrap_checked(v)}
        case.update({"instance": instance} if violations else instance)
        summary["worst_case"] = {"trial": worst, "kind": kinds[worst], **case}

    _write_file(args.out, _json_blocks(summary))
    if args.format == "csv":
        _write_file(args.out + ".trials.csv", _trial_csv(clean.tolist(), kinds, rows))
    # draw and kernel: each chunk's seconds in draw_batch and in the kernel, summed over chunks
    stages = {"chunks": pooled - started, "draw": draw, "kernel": kernel,
              "report": time.perf_counter() - pooled}

    _write_manifest(args, started, faults, stage_seconds=stages,
                    chunking={"rows": batch_rows(structure.dim, width), "count": len(trials)})

    print(f"verify: {args.trials} trials, {violations} violations -> {args.out}")
    return 0 if not violations else 1


# ---------------------------------------------------------------- evolve

def cmd_evolve(args) -> int:
    started, faults = _start()
    path = Path(args.config)
    if args.config == "exchange" and not path.exists():
        source, doc, digests = "builtin:exchange", builtin_exchange_scenario(), {}
    else:
        data = path.read_bytes()  # an OSError exits 2 in main
        source = str(path)
        digests = {source: "sha256:" + hashlib.sha256(data).hexdigest()}
        try:
            doc = json.loads(data)
        except ValueError as exc:  # not JSON, or not UTF-8, -16 or -32 text
            raise ScenarioError(f"config: not valid JSON: {exc}") from None
    trajectory = trajectory_report(*parse_scenario(doc))

    if args.format == "json":
        columns = trajectory.columns()
        payload = _json_blocks([dict(zip(TRAJECTORY_COLUMNS, values)) for values in zip(*columns)])
    else:
        lines = [",".join(TRAJECTORY_COLUMNS)]
        lines.extend(_trajectory_lines(trajectory))
        payload = ("\n".join(lines) + "\n").encode()
    _write_file(args.out, payload)

    _write_manifest(args, started, faults, digests, {"config": source}, power_tracks_dfdt=trajectory.power_tracks_dfdt)

    max_power = float(np.abs(trajectory.report.power).max())
    min_purity = float(trajectory.battery_purity.min())
    print(
        f"evolve: {len(trajectory.t)} points, max |power| = {max_power:.6g}, "
        f"min battery purity = {min_purity:.6g} -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------- search

def cmd_search(args) -> int:
    structure = _parse_dims(args.dims)
    started, faults = _start()
    thresholds = SearchThresholds(
        min_var_f=args.min_var_f,
        min_abs_cov=args.min_abs_cov,
        max_abs_power=args.max_abs_power,
        require_entangled=args.require_entangled,
    )
    config = SearchConfig(
        structure=structure,
        mode=args.mode,
        thresholds=thresholds,
        budget=args.budget,
        seed=SeedSpec(args.seed),
        restarts=args.restarts,
    )
    if args.mode == "zero-power":
        result = find_zero_power(config)
    else:
        result = find_saturating(config)

    searched = time.perf_counter()
    _write_file(args.out, _json_blocks(result.to_dict()))
    # the search's "report" stage is its final chain and the payload's write
    stages = {**result.stage_seconds}
    stages["report"] += time.perf_counter() - searched
    _write_manifest(args, started, faults, restarts=result.restarts, kernel_calls=result.kernel_calls,
                    lookahead=result.lookahead, rows_scored=result.rows_scored, stage_seconds=stages)

    status = "succeeded" if result.succeeded else "exhausted budget"
    print(
        f"search[{args.mode}]: {status} after {result.evaluations} evaluations, "
        f"objective {result.objective:.6g} -> {args.out}"
    )
    return 0 if result.succeeded else 1


# ---------------------------------------------------------------- demo

_SIGMA_X = [[0.0, 1.0], [1.0, 0.0]]
_SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]


def _demo_eigenstate(seed: int):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    spec = SeedSpec(seed)
    f = HermitianOperator(np.array(_SIGMA_Z, dtype=complex))
    rest = haar_pure(s.env_dim, spec.stream(0))
    rho = battery_eigenstate_product(f, 0, rest, s).state
    v = gue_hermitian(s.dim, 1.0, spec.stream(1))
    checks = [
        ("power is 0 within 1e-10", lambda rep, mom: abs(rep.power) <= 1e-10),
        ("var_f is 0 within 1e-10", lambda rep, mom: mom.var_f <= 1e-10),
        ("|cov| is 0 within 1e-10", lambda rep, mom: abs(mom.cov) <= 1e-10),
        ("saturation ratio defined as 0", lambda rep, mom: rep.saturation_ratio == 0.0),
    ]
    return s, rho, f, v, checks


def _demo_saturating(seed: int):
    s = TensorStructure.from_dims([2, 1, 1, 1])
    rho = DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    f = HermitianOperator(np.array(_SIGMA_Z, dtype=complex))
    v = HermitianOperator(np.array(_SIGMA_X, dtype=complex))
    checks = [
        ("power equals 2 within 1e-9", lambda rep, mom: abs(rep.power - 2.0) <= 1e-9),
        ("corrected bound equals 4 within 1e-9", lambda rep, mom: abs(rep.corrected_bound - 4.0) <= 1e-9),
        ("saturation ratio equals 1 within 1e-9", lambda rep, mom: abs(rep.saturation_ratio - 1.0) <= 1e-9),
        ("corrected bound does not exceed the loose bound", lambda rep, mom: rep.corrected_bound <= rep.loose_bound + 1e-12),
    ]
    return s, rho, f, v, checks


def _demo_real_cov(seed: int):
    s = TensorStructure.from_dims([2, 1, 1, 1])
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    f = HermitianOperator(np.array(_SIGMA_Z, dtype=complex))
    v = HermitianOperator(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
    checks = [
        ("power equals 0 within 1e-12", lambda rep, mom: abs(rep.power) <= 1e-12),
        ("var_f equals 0.75 within 1e-12", lambda rep, mom: abs(mom.var_f - 0.75) <= 1e-12),
        ("cov equals 0.75 within 1e-12", lambda rep, mom: abs(mom.cov - 0.75) <= 1e-12),
        ("corrected bound equals 1.5 within 1e-12", lambda rep, mom: abs(rep.corrected_bound - 1.5) <= 1e-12),
        ("slack equals 1.5 within 1e-12", lambda rep, mom: abs(rep.slack - 1.5) <= 1e-12),
    ]
    return s, rho, f, v, checks


_DEMO_CASES = {
    "eigenstate": _demo_eigenstate,
    "saturating": _demo_saturating,
    "real-cov": _demo_real_cov,
}


def cmd_demo(args) -> int:
    started, faults = _start()
    s, rho, f, v, checks = _DEMO_CASES[args.case](args.seed)
    batch = _one_instance(_chain_stage, rho, f, v, s)
    report, moments = batch.row(0), batch.moments.row(0)
    results = [(name, bool(fn(report, moments))) for name, fn in checks]
    all_passed = all(ok for _, ok in results)

    doc = {
        "case": args.case,
        "report": report.to_dict(),
        "moments": moments.to_dict(),
        "battery_purity": float(batch.moments.purity_w[0]),
        "checks": [{"name": name, "passed": ok} for name, ok in results],
        "passed": all_passed,
    }
    payload = _json_bytes(doc)
    if args.format == "json":
        sys.stdout.write(payload.decode())
    else:
        print(f"demo case: {args.case}")
        for key in ("power", "power_sq", "corrected_bound", "loose_bound", "slack", "saturation_ratio"):
            print(f"  {key:<18} = {_g17(report.to_dict()[key])}")
        m = moments.to_dict()
        print(f"  {'var_f':<18} = {_g17(m['var_f'])}")
        print(f"  {'var_v':<18} = {_g17(m['var_v'])}")
        print(f"  {'cov':<18} = {_g17(m['cov']['re'])} + {_g17(m['cov']['im'])}i")
        for name, ok in results:
            print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        print(f"result: {'PASS' if all_passed else 'FAIL'}")
    if args.out:
        _write_file(args.out, payload)
        _write_manifest(args, started, faults)
    return 0 if all_passed else 1


# ---------------------------------------------------------------- wiring

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_common(sp, out_required: bool = True, formats=("json", "csv"), default_format="json",
                seed_help="master seed (default 42)", threads_help="worker threads (default 1)"):
    sp.add_argument("--seed", type=int, default=42, help=seed_help)
    sp.add_argument("--threads", type=_positive_int, default=1, help=threads_help)
    if out_required:
        sp.add_argument("--out", required=True, help="output payload path")
    else:
        sp.add_argument("--out", default=None, help="optional output payload path")
    sp.add_argument("--format", choices=formats, default=default_format,
                    help=f"payload format (default {default_format})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as it was."""
    p = argparse.ArgumentParser(
        prog="qbattery",
        description="Charging-power bound verification, dynamics, and counterexample search.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="Monte Carlo sweep of the power bound and identities")
    sp.add_argument("--dims", required=True, help="tensor dims dW,dS,dB,dA, e.g. 2,2,1,1")
    sp.add_argument("--trials", type=int, default=1000, help="number of seeded trials")
    sp.add_argument("--ensemble", choices=sorted(ENSEMBLES), default="gue-ops",
                    help="state ensemble; operators are always GUE (default gue-ops)")
    sp.add_argument("--rank", type=int, default=None, help="Ginibre state rank (default full)")
    _add_common(sp)

    sp = sub.add_parser("evolve", help="integrate a scenario and write the trajectory table")
    sp.add_argument("--config", required=True,
                    help="scenario JSON path, or 'exchange' for the built-in model")
    ignored = "accepted and ignored: draws nothing, runs on one thread"
    _add_common(sp, formats=("csv", "json"), default_format="csv",
                seed_help=ignored, threads_help=ignored)

    sp = sub.add_parser("search", help="optimize for zero-power or bound-saturating instances")
    sp.add_argument("--mode", required=True, choices=["zero-power", "saturation"])
    sp.add_argument("--dims", required=True, help="tensor dims dW,dS,dB,dA")
    sp.add_argument("--min-var-f", type=float, default=0.0, dest="min_var_f")
    sp.add_argument("--min-abs-cov", type=float, default=0.0, dest="min_abs_cov")
    sp.add_argument("--max-abs-power", type=float, default=1e-8, dest="max_abs_power")
    sp.add_argument("--require-entangled", action="store_true", dest="require_entangled")
    sp.add_argument("--budget", type=int, default=100_000, help="max objective evaluations")
    sp.add_argument("--restarts", type=int, default=8)
    _add_common(sp, formats=("json",),
                threads_help="accepted and ignored: restarts run in lockstep on one thread")

    sp = sub.add_parser("demo", help="run a built-in worked case with pass/fail checks")
    sp.add_argument("--case", required=True, choices=sorted(_DEMO_CASES))
    _add_common(sp, out_required=False, formats=("text", "json"), default_format="text",
                seed_help="master seed (default 42); only the eigenstate case draws, "
                          "its environment state and V",
                threads_help="accepted and ignored: each case is one instance on one thread")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # looked up when it runs, not when the cached parser was built, so that
    # a cmd_* function patched later (bench/tracer.py wraps them) is the one called
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except (RejectedInputError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"claim falsified: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
