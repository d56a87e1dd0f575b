"""Command-line surface: simulate, compare, resonance, ensemble,
reproduce-figure, order-check.

Time series go to CSV (17 significant digits, round-trip exact for
doubles: the bytes of ``"%.17g" % v``, formatted by numpy in blocks of
rows), structured results to JSON, and every run writes a manifest with
the digest of its resolved settings so reruns can be checked byte for byte.
Exit codes: 0 ok, 2 usage/config error, 3 numerical failure; a run that
fails writes nothing, not even its ``--out`` directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import (PRESETS, ConfigError, build_compare, build_ensemble, build_initial,
                     build_params, build_scenario, load_config, preset_path,
                     resolve_config_path, run_digest)
from .experiments import (EnsembleFailure, compare_full_vs_averaged, full_field, run_ensemble,
                          run_scenario, stabilization_time)
from .integrate import IntegrationError, order_check
from .resonance import SYSTEM_OMEGA, resonance_for
from .transforms import mode_actions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


_CSV_CHUNK = 1024  # rows (samples) per write: memory for the text stays fixed as they grow


def _words(byte_rows):
    """Rows of 8*m bytes as m rows of uint64 words, each word read little-endian."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view("<u8").astype(np.uint64).T.copy()


# The tables of _csv_lines. It writes each value into a slot of four
# little-endian words, 32 bytes, whose NUL bytes are padding:
#   bytes 0-5    the sign, then "0." and up to three zeros when -4 <= E < 0;
#   bytes 6-23   the 17 digits and the dot: digit j at byte 7 + j, except that
#                the q digits before the dot sit one byte lower, so the dot
#                takes byte 6 + q;
#   bytes 24-27  "e-05" or "e-06" when E < -4;
#   bytes 28-29  "," or "\r\n".
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's split of a 53-bit double into two 26-bit halves
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_A, _B, _C, _D = np.ix_(*[np.arange(10, dtype=np.uint64)] * 4)  # g = 1000a + 100b + 10c + d
_GROUP_TEXT = (_A + 48 | _B + 48 << 8 | _C + 48 << 16 | _D + 48 << 24).ravel()  # g's 4 digits
_GROUP_ZEROS = ((_D == 0) * (1 + (_C == 0) * (1 + (_B == 0) * (1 + (_A == 0))))).ravel()
_BYTE = np.arange(24)
_KEEP = _words(np.where((_BYTE >= 7) & (_BYTE < 7 + np.arange(18)[:, None]), 0xFF, 0))  # t digits
_DOT = _words(np.where((_BYTE == 6 + np.arange(17)[:, None]) & (_BYTE > 6), 46, 0))  # after q
# per decimal exponent E = -6..15, at index E + 6
_E = np.arange(-6, 16)
_BEFORE_DOT = np.where(_E >= 0, _E + 1, np.where(_E < -4, 1, 0))
_PREFIX_LEN = np.where((_E >= -4) & (_E < 0), 1 - _E, 0)  # "0." and -1 - E zeros
_SIGN_PREFIX = _words(np.concatenate([  # index E + 6, and E + 28 for a negative value
    np.where((_BYTE[:8] >= 1) & (_BYTE[:8] <= _PREFIX_LEN[:, None]) | (_BYTE[:8] == 0) & negative,
             np.frombuffer(b"-0.000\0\0", np.uint8), 0)
    for negative in (False, True)]))[0]
_SUFFIX = _words(np.where(_E[:, None] < -4, np.frombuffer(b"e-00\0\0\0\0", np.uint8)
                          + (_BYTE[:8] == 3) * -_E[:, None], 0))[0]


class _CsvBuffers:
    """The working memory of ``_csv_lines`` for blocks of up to ``rows`` rows
    of ``cols`` values, made once per file and reused by every block, so that
    a long file does not fault in fresh pages for each block. ``f``, ``i``
    and ``u`` are one pool of eleven rows of ``rows * cols`` 8-byte words, read
    as float64, int64 and uint64; each step of a block writes into a row."""

    def __init__(self, rows, cols):
        self.values = np.empty((rows, cols))
        self.f = np.empty((11, rows * cols))
        self.i, self.u = self.f.view(np.int64), self.f.view(np.uint64)
        self.mask = np.empty((3, rows * cols), bool)
        self.text = bytearray(32 * rows * cols)  # the slots, which translate reads in place
        self.slot = np.frombuffer(self.text, "<u8").reshape(rows, cols, 4)
        self.ends = np.full(cols, ord(",") << 32, np.uint64)  # each column's separator
        self.ends[-1] = 0x0A0D << 32  # "\r\n"


def _significands(v, buf):
    """For each value: whether its 17 significant digits are found here, the
    index E + 6 of its decimal exponent E and the digits as an integer. They
    are mask 0 and int rows 2 and 0 of ``buf``; rows 0-6 and mask 1 are
    overwritten. Where the digits are not found, the index and the digits
    are finite, and the tables' lookups clip the index into range; the
    slot's bytes before its separator are overwritten by ``%.17g``.

    That holds for 1e-6 <= |v| < 1e16. The digits are round(|v| 10**k),
    k = 16 - E <= 22. 10**k is an exact double, and Dekker's product gives
    |v| 10**k = hi + lo exactly; above 2**53 hi is an even integer, so
    rounding lo half to even rounds hi + lo as ``%.17g`` does. A log10 off by
    one at a power of ten leaves hi outside (1e16, 1e17): not found here.
    """
    f, i = buf.f[:, :len(v)], buf.i[:, :len(v)]
    fast, other = buf.mask[:2, :len(v)]
    a, hi, e, k, c, p_hi, p_lo, lo = f[0], f[1], i[2], i[3], f[3], f[4], f[5], f[6]
    np.abs(v, out=a)
    np.greater_equal(a, 1e-6, out=fast)
    fast &= np.less(a, 1e16, out=other)
    np.putmask(a, np.logical_not(fast, out=other), 1.0)  # no log10 of 0, nan or inf
    np.floor(np.log10(a, out=hi), out=e, casting="unsafe")
    np.minimum(np.subtract(16, e, out=k), 22, out=k)
    np.multiply(a, _POW10.take(k, out=lo, mode="clip"), out=hi)
    _POW10_HI.take(k, out=p_hi, mode="clip")
    _POW10_LO.take(k, out=p_lo, mode="clip")
    np.multiply(_SPLIT, a, out=c)  # into k's row: the lookups by k are done
    a_hi = np.subtract(c, np.subtract(c, a, out=lo), out=c)
    a_lo = np.subtract(a, a_hi, out=a)
    np.multiply(a_hi, p_hi, out=lo)
    lo -= hi
    lo += np.multiply(a_hi, p_lo, out=a_hi)
    lo += np.multiply(a_lo, p_hi, out=p_hi)
    lo += np.multiply(a_lo, p_lo, out=p_lo)
    fast &= np.greater(hi, 1e16, out=other)
    fast &= np.less(hi, 1e17, out=other)
    sig = i[0]  # a_lo's row
    np.copyto(sig, hi, casting="unsafe")
    sig += np.rint(lo, out=i[3], casting="unsafe")
    e += 6
    return fast, e, sig


def _eight_digits(n, text, zeros, high, mask):
    """The 8 digits of each n < 10**8 as ASCII bytes in a word, first digit
    lowest, into ``text``, and the count of its trailing zero digits into
    ``zeros``; n, ``high`` and ``mask`` are overwritten."""
    np.floor_divide(n, 10 ** 4, out=high)
    low = np.subtract(n, np.multiply(high, 10 ** 4, out=zeros), out=n)
    _GROUP_ZEROS.take(low, out=zeros, mode="clip")
    text = text.view(np.uint64)
    np.left_shift(_GROUP_TEXT.take(low, out=text, mode="clip"), 32, out=text)
    text |= _GROUP_TEXT.take(high, out=n.view(np.uint64), mode="clip")
    zeros += np.multiply(_GROUP_ZEROS.take(high, out=n, mode="clip"),
                         np.equal(zeros, 4, out=mask), out=n)


def _digit_words(sig, i, buf, out):
    """The digits and the dot of each value whose ``_significands`` are
    ``sig`` and ``i`` (int rows 0 and 2 of ``buf``), as words 0-2 of its
    slot (see the tables above), into ``out``, a (3, values) view of the
    slots: trailing zeros after the dot dropped, and the dot too when no
    digit follows it. Rows 0, 1 and 3-10 and masks 1 and 2 of ``buf`` are
    overwritten."""
    n, u = buf.i[:, :len(sig)], buf.u[:, :len(sig)]
    mask = buf.mask[1:, :len(sig)]
    w = u[8:11]
    lead = np.floor_divide(sig, 10 ** 16, out=n[3])
    np.left_shift(np.add(lead, 48, out=n[8]).view(np.uint64), 56, out=w[0])
    sig -= np.multiply(lead, 10 ** 16, out=lead)
    halves, zeros = n[3:5], n[5:7]  # the next 8 digits, and the last 8
    np.floor_divide(sig, 10 ** 8, out=halves[0])
    np.subtract(sig, np.multiply(halves[0], 10 ** 8, out=halves[1]), out=halves[1])
    _eight_digits(halves, n[9:11], zeros, n[0:2], mask)
    q = _BEFORE_DOT.take(i, out=n[0], mode="clip")
    t = zeros[1]  # the digits written: 17 less the trailing zeros, at least q
    zeros[0] *= np.equal(zeros[1], 8, out=mask[0])
    np.subtract(17, zeros[1], out=t)
    t -= zeros[0]
    np.maximum(t, q, out=t)
    w[1:] &= _KEEP[1:].take(t, axis=1, out=u[3:5], mode="clip")
    # the q digits before the dot move one byte down, across a word's end too
    low = _KEEP.take(q, axis=1, out=u[3:6], mode="clip")
    dot = q
    dot *= np.greater(t, q, out=mask[0])  # no dot before nothing, nor after "0."
    low &= w
    w ^= low
    w[:2] |= np.left_shift(low[1:], 56, out=u[6:8])
    w |= np.right_shift(low, 8, out=low)
    np.bitwise_or(w, _DOT.take(dot, axis=1, out=low, mode="clip"), out=out)


def _csv_lines(block, buf):
    """The CSV lines of a (rows, cols) float64 block, a view of
    ``buf.values``: every value as the bytes of ``"%.17g" % v``, comma
    separated, each line ended by CRLF. A value whose digits
    ``_significands`` does not find (zeros, subnormals, nan, inf, the range
    outside) is formatted by ``%.17g`` itself."""
    rows, cols = block.shape
    v = block.ravel()
    fast, i, sig = _significands(v, buf)
    slot = buf.slot[:rows]
    words = slot.reshape(-1, 4)
    scratch, negative = buf.u[1, :len(v)], buf.mask[1, :len(v)]
    np.bitwise_or(_SUFFIX.take(i, out=scratch, mode="clip").reshape(rows, cols), buf.ends,
                  out=slot[:, :, 3])
    _digit_words(sig, i, buf, words[:, :3].T)
    i += np.multiply(np.less(v, 0, out=negative), 22, out=buf.i[1, :len(v)])
    words[:, 0] |= _SIGN_PREFIX.take(i, out=scratch, mode="clip")
    if not fast.all():
        slow = np.flatnonzero(np.logical_not(fast, out=negative))
        text = np.array([b"%.17g" % x for x in v[slow].tolist()], dtype="S28")
        words.view(np.uint8)[slow, :28] = text.view(np.uint8).reshape(-1, 28)  # all but "," or "\r\n"
    buf.slot[rows:] = 0  # a short last block's unused slots: NUL, so the text leaves them out
    return buf.text.translate(None, b"\0")


def _write_csv(path: Path, header, columns):
    """Write equal-length columns (arrays or sequences of floats) as CSV: a
    header line, then one row per sample with every value as ``%.17g``, comma
    separated, CRLF line ends, nothing quoted (the bytes ``csv.writer`` gives
    for these rows). Each block of ``_CSV_CHUNK`` rows is copied as float64
    into one ``_CsvBuffers`` made for the file, formatted by ``_csv_lines``
    and written as bytes."""
    rows = len(columns[0])
    buf = _CsvBuffers(min(rows, _CSV_CHUNK), len(columns))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, rows, _CSV_CHUNK):
            block = buf.values[:min(_CSV_CHUNK, rows - start)]
            for k, c in enumerate(columns):
                block[:, k] = c[start:start + _CSV_CHUNK]
            fh.write(_csv_lines(block, buf))


def _json_floats(values):
    """The bytes of ``json.dumps`` of ``values`` as a list of floats (each
    written as its shortest ``repr``), made in blocks of ``_CSV_CHUNK``."""
    values = np.asarray(values, dtype=float)
    yield b"["
    for start in range(0, len(values), _CSV_CHUNK):
        text = json.dumps(values[start:start + _CSV_CHUNK].tolist())[1:-1]
        yield (", " + text if start else text).encode()
    yield b"]"


def _json_count_rows(block, last):
    """The rows of a (rows, cols) block of non-negative integers, cols >= 1,
    as ``json.dumps`` writes them inside a list of lists: ``1, 20], [0, 3], [``,
    or ``1, 20], [0, 3]]`` for the ``last`` block.

    Each count takes a slot of ``width + 2`` bytes: its digits right-aligned,
    then ", " (or "]," after a row's last count); one more slot per row
    holds the " [" that opens the next row. The digits come from
    floor division by 10, one pass per digit position, and the NUL padding
    goes in one pass before the bytes are returned."""
    rows, cols = block.shape
    top = block.max()
    width = len(str(top))
    row = np.zeros((cols + 1, width + 2), np.uint8)
    row[:-2, width:] = np.frombuffer(b", ", np.uint8)
    row[-2, width:] = np.frombuffer(b"],", np.uint8)
    row[-1, :2] = np.frombuffer(b" [", np.uint8)
    slot = np.repeat(row[None], rows, axis=0)
    rest = block.astype(np.min_scalar_type(top))
    for k in range(width):  # the k-th digit from the right, NUL where it leads with a zero
        quotient = rest // 10
        digit = rest - quotient * 10 + 48
        if k:
            digit *= rest > 0
        slot[:, :cols, width - 1 - k] = digit
        rest = quotient
    if last:
        slot[-1, -2, width:] = np.frombuffer(b"]]", np.uint8)
        slot[-1, -1] = 0
    return slot.tobytes().translate(None, b"\0")


def _json_counts(counts):
    """The bytes of ``json.dumps(counts.tolist())`` for a (samples, bins)
    array of non-negative integers, made in blocks of ``_CSV_CHUNK`` samples."""
    samples = len(counts)
    if samples == 0:
        yield b"[]"
        return
    yield b"[["
    for start in range(0, samples, _CSV_CHUNK):
        yield _json_count_rows(counts[start:start + _CSV_CHUNK], start + _CSV_CHUNK >= samples)


def _write_histograms(path: Path, arrays):
    """Write ``arrays``, a dict of 1-D float arrays and 2-D arrays of counts,
    as the bytes of ``json.dumps({k: v.tolist()}, sort_keys=True) + "\\n"``,
    one block of samples at a time."""
    with open(path, "wb") as fh:
        fh.write(b"{")
        for k, key in enumerate(sorted(arrays)):
            value = arrays[key]
            fh.write(b'%s"%s": ' % (b", " if k else b"", key.encode()))
            fh.writelines(_json_counts(value) if np.ndim(value) == 2 else _json_floats(value))
        fh.write(b"}\n")


def _make_outdir(path: str) -> Path:
    """Create the output directory and its parents, or raise ConfigError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return Path(path)


def _write_manifest(outdir: Path, command: str, digest: str, outputs, seed=None,
                    wall_time=0.0, extra=None):
    manifest = {
        "command": command,
        "config_digest": digest,
        "seed": seed,
        "tool_version": __version__,
        "wall_time_s": round(wall_time, 3),
        "outputs": sorted(str(o) for o in outputs),
    }
    if extra:
        manifest.update(extra)
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _cmd_simulate(args) -> int:
    """``simulate CONFIG``, and ``reproduce-figure --which FIG``: the
    simulate run of the bundled preset FIG, written as the figure's
    columns and summary."""
    figure = args.which
    cfg = load_config(preset_path(figure) if figure else resolve_config_path(args.config))
    scenario = build_scenario(cfg, vars(args))
    digest = run_digest(scenario)
    start = time.perf_counter()
    traj = run_scenario(scenario)
    outdir = _make_outdir(args.out)
    e1, e2 = mode_actions(traj.states, scenario.params.omega)
    run_info = {"samples": len(traj.times), "integrator_stats": traj.stats}
    if figure is None:
        csv_path = outdir / "trajectory.csv"
        _write_csv(csv_path, ["t", "q1", "v1", "q2", "v2", "E1", "E2"],
                   [traj.times, *traj.states.T, e1, e2])
        _write_manifest(outdir, "simulate", digest, [csv_path.name],
                        wall_time=time.perf_counter() - start,
                        extra={"label": scenario.label, **run_info})
        return EXIT_OK
    csv_path = outdir / f"{figure}.csv"
    _write_csv(csv_path, ["t", "v1", "v2", "E1", "E2"],
               [traj.times, traj.states[:, 1], traj.states[:, 3], e1, e2])
    stab = stabilization_time(traj.times, e1, e2)
    summary = {"figure": figure, "E0": float(e1[0] + e2[0]),
               "stabilization_time": stab if math.isfinite(stab) else "never"}
    _write_manifest(outdir, "reproduce-figure", digest, [csv_path.name],
                    wall_time=time.perf_counter() - start, extra={**summary, **run_info})
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = load_config(resolve_config_path(args.config))
    run = build_compare(cfg, vars(args))
    digest = run_digest(run)
    rungs, initial, settings = run
    start = time.perf_counter()
    rows, stats = [], []
    for params in rungs:
        try:
            res = compare_full_vs_averaged(params, initial, **settings)
        except ValueError as exc:  # omega, resonance, initial data, window or tolerance rejected
            raise ConfigError(str(exc)) from exc
        rows.append((params.epsilon, res.sup_r1, res.sup_r2, res.sup_E1, res.sup_E2))
        stats.append({"epsilon": params.epsilon, "full": res.full_stats,
                      "averaged": res.averaged_stats})
    outdir = _make_outdir(args.out)
    csv_path = outdir / "compare.csv"
    _write_csv(csv_path, ["epsilon", "sup_r1", "sup_r2", "sup_E1", "sup_E2"],
               list(zip(*rows)))
    errs = [max(r[1], r[2]) for r in rows]
    exponent = "n/a"  # a log-log fit needs two distinct epsilons, each rung with a positive sup
    if len({r[0] for r in rows}) >= 2 and min(errs) > 0.0:
        exponent = float(np.polyfit(np.log([r[0] for r in rows]), np.log(errs), 1)[0])
    summary = {"scaling_exponent": exponent,
               "resonance": settings["resonance"], "window_L": settings["L"]}
    summary_path = outdir / "compare_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(outdir, "compare", digest, [csv_path.name, summary_path.name],
                    wall_time=time.perf_counter() - start,
                    extra={**summary, "integrator_stats": stats})
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_resonance(args) -> int:
    try:
        omega = float(args.omega)
        a1, a2 = Fraction(args.a1), Fraction(args.a2)
        e0 = Fraction(args.e0) if args.e0 else Fraction(1, 4)
        body = resonance_for(omega).report(a1, a2, e0)
    except (ValueError, ArithmeticError) as exc:  # also an exact value out of float range
        raise ConfigError(str(exc)) from exc
    report = {"omega": omega, "a1": str(a1), "a2": str(a2), **body}
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _failure_reasons(failures):
    """How many particles stopped for each reason: each failure message
    without its "(last good time t = ...)" suffix, mapped to its count."""
    reasons = {}
    for _, message in failures:
        reason = message.split(" (last good time t = ")[0]
        reasons[reason] = reasons.get(reason, 0) + 1
    return reasons


def _cmd_ensemble(args) -> int:
    cfg = load_config(resolve_config_path(args.config))
    spec = build_ensemble(cfg, vars(args))
    digest = run_digest(spec)
    start = time.perf_counter()
    report = run_ensemble(spec)
    outdir = _make_outdir(args.out)
    moments_path = outdir / "moments.csv"
    _write_csv(moments_path,
               ["t", "mean_v1", "disp_v1", "mean_v2", "disp_v2", "mean_E1", "mean_E2"],
               [report.times, report.mean_v1, report.disp_v1, report.mean_v2,
                report.disp_v2, report.mean_E1, report.mean_E2])
    hist_path = outdir / "histograms.json"
    _write_histograms(hist_path, {"times": report.times,
                                  "v1_edges": report.hist_edges_v1,
                                  "v2_edges": report.hist_edges_v2,
                                  "v1_counts": report.hist_v1,
                                  "v2_counts": report.hist_v2})
    _write_manifest(outdir, "ensemble", digest,
                    [moments_path.name, hist_path.name], seed=spec.seed,
                    wall_time=time.perf_counter() - start,
                    extra={"count": spec.count, "failures": len(report.failures),
                           "failed_particles": [[i, message] for i, message in report.failures],
                           "failure_reasons": _failure_reasons(report.failures),
                           "integrator_stats": report.stats})
    print(f"ensemble done: {report.count}/{spec.count} particles, "
          f"{len(report.failures)} failures")
    return EXIT_OK


def _cmd_order_check(args) -> int:
    cfg = load_config(preset_path("fig1"))
    params, initial = build_params(cfg), build_initial(cfg)
    try:
        steps = [float(s) for s in args.steps.split(",") if s.strip()]
        est = order_check(full_field(params), initial.as_array(),
                          initial.t, args.horizon, steps)
    except ValueError as exc:  # --steps or --horizon rejected
        raise ConfigError(str(exc)) from exc
    out = {"order": est.order, "saturated": est.saturated,
           "steps": list(est.step_sizes), "errors": list(est.errors)}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, without the usage text
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first :func:`main` call of a
    process, not at import, and reused by every later one: parsing reads
    it and changes nothing in it."""
    parser = _Parser(
        prog="symevol",
        description="Simulation laboratory for a two degrees-of-freedom cubic "
                    "oscillator whose symmetry-breaking terms decay slowly.",
        epilog="CSV columns are fixed per command (see each subcommand's help); "
               "numbers carry 17 significant digits.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings(p, *names):  # each flag given replaces the config's value
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=float, default=None)

    p = sub.add_parser("simulate", help="integrate a scenario config; writes "
                                        "trajectory.csv (t,q1,v1,q2,v2,E1,E2) + manifest")
    p.add_argument("config", help=f"config file or preset name ({', '.join(PRESETS)})")
    p.add_argument("--out", required=True)
    add_settings(p, "rtol", "atol", "sample_dt", "horizon")
    p.set_defaults(func=_cmd_simulate, which=None)

    p = sub.add_parser("compare", help="full vs averaged error table over an epsilon "
                                       "ladder from initial data off the normal modes; "
                                       "writes compare.csv + summary")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    systems = ", ".join(f"{name} at omega {w:g}" for name, w in SYSTEM_OMEGA.items())
    p.add_argument("--resonance", choices=tuple(SYSTEM_OMEGA), default=None,
                   help=f"averaged system of the config's omega ({systems}); replaces "
                        "[compare] resonance; default: the first one listed for that omega")
    p.add_argument("--eps-list", dest="eps_list", default=None,
                   help="comma-separated epsilons in (0, 1]; replaces [compare] "
                        "eps_list (default 0.1)")
    p.add_argument("--window", type=float, default=None,
                   help="compare over [0, window/epsilon]; replaces [compare] "
                        "window (default 1)")
    add_settings(p, "rtol", "atol")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("resonance", help="print the 1:2/1:3 manifold ratios, angles and "
                                         "exponents or the 1:1 classification (omega 2, "
                                         "3 or 1) as JSON, from a1, a2 and e0 only")
    p.add_argument("--omega", required=True)
    p.add_argument("--a1", default="1")
    p.add_argument("--a2", default="1")
    p.add_argument("--e0", default=None, help="energy level for the first-order "
                                              "1:2 manifold (default 1/4)")
    p.set_defaults(func=_cmd_resonance)

    p = sub.add_parser("ensemble", help="integrate an ensemble; writes moments.csv "
                                        "+ histograms.json + manifest")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    add_settings(p, "rtol", "atol", "sample_dt", "horizon")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("reproduce-figure", help="simulate a bundled preset and write "
                                                "its figure series (t,v1,v2,E1,E2)")
    p.add_argument("--which", choices=PRESETS, required=True)
    p.add_argument("--out", required=True)
    add_settings(p, "rtol", "sample_dt", "horizon")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("order-check", help="measure the fixed-step RK4 order "
                                           "on the fig1 preset's model and initial state")
    p.add_argument("--steps", default="0.2,0.1,0.05,0.025")
    p.add_argument("--horizon", type=float, default=10.0)
    p.set_defaults(func=_cmd_order_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # integrators report non-finite values once
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, EnsembleFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
