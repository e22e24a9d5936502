"""Output checks: every command's output must parse and be physically sound.

A trajectory table must carry the expected record count, end at ``t_final``,
keep ``norm_defect <= 1e-10`` on every row, agree with itself
(``r = atanh|alpha|``, ``mean_n = sinh(r)^2``, fingerprint ``z = r e^{i phi}``)
and, for fixed inputs, end on the recorded reference ``r``.  Oracle commands
must report fidelity >= 0.999.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re

from workloads import R_RTOL, Command, Output

NORM_DEFECT_MAX = 1e-10
FIDELITY_MIN = 0.999
# recomputing r, mean_n and z from 17-digit fields: relative 1e-9, absolute 1e-13 near r = 0
_RTOL, _ATOL = 1e-9, 1e-13

BASE_COLUMNS = ["t", "omega", "re_alpha", "im_alpha", "abs_alpha",
                "r", "vartheta", "phi", "variance", "mean_n", "norm_defect"]
COMPARE_COLUMNS = ["t", "r_a", "r_b", "r_diff"]
_FIDELITY = re.compile(r"oracle check passed: fidelity ([0-9.eE+-]+)")


def _close(a: float, b: float, rtol: float = _RTOL, atol: float = _ATOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def _read_csv(path: str):
    """(comment lines, header, row iterator) of a CSV the CLI wrote."""
    fh = open(path, newline="", encoding="utf-8")
    comments = []
    pos = fh.tell()
    line = fh.readline()
    while line.startswith("# "):
        comments.append(line[2:].rstrip("\r\n"))
        pos = fh.tell()
        line = fh.readline()
    fh.seek(pos)
    reader = csv.reader(fh)
    header = next(reader)
    return fh, comments, header, ([float(x) for x in row] for row in reader)


def _check_trajectory_row(row: dict, fingerprint: bool) -> str | None:
    if not all(math.isfinite(v) for v in row.values()):
        return f"non-finite value at t={row['t']}"
    if not row["norm_defect"] <= NORM_DEFECT_MAX:
        return f"norm_defect {row['norm_defect']:.3e} > {NORM_DEFECT_MAX:g} at t={row['t']}"
    r = row["r"]
    if not _close(r, math.atanh(row["abs_alpha"])):
        return f"r != atanh|alpha| at t={row['t']}"
    if not _close(row["mean_n"], math.sinh(r) ** 2):
        return f"mean_n != sinh(r)^2 at t={row['t']}"
    if fingerprint and not (_close(row["re_z"], r * math.cos(row["phi"]))
                            and _close(row["im_z"], r * math.sin(row["phi"]))):
        return f"fingerprint z != r exp(i phi) at t={row['t']}"
    return None


def file_sha256(path: str) -> str | None:
    """Digest of a file's bytes, None if it cannot be read."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def check_output(out: Output) -> str | None:
    """None when the file holds a correct output, else what is wrong."""
    try:
        if out.format == "json":
            with open(out.path, encoding="utf-8") as fh:
                payload = json.load(fh)
            rows = payload["records"] if isinstance(payload, dict) else payload
            comments = []
            header = list(rows[0]) if rows else []
            rows = ([rec[c] for c in header] for rec in rows)
            fh = None
        else:
            fh, comments, header, rows = _read_csv(out.path)
        try:
            return _check_table(out, comments, header, rows)
        finally:
            if fh is not None:
                fh.close()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{out.path}: unreadable output ({type(exc).__name__}: {exc})"


def _check_table(out: Output, comments, header, rows) -> str | None:
    if out.comment is not None and not any(c.startswith(out.comment) for c in comments):
        return f"{out.path}: missing comment line {out.comment!r}"
    if out.table == "compare":
        expected = COMPARE_COLUMNS
    else:
        expected = BASE_COLUMNS + (["re_z", "im_z"] if out.fingerprint else [])
    if header != expected:
        return f"{out.path}: columns {header} != {expected}"
    count, last, prev_t = 0, None, -math.inf
    for values in rows:
        if len(values) != len(header):
            return f"{out.path}: row {count + 1} has {len(values)} fields"
        row = dict(zip(header, values))
        if not row["t"] > prev_t:
            return f"{out.path}: times not increasing at row {count + 1}"
        if out.table == "compare":
            if row["r_diff"] != row["r_a"] - row["r_b"]:
                return f"{out.path}: r_diff != r_a - r_b at t={row['t']}"
        else:
            problem = _check_trajectory_row(row, out.fingerprint)
            if problem:
                return f"{out.path}: {problem}"
        prev_t, last = row["t"], row
        count += 1
    if count != out.records:
        return f"{out.path}: {count} records, expected {out.records}"
    if not _close(last["t"], out.t_final, 1e-12, 0.0):
        return f"{out.path}: ends at t={last['t']}, expected {out.t_final}"
    finals = ((out.final_r, last["r_a"] if out.table == "compare" else last["r"]),
              (out.final_r_b, last.get("r_b")))
    for want, got in finals:
        if want is not None and not _close(got, want, R_RTOL, 0.0):
            return f"{out.path}: final r {got!r} != reference {want!r} (rtol {R_RTOL:g})"
    return None


def check_stdout(cmd: Command, stdout: str) -> str | None:
    """Oracle commands must print a passing fidelity >= 0.999."""
    if not cmd.oracle:
        return None
    found = _FIDELITY.search(stdout)
    if found is None:
        return "no oracle verdict in the command's output"
    fid = float(found.group(1))
    if not fid >= FIDELITY_MIN:
        return f"oracle fidelity {fid} < {FIDELITY_MIN}"
    return None
