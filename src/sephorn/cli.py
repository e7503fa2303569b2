"""Command-line front end.

Exit codes are a stable contract: 0 = separable, 1 = entangled,
2 = inconclusive, 64 = unreadable input or bad usage, 70 = numeric failure
(any unexpected exception included).  ``werner`` is ``analyze`` on the
Werner state file it writes.  ``analyze``, ``werner`` and ``normal-form``
take the positivity tolerance ``analyze --tol``, else ``SEP_HORN_TOL``, else
``POSITIVITY_TOL``; a tolerance that is not finite and >= 0 is bad usage.
``analyze --report structured`` prints strict JSON: a criterion margin
that is not finite, such as the infinite residual of a decomposition that
fails verification as malformed, is written as ``null``.  ``analyze``
reads its files in argument order, one after another in one process, and
prints no report when any of them fails.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from math import isfinite
from pathlib import Path

import click
import numpy as np

from . import fileio
from .bipartite import decompose_state, normal_form
from .config import MAX_ITER, NORMAL_TOL, POSITIVITY_TOL, STATE_TOL, check_tol
from .criteria import Status, Verdict, analyze, require_psd
from .errors import BadParameter, FileFormatError, SepHornError
from .horn import MAX_N, triple_set
from .states import werner

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_INCONCLUSIVE = 2
EXIT_BAD_INPUT = 64
EXIT_NUMERIC = 70

ENV_TOL = "SEP_HORN_TOL"

_STATUS_EXIT = {
    Status.SEPARABLE: EXIT_SEPARABLE,
    Status.ENTANGLED: EXIT_ENTANGLED,
    Status.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


@click.group()
def cli():
    """Separability analysis of bipartite quantum states."""


def _checked_tol(value: float, source: str) -> float:
    """``value`` when :func:`~sephorn.config.check_tol` accepts it;
    otherwise a usage error."""
    try:
        check_tol(value, source)
    except BadParameter as exc:
        raise click.UsageError(str(exc)) from None
    return value


def _check_tol_option(ctx, param, value):
    return value if value is None else _checked_tol(value, "--tol")


def _positivity_tol(tol: float | None = None) -> float:
    """The positivity tolerance: ``tol`` (a checked ``--tol``) when given,
    else ``SEP_HORN_TOL``, else ``POSITIVITY_TOL``."""
    if tol is not None:
        return tol
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return POSITIVITY_TOL
    try:
        value = float(raw)
    except ValueError:
        raise click.UsageError(f"{ENV_TOL} must be a float, got {raw!r}") from None
    return _checked_tol(value, ENV_TOL)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _json_number(value: float) -> float | None:
    """``value`` as a float, or None, written ``null``, when it is not finite:
    JSON has no infinity or NaN."""
    value = float(value)
    return value if isfinite(value) else None


def _verdict_report(path: str, verdict: Verdict, decomposition_file: str | None,
                    structured: bool) -> str:
    if structured:
        doc = {
            "format": "sep-horn-report/1",
            "file": path,
            "status": verdict.status.value,
            "criteria": [
                {"name": c.name, "passed": bool(c.passed),
                 "margin": _json_number(c.margin), "detail": c.detail}
                for c in verdict.criteria
            ],
            "decomposition_file": decomposition_file,
        }
        return json.dumps(doc, indent=1, allow_nan=False)
    lines = [f"{path}: {verdict.status.value.upper()}"]
    for c in verdict.criteria:
        flag = "pass" if c.passed else "FAIL"
        lines.append(f"  [{flag}] {c.name}: margin={c.margin:.6g}"
                     + (f" ({c.detail})" if c.detail else ""))
    if decomposition_file:
        lines.append(f"  decomposition written to {decomposition_file} "
                     f"({len(verdict.decomposition)} components)")
    return "\n".join(lines)


def _analyze_one(path: str, tol: float, max_iter: int):
    text = Path(path).read_text()
    rho, dims = fileio.state_from_text(text)
    verdict = analyze(rho, dims[0], dims[1], tol=tol, max_iter=max_iter)
    decomposition_file = None
    if verdict.status is Status.SEPARABLE and verdict.decomposition is not None:
        decomposition_file = str(Path(path).with_suffix("")) + ".decomposition.json"
        Path(decomposition_file).write_text(
            fileio.decomposition_to_text(verdict.decomposition, dims))
    return verdict, decomposition_file


@cli.command("analyze")
@click.argument("paths", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=None, callback=_check_tol_option,
              help=f"Positivity tolerance (default: SEP_HORN_TOL or {POSITIVITY_TOL:g}).")
@click.option("--max-iter", type=click.IntRange(min=0), default=MAX_ITER,
              show_default=True, help="Normal-form filtering budget.")
@click.option("--report", type=click.Choice(["text", "structured"]),
              default="text", show_default=True)
def cmd_analyze(paths, tol, max_iter, report):
    """Analyze state files; writes a decomposition next to separable inputs.

    The files are analyzed in argument order in this one process, and the
    reports are printed only once every file has been analyzed, so a file
    that fails leaves no report printed.  With several PATHS the exit code
    is the worst (maximum) per-file code.
    """
    tol = _positivity_tol(tol)
    results = [_analyze_one(p, tol, max_iter) for p in paths]
    code = 0
    for p, (verdict, dec_file) in zip(paths, results):
        click.echo(_verdict_report(p, verdict, dec_file, report == "structured"))
        code = max(code, _STATUS_EXIT[verdict.status])
    return code


# ---------------------------------------------------------------------------
# horn-triples
# ---------------------------------------------------------------------------

@cli.command("horn-triples")
@click.argument("n", type=int)
@click.argument("r", type=int)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write to a file instead of stdout.")
def cmd_horn_triples(n, r, out):
    """Dump the admissible index triples of cardinality R in 1..N."""
    if not 1 <= r < n or n > MAX_N:
        raise click.UsageError(f"need 1 <= r < n <= {MAX_N}, got n={n}, r={r}")
    ts = triple_set(n, r)

    def fmt(s):
        return "{" + ",".join(str(x) for x in s) + "}"

    lines = [f"{r} I:{fmt(I)} J:{fmt(J)} K:{fmt(K)}" for I, J, K in ts]
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
        click.echo(f"wrote {len(lines)} triples to {out}")
    else:
        click.echo(text, nl=False)
    return 0


# ---------------------------------------------------------------------------
# werner
# ---------------------------------------------------------------------------

@cli.command("werner")
@click.argument("dim", type=int)
@click.argument("phi", type=float)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="State file path (default: werner_<dim>_phi<phi>.state.json).")
def cmd_werner(dim, phi, out):
    """Write a Werner state file, then report, write and exit as ``analyze`` on it."""
    tol = _positivity_tol()
    try:
        state = werner(dim, phi)
    except SepHornError as exc:
        raise click.UsageError(str(exc)) from exc
    path = out or f"werner_{dim}_phi{phi}.state.json"
    Path(path).write_text(fileio.state_to_text(state.matrix, (dim, dim)))
    click.echo(f"state written to {path}")
    verdict, dec_file = _analyze_one(path, tol, MAX_ITER)
    click.echo(_verdict_report(path, verdict, dec_file, False))
    return _STATUS_EXIT[verdict.status]


# ---------------------------------------------------------------------------
# normal-form
# ---------------------------------------------------------------------------

@cli.command("normal-form")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Filtered state file (default: <input>.normal.json).")
@click.option("--max-iter", type=click.IntRange(min=0), default=MAX_ITER, show_default=True)
@click.option("--tol", type=float, default=NORMAL_TOL, show_default=True,
              callback=_check_tol_option)
def cmd_normal_form(path, out, max_iter, tol):
    """Filter a state toward maximally mixed marginals and report convergence.

    The input is validated and checked for positivity as ``analyze`` does,
    at ``SEP_HORN_TOL`` or ``POSITIVITY_TOL``, also the rank cutoff; a
    rank-deficient marginal exits 70.  ``--tol`` is the filtering target.
    """
    ptol = _positivity_tol()
    rho, dims = fileio.state_from_text(Path(path).read_text())
    d = decompose_state(rho, dims[0], dims[1], tol=max(STATE_TOL, ptol))
    require_psd(d, ptol)
    result = normal_form(d, max_iter=max_iter, tol=tol, rank_tol=ptol)
    out_path = Path(out) if out else Path(str(Path(path).with_suffix("")) + ".normal.json")
    out_path.write_text(fileio.state_to_text(result.state.matrix, dims))
    click.echo(f"filtered state written to {out_path}")
    click.echo(f"converged: {result.converged}")
    click.echo(f"iterations: {result.iterations}")
    click.echo(f"marginal norms: |a|={np.linalg.norm(result.state.a):.3e} "
               f"|b|={np.linalg.norm(result.state.b):.3e}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> None:
    try:
        code = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_BAD_INPUT)
    except FileFormatError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    except SepHornError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    except Exception as exc:
        # a failure outside the library's own error types must not exit with
        # a code that reads as a verdict
        traceback.print_exc()
        click.echo(f"unexpected failure: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    sys.exit(int(code) if isinstance(code, int) else 0)


if __name__ == "__main__":
    main()
