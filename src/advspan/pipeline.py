"""The verification pipeline: ADV(f), its canonical span program, and every
lemma of the upper bound checked on every input, as one `advspan/1` report.

The report's rows are the per-input records; the command line writes the
report as its JSON, and the acceptance gate reads the same rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qsim, spectral
from .advsdp import (
    DEFAULT_TOL, MIN_TOL, AdversaryCertificate, SdpSolution, build_witness_sdp, extract_certificate, solve_sdp,
)
from .boolfun import formula_size, load_function
from .errors import BadSpecError
from .spanprog import CanonicalSpanProgram, canonical_from_gram, evaluate

DEFAULT_C_GRID = (0.05, 0.1, 0.5, 1.0, 2.0)
PHASE_ERROR_BUDGET = 0.1
# a check passes when its margin is at least -MARGIN_TOL; report["margins"] ranks a check
# on min(bound, margin + MARGIN_TOL) / bound and ties ranks within MARGIN_RTOL of its family's least
MARGIN_TOL, MARGIN_RTOL = 1e-12, 1e-9
# strong_duality_gap and wsize_matches_adv allow ADV_RTOL or 100 tol, whichever
# is larger, times max(1, xi): the solver stops at a relative gap of tol, and
# on 292 functions with n = 3..5 both stayed below 1e-7 max(1, xi)
ADV_RTOL = 1e-5
# wsize_le_stored's bound on max_s (evaluated - stored witness size) / W: the
# stored vectors are themselves witnesses, so only roundoff can exceed them
# (6.6e-13 at most on 360 functions with n = 3..5)
STORED_WSIZE_RTOL = 1e-9
# how the gap checks' names print their grid parameter
C_LABEL, THETA_LABEL = "c={:g}", "theta={:.6g}"

@dataclass(frozen=True)
class Verification:
    """The report of one `verify` run and the objects it was computed from."""

    report: dict
    solution: SdpSolution
    certificate: AdversaryCertificate
    program: CanonicalSpanProgram
    graph: spectral.ProgramGraph


def _check(family: str, name: str, value: float, bound: float, kind: str) -> dict:
    """One reported check, summarized with its family in report["margins"]:
    kind 'le' means value <= bound, 'ge' the reverse."""
    margin = (bound - value) if kind == "le" else (value - bound)
    return {
        "name": name,
        "family": family,
        "value": float(value),
        "bound": float(bound),
        "kind": kind,
        "margin": float(margin),
        "pass": bool(margin >= -MARGIN_TOL),
    }


def _distinct(grid, label: str) -> tuple:
    """grid without the entries whose label repeats an earlier entry's, so no
    two checks share a name (1/(50W) prints as 0.01 when W is near 2)."""
    kept: dict[str, float] = {}
    for x in grid:
        kept.setdefault(label.format(x), x)
    return tuple(kept.values())


def _margins(checks: list[dict]) -> dict:
    """The check that came closest to failing in each family, families in
    report order, with its margin and its relative margin, margin / bound.

    Every bound is positive, and a family mixes identities held to roundoff,
    whose margin is about their bound, with inequalities that can come
    close, so checks are ranked on their margin relative to their bound:
    min(bound, margin + MARGIN_TOL) / bound, where a margin within
    MARGIN_TOL of its bound, the slack a pass already grants, counts as the
    whole bound.  Ranks within MARGIN_RTOL of the least tie (margins equal
    up to roundoff, of inputs one group element maps onto each other), and
    the first tied check in report order is named; a NaN rank, which
    compares with nothing, is named first."""
    families: dict[str, list[dict]] = {}
    for chk in checks:
        families.setdefault(chk["family"], []).append(chk)
    out: dict[str, dict] = {}
    for family, members in families.items():
        margin, bound = (np.array([chk[key] for chk in members]) for key in ("margin", "bound"))
        with np.errstate(invalid="ignore"):  # an infinite margin over an infinite bound ranks NaN
            rank = np.minimum(bound, margin + MARGIN_TOL) / bound
        least = rank.min()  # NaN when any rank is
        tied = np.isnan(rank) | (rank == least) if not np.isfinite(least) else rank - least <= MARGIN_RTOL
        named = members[int(tied.argmax())]
        out[family] = {"check": named["name"], "margin": named["margin"], "relative": named["margin"] / named["bound"]}
    return out


def matrix_to_json(mat: np.ndarray) -> list:
    """Nested rows of [re, im] pairs."""
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def verify(spec: str, *, tol: float = DEFAULT_TOL, formula_bound: bool = False) -> Verification:
    """Solve the witness SDP of `spec` and check every lemma on every input.

    The keywords are the `advspan verify` flags: tol is the SDP duality-gap
    tolerance, and formula_bound also checks ADV <= sqrt(minimal formula
    size).  The effective gap is checked at every c in DEFAULT_C_GRID and
    the phase gap at Theta = 1/(50W), 0.01, 0.1 and 1, less an entry whose
    check name repeats an earlier one's; spectral.effective_gap_profile and
    spectral.phase_gap_profile take any other grid.  A failed check sets the
    report's status to FAIL; bad input and solver failure raise the
    package's errors, and so does a tol that is not finite and at least
    MIN_TOL.
    """
    if not (np.isfinite(tol) and tol >= MIN_TOL):
        raise BadSpecError(f"tol must be finite and at least {MIN_TOL:g}, got {tol!r}")
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    f = load_function(spec)

    report: dict = {
        "schema": "advspan/1",
        "function": {"spec": spec, "n": f.n, "table": f.name()},
        "flags": {"tol": tol, "formula_bound": formula_bound},
    }
    checks: list[dict] = []

    t0 = time.perf_counter()
    sol = solve_sdp(build_witness_sdp(f), tol=tol)
    timings["sdp"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cert = extract_certificate(sol, f)
    timings["certificate"] = time.perf_counter() - t0
    xi = sol.xi
    report["adv"] = {
        "xi": xi,
        "dual_objective": sol.dual_objective,
        "certificate_value": cert.value,
        "beta_alignment": cert.beta_alignment,
        "gamma": matrix_to_json(cert.gamma),
        "residuals": sol.residuals,
    }
    adv_bound = max(ADV_RTOL, 100.0 * tol) * max(1.0, xi)
    checks.append(_check("sdp", "strong_duality_gap", abs(xi - cert.value), adv_bound, "le"))
    checks.append(_check("sdp", "equality_residual", sol.residuals["primal_equality"], 1e-6, "le"))
    checks.append(_check("sdp", "psd_residual", -sol.residuals["min_eigenvalue"], 1e-7, "le"))

    t0 = time.perf_counter()
    program = canonical_from_gram(f, sol)
    witness_prog = program.witness_program()
    timings["canonical"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ev = evaluate(witness_prog)
    # each input's values are its orbit's least input's: program.orbit says
    # which inputs the stages below resolve, all of them when Aut(f) is trivial
    orbit = program.orbit
    reps = np.flatnonzero(orbit == np.arange(len(orbit)))
    row = np.searchsorted(reps, orbit)  # each input's representative in a stack over reps
    stored = program.stored_witness_sizes[orbit]
    labels = [f"{s:0{f.n}b}" for s in f.inputs]
    per_input = [{"input": label, "f": f.value(s), "evaluates": int(ev.value[s]),
                  "witness_size": float(ev.witness_size[s]), "stored_witness_size": float(stored[s])}
                 for s, label in zip(f.inputs, labels)]
    timings["span_program"] = time.perf_counter() - t0
    report["span_program"] = {"m": program.m, "witness_size": program.witness_size, "per_input": per_input}
    report["orbits"] = {"order": sol.sdp.orbits.order, "representatives": [labels[s] for s in reps]}
    eval_ok = all(r["evaluates"] == r["f"] for r in per_input)
    checks.append(_check("span_program", "wsize_matches_adv", abs(ev.witness_size.max() - xi), adv_bound, "le"))
    checks.append(_check("span_program", "evaluate_agrees_with_f", 0.0 if eval_ok else 1.0, 0.5, "le"))
    # the stored vectors are witnesses (e_s for a false s, the v_{x,j} on the
    # blocks (j, x_j) for a true x), so the least witness is no larger
    excess = float((ev.witness_size - stored).max()) / program.witness_size
    checks.append(_check("span_program", "wsize_le_stored", excess, STORED_WSIZE_RTOL, "le"))

    # every per-input quantity is computed as a stack over the representatives
    # (or over F0 or F1) and read at each input's representative; the loop at
    # the end only assembles rows and checks
    t0 = time.perf_counter()
    graph = spectral.build_program_graph(program)
    w_size = program.witness_size
    theta_grid = _distinct((1.0 / (50.0 * w_size), 0.01, 0.1, 1.0), THETA_LABEL)
    values = np.array(f.table)
    # the kernel witnesses cost no SVD, so they are checked on every input
    # (raising on any violation) and reported from the representatives
    _, overlap, kernel_residual = spectral.zero_witness_vectors(program)
    overlap, kernel_residual = overlap[orbit], kernel_residual[orbit]
    ig = spectral.build_input_graph(graph, program, inputs=reps)
    phases, overlaps = spectral.anchor_measure(ig)
    marks = [time.perf_counter()]
    # the closed-form measure against U_s applied to |0> itself, by their first moments
    recon = np.abs(spectral.moments(phases, overlaps) - spectral.walk_moments(graph, reps)).max(axis=1)[row]
    spread = (spectral.rank_spread(graph, program, (graph.rank, *graph.near_ranks), reps)[row]
              if graph.near_ranks else None)
    marks.append(time.perf_counter())
    false_reps = values[reps] == 0
    gap_lhs, phase_lhs = np.zeros((len(reps), len(DEFAULT_C_GRID))), np.zeros((len(reps), len(theta_grid)))
    gap_lhs[false_reps], gap_rhs = spectral.effective_gap_profile(ig.select(false_reps), w_size, DEFAULT_C_GRID)
    phase_lhs[false_reps], phase_rhs = spectral.phase_gap_profile(
        phases[false_reps], overlaps[false_reps], w_size, theta_grid, values[reps][false_reps])
    gap_lhs, phase_lhs = gap_lhs[row], phase_lhs[row]
    marks.append(time.perf_counter())
    precision = 1.0 / (100.0 * w_size)
    tau = int(np.ceil(100.0 * w_size))
    p_phase = qsim.qpe_accept_probability(phases, overlaps, precision)[row]
    p_search = qsim.search_accept_probability(phases, overlaps, tau)[row]
    p_bare = qsim.search_noregister_probability(phases, overlaps, tau)[row]
    marks.append(time.perf_counter())
    stages = dict(zip(("resolve", "walk", "gaps", "algorithms"), np.diff([t0, *marks]).tolist()))

    zero_rows, gap_rows, phase_rows, alg_rows = [], [], [], []
    for s, label in zip(f.inputs, labels):
        target_ratio = 0.9 if f.value(s) else 1.0 / (9.0 * w_size * (w_size + 1.0))
        zero_rows.append({"input": label, "f": f.value(s), "overlap_ratio": float(overlap[s]),
                          "expected": target_ratio, "kernel_residual": float(kernel_residual[s])})
        # both ratios are exact by construction, so the bound is relative
        checks.append(_check("zero_witness", f"zero_witness_ratio[{label}]", abs(overlap[s] - target_ratio),
                             1e-9 * target_ratio, "le"))
        checks.append(_check("jordan", f"jordan_reconstruction[{label}]", recon[s], 1e-8, "le"))
        if spread is not None:
            checks.append(_check("jordan", f"rank_cut[{label}]", spread[s], 1e-8, "le"))

        if f.value(s) == 0:
            for c, lhs, rhs in zip(DEFAULT_C_GRID, gap_lhs[s].tolist(), gap_rhs.tolist()):
                gap_rows.append({"input": label, "c": float(c), "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
                checks.append(_check("effective_gap", f"effective_gap[{label},{C_LABEL.format(c)}]",
                                     lhs, rhs + 1e-6, "le"))
            for theta, lhs, rhs in zip(theta_grid, phase_lhs[s].tolist(), phase_rhs.tolist()):
                phase_rows.append({"input": label, "theta": float(theta), "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
                checks.append(_check("phase_gap", f"phase_gap[{label},{THETA_LABEL.format(theta)}]",
                                     lhs, rhs + 1e-6, "le"))

        if f.value(s):
            judged = (_check("phase_estimation", f"phase_estimation_true[{label}]",
                             p_phase[s] - PHASE_ERROR_BUDGET, 0.8, "ge"),
                      _check("search", f"search_true[{label}]", p_search[s], 0.9, "ge"))
        else:
            judged = (_check("phase_estimation", f"phase_estimation_false[{label}]",
                             p_phase[s] + PHASE_ERROR_BUDGET, 0.4, "le"),
                      _check("search", f"search_false[{label}]", p_search[s], 0.88, "le"))
        checks.extend(judged)
        # each algorithm's threshold and pass flag are those of its check
        alg_rows.append({"input": label, "f": f.value(s), "phase_estimation": float(p_phase[s]),
                         "phase_error_budget": PHASE_ERROR_BUDGET, "search": float(p_search[s]),
                         "search_noregister": float(p_bare[s]), "tau": tau,
                         "thresholds": {chk["family"]: chk["bound"] for chk in judged},
                         "pass": {chk["family"]: chk["pass"] for chk in judged}})
    timings["spectral"] = time.perf_counter() - t0
    report["lemma_checks"] = {"zero_witness": zero_rows, "effective_gap": gap_rows, "phase_gap": phase_rows}
    report["algorithms"] = alg_rows

    if formula_bound:
        t0 = time.perf_counter()
        leaves = formula_size(f, max_leaves=12) if f.n <= 4 else None
        timings["formula"] = time.perf_counter() - t0
        if leaves is None:
            note = "no formula within 12 leaves" if f.n <= 4 else "the exhaustive formula search covers n <= 4 only"
            report["formula_bound"] = {"leaves": None, "note": note}
        else:
            report["formula_bound"] = {"leaves": leaves, "sqrt_leaves": float(np.sqrt(leaves))}
            checks.append(_check("formula_bound", "adv_le_sqrt_formula_size", xi, float(np.sqrt(leaves)) + 1e-6, "le"))
    else:
        report["formula_bound"] = None

    report["checks"] = checks
    report["margins"] = _margins(checks)
    report["status"] = "PASS" if all(c["pass"] for c in checks) else "FAIL"
    timings["total"] = time.perf_counter() - t_start
    report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    report["timings"]["spectral_stages"] = {k: round(v, 6) for k, v in stages.items()}
    return Verification(report=report, solution=sol, certificate=cert, program=program, graph=graph)
