"""Command-line front end.

Every subcommand prints a single JSON object of the shape

    {"query": ..., "value_bits": ..., "kind": ..., "epsilon": ...,
     "certificate": {...}?, "warnings": [...]}

(``sweep`` instead emits CSV rows ``epsilon,value_bits,kind``, unless
``--format json``).  Each ``_cmd_*`` handler returns only the fields of
its own answer.  ``main`` adds the keys every answer shares:
``query.subcommand``; ``epsilon``, which is ``--eps`` where the subcommand
takes it and the handler names no other radius; and ``warnings``, ``[]``
unless the handler gives some.  It then writes the answer, or the error
object that replaces it, to stdout or to ``--out``.  ``--nats`` multiplies
every ``value_bits`` by ln 2 and changes nothing else.

Exit codes: 0 success, 2 invalid input (printed to stderr, as is an
``--out`` that cannot be written), 3 non-compact regime (the entropy is
infinite), 4 an enumeration or scan cap was hit.

Models are given either as inline JSON, as ``@file.json``, or in the
shorthand ``canonical:b=1,c=1`` / ``two_term:c1=1,c2=1,alpha1=1,alpha2=1.25``
/ ``table:values=1;0.5;0.25`` (optionally ``,tail_b=...,tail_c=...``).
Infinite exponents are written as the literal string ``inf``.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import sys
from typing import List, Union

from .constants import LN2, HolderExponent, as_exponent
from .errors import (
    EnumerationTooLarge,
    EntropyError,
    NonCompactRegime,
    ScanCapExceeded,
)

# Each _cmd_* handler imports the modules it runs, so a process pays at
# start-up only for its own subcommand.

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCOMPACT = 3
EXIT_CAP = 4


def parse_model(text: str):
    """A model from inline JSON, ``@file.json`` or the shorthand.

    The shorthand ``kind:key=value,...`` becomes the JSON dict
    ``{"kind": kind, key: value, ...}``, where a key ``outer_inner`` sets
    field ``inner`` of the nested dict ``outer`` (``tail_b=1`` gives
    ``{"tail": {"b": "1"}}``).
    """
    from .sequences import model_from_json

    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return model_from_json(json.load(fh))
    if text.lstrip().startswith("{"):
        return model_from_json(json.loads(text))
    kind, _, rest = text.partition(":")
    data = {"kind": kind.strip().lower()}
    for item in rest.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        outer, _, inner = key.strip().rpartition("_")
        (data.setdefault(outer, {}) if outer else data)[inner] = val.strip()
    return model_from_json(data)


def _exponent_json(p: HolderExponent):
    return "inf" if p.is_inf else p.value


def _emit(payload: Union[dict, str], args) -> None:
    """Write a payload to ``--out``, or else to stdout: text as it is, a
    dict as one line of JSON (an indented per_axis_counts would take a line
    per axis)."""
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _invalid(exc: Exception) -> int:
    print(json.dumps({"error": str(exc), "kind": "invalid-input"}), file=sys.stderr)
    return EXIT_INVALID


def _bits_out(bits: float, args) -> float:
    return bits * LN2 if args.nats else bits


class _InvalidOption(Exception):
    """An option value the query cannot use.  It is not a ValueError, so
    when an argparse ``type`` raises it, it reaches ``main`` as invalid
    input instead of becoming argparse's usage error."""


def _positive_finite(text: str, name: str = "--eps") -> float:
    """The ``type`` of ``--eps`` and ``--eta``: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise _InvalidOption(f"{name} must be a positive finite number, got {text!r}")
    return value


def _positive_eta(text: str) -> float:
    return _positive_finite(text, "--eta")


def _parse_list(text: str, convert) -> tuple:
    """The comma-separated numbers of an option such as ``--axes``."""
    try:
        return tuple(convert(v) for v in text.split(",") if v)
    except ValueError as exc:
        raise EntropyError(f"bad number list {text!r}: {exc}") from exc


def _parse_eps_grid(text: str) -> List[float]:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise EntropyError(f"bad --eps-grid {text!r}, expected start:stop:count") from exc
    if count < 1 or not all(x > 0 and math.isfinite(x) for x in (start, stop)):
        raise EntropyError("eps grid needs positive finite endpoints and count >= 1")
    if count == 1:
        return [start]
    la, lb = math.log(start), math.log(stop)
    return [math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]


def _write_centers(centers, path: str) -> None:
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(c) for c in centers], fh)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for c in centers:
                fh.write(",".join(f"{x:.17g}" for x in c) + "\n")


def _json_int(n: int):
    """n as a JSON int when its decimal form fits the int-to-str digit limit
    (``sys.get_int_max_str_digits``), else that decimal form as a string, so
    a reader under the same limit can still parse the output."""
    try:
        str(n)
    except ValueError:
        # Decimal converts without the limit and changes no global setting
        return str(decimal.Decimal(n))
    return n


def _cmd_exact(args) -> dict:
    from . import hyperrect
    from .sequences import axis

    model = parse_model(args.model)
    result = hyperrect.exact_entropy(model, args.eps)
    payload = {
        "query": {"model": model.to_json(), "eps": args.eps},
        "value_bits": _bits_out(result.bits, args),
        "kind": "exact",
        "certificate": {
            "effective_dim": result.effective_dim,
            "per_axis_counts": list(result.per_axis_counts),
            "count_runs": [[count, mult] for count, mult in result.count_runs],
            "center_count": _json_int(result.exact_product()),
        },
    }
    if args.centers:
        # centers span the effective axes; all further coordinates are 0
        axes = [axis(model, n) for n in range(1, result.effective_dim + 1)] or [
            axis(model, 1)
        ]
        centers = hyperrect.optimal_covering(axes, args.eps)
        _write_centers(centers, args.centers)
        payload["centers_file"] = args.centers
    return payload


def _cmd_bound_finite(args) -> dict:
    from . import finite_bounds

    E = finite_bounds.FiniteEllipsoid(as_exponent(args.p), _parse_list(args.axes, float))
    lower = finite_bounds.volume_lower_bound(E, as_exponent(args.q), args.eps)
    payload = {
        "query": {
            "axes": list(E.axes),
            "p": _exponent_json(E.p),
            "q": args.q,
            "eps": args.eps,
            "eta": args.eta,
        },
        "lower": {"value_bits": _bits_out(lower.log2_bound, args), "case_tag": lower.case_tag},
    }
    try:
        upper = finite_bounds.density_upper_bound(E, as_exponent(args.q), args.eps, args.eta)
    except EntropyError as exc:
        payload["value_bits"] = payload["lower"]["value_bits"]
        payload["kind"] = "lower"
        payload["warnings"] = [f"density bound unavailable: {exc}"]
        return payload
    payload["upper"] = {
        "value_bits": _bits_out(upper.log2_bound, args),
        "case_tag": upper.case_tag,
        "kappa_used": upper.kappa_used,
        "admissible_radius": list(upper.valid_radius_range),
    }
    payload["value_bits"] = payload["upper"]["value_bits"]
    payload["kind"] = "upper"
    return payload


def _cmd_bound_infinite(args) -> dict:
    from . import block_decomp

    model = parse_model(args.model)
    result, cert = block_decomp.infinite_upper_bound(
        model, as_exponent(args.p), as_exponent(args.q), args.eps
    )
    return {
        "query": {"model": model.to_json(), "p": args.p, "q": args.q, "eps": args.eps},
        "value_bits": _bits_out(result.bits, args),
        "kind": "upper",
        "certificate": cert.to_json(),
    }


def _cmd_mixed_bound(args) -> dict:
    from . import block_decomp

    model = parse_model(args.model)
    dims = _parse_list(args.dims, int)
    spec = block_decomp.MixedEllipsoidSpec(model, dims)
    upper, cert = block_decomp.mixed_upper_bound(spec, args.eps, args.gamma)
    lower = block_decomp.mixed_lower_bound(spec, args.eps)
    return {
        "query": {
            "model": model.to_json(),
            "dims": list(dims),
            "eps": args.eps,
            "gamma": args.gamma,
        },
        "value_bits": _bits_out(upper.bits, args),
        "kind": "upper",
        "epsilon": upper.epsilon,  # the inflated radius the upper bound covers at
        "lower": {"value_bits": _bits_out(lower.bits, args), "epsilon": lower.epsilon},
        "certificate": cert.to_json(),
    }


def _cmd_classify(args) -> dict:
    from . import asymptotics

    regime = asymptotics.classify(
        args.p, args.q, args.b,
        tail_summable_inv_b=args.tail_summable,
        liminf_n_mu_pos=not args.tail_summable,
    )
    return {
        "query": {"p": args.p, "q": args.q, "b": args.b},
        "kind": "classification",
        "regime": {**regime._asdict(), "compact": regime.compact},
    }


def _cmd_asymptotic(args) -> dict:
    from . import asymptotics

    band = asymptotics.canonical_band(
        as_exponent(args.p), as_exponent(args.q), args.b, args.c, args.eps
    )
    payload = {
        "query": {"p": args.p, "q": args.q, "b": args.b, "c": args.c, "eps": args.eps},
        "value_bits": [_bits_out(band.lower_bits, args), _bits_out(band.upper_bits, args)],
        "kind": "asymptotic",
    }
    if band.upper_constant_unconfirmed:
        payload["warnings"] = ["upper edge has an unconfirmed constant (p < q regime)"]
    return payload


def _cmd_estimator(args) -> dict:
    from . import asymptotics

    model = parse_model(args.model)
    bits = asymptotics.entropy_estimator(model, args.eps)
    return {
        "query": {"model": model.to_json(), "eps": args.eps},
        "value_bits": _bits_out(bits, args),
        "kind": "asymptotic",
    }


def _cmd_oracle(args) -> dict:
    from . import finite_bounds, oracle  # numpy is loaded only for this subcommand

    E = finite_bounds.FiniteEllipsoid(as_exponent(args.p), _parse_list(args.axes, float))
    rep = oracle.sandwich_report(
        E, as_exponent(args.q), args.eps, resolution=args.resolution, eta=args.eta
    )
    return {
        "query": {
            "axes": list(E.axes),
            "p": args.p,
            "q": args.q,
            "eps": args.eps,
            "resolution": args.resolution,
        },
        "kind": "oracle",
        "report": rep.report._asdict(),
        "checks": rep.checks,
        "values": rep.values,
        "all_ok": rep.all_ok,
    }


def _cmd_besov(args) -> dict:
    from . import besov

    spec = besov.BesovSpec(args.s, args.d, as_exponent(args.p1), args.vol)
    bb = besov.besov_entropy_band(spec, args.eps)
    return {
        "query": {"s": args.s, "d": args.d, "p1": args.p1, "vol": args.vol, "eps": args.eps},
        "value_bits": [_bits_out(bb.band.lower_bits, args), _bits_out(bb.band.upper_bits, args)],
        "kind": "asymptotic",
        "model": bb.model.to_json(),
        "b_star": bb.b_star,
        "warnings": list(bb.warnings),
    }


def _cmd_constants(args) -> dict:
    from . import constants

    payload = {"query": {}, "kind": "constants"}
    if args.gamma_pq:
        payload["value"] = constants.gamma_pq(as_exponent(args.p), as_exponent(args.q))
        payload["query"].update({"gamma_pq": True, "p": args.p, "q": args.q})
    elif args.volume_ratio:
        payload["value"] = constants.volume_ratio(
            as_exponent(args.p), as_exponent(args.q), args.d
        )
        payload["query"].update({"volume_ratio": True, "p": args.p, "q": args.q, "d": args.d})
    elif args.zeta_series is not None:
        payload["value"] = constants.zeta_series_constant(args.zeta_series)
        payload["query"].update({"zeta_series": args.zeta_series})
    else:
        grid = ["1", "1.5", "2", "3", "inf"]
        payload["gamma_pq_table"] = {
            f"{p},{q}": constants.gamma_pq(as_exponent(p), as_exponent(q))
            for p in grid
            for q in grid
        }
        payload["zeta_series_table"] = {
            str(b): constants.zeta_series_constant(b) for b in (0.5, 1.0, 2.0)
        }
    return payload


def _sweep_value(what: str, model, p, q, eps) -> tuple:
    if what == "exact":
        from . import hyperrect

        return hyperrect.exact_entropy(model, eps).bits, "exact"
    if what == "bound-infinite":
        from . import block_decomp

        result, _ = block_decomp.infinite_upper_bound(model, p, q, eps)
        return result.bits, "upper"
    if what == "estimator":
        from . import asymptotics

        return asymptotics.entropy_estimator(model, eps), "asymptotic"
    raise EntropyError(f"unknown sweep target {what!r}")


def _cmd_sweep(args) -> Union[dict, str]:
    model = parse_model(args.model)
    p, q = as_exponent(args.p), as_exponent(args.q)
    grid = _parse_eps_grid(args.eps_grid)
    rows = []
    for eps in grid:
        bits, kind = _sweep_value(args.what, model, p, q, eps)
        rows.append((eps, _bits_out(bits, args), kind))
    if args.format == "json":
        return {
            "query": {"model": model.to_json(), "what": args.what},
            "kind": "sweep",
            "rows": [{"epsilon": e, "value_bits": v, "kind": k} for e, v, k in rows],
        }
    lines = ["epsilon,value_bits,kind"] + [f"{e:.12g},{v:.12g},{k}" for e, v, k in rows]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellentropy",
        description="Metric entropy of lp-ellipsoids: exact values, certified bounds, asymptotics.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, eps=True):
        if eps:
            sp.add_argument("--eps", type=_positive_finite, required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--nats", action="store_true", help="report natural-log units")

    sp = sub.add_parser("exact", help="exact sup-norm entropy of a hyperrectangle")
    sp.add_argument("--model", required=True)
    sp.add_argument(
        "--centers",
        default=None,
        help="export the optimal covering centers to FILE (.csv rows or .json array)",
    )
    common(sp)
    sp.set_defaults(func=_cmd_exact)

    sp = sub.add_parser("bound-finite", help="volume lower / density upper bounds")
    sp.add_argument("--axes", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--eta", type=_positive_eta, default=1.0)
    common(sp)
    sp.set_defaults(func=_cmd_bound_finite)

    sp = sub.add_parser("bound-infinite", help="certified upper bound, infinite dimension")
    sp.add_argument("--model", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_bound_infinite)

    sp = sub.add_parser("mixed-bound", help="mixed-ellipsoid bracket")
    sp.add_argument("--model", required=True)
    sp.add_argument("--dims", required=True)
    sp.add_argument("--gamma", type=float, default=1.0)
    common(sp)
    sp.set_defaults(func=_cmd_mixed_bound)

    sp = sub.add_parser("classify", help="compactness / asymptotic regime")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--tail-summable", action="store_true")
    common(sp, eps=False)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("asymptotic", help="leading-order entropy band, canonical decay")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, default=1.0)
    common(sp)
    sp.set_defaults(func=_cmd_asymptotic)

    sp = sub.add_parser("estimator", help="effective-dimension entropy estimator")
    sp.add_argument("--model", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_estimator)

    sp = sub.add_parser("oracle", help="grid covering/packing sandwich report")
    sp.add_argument("--axes", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--eta", type=_positive_eta, default=1.0)
    common(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("besov", help="entropy band of a smoothness ball")
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p1", required=True)
    sp.add_argument("--vol", type=float, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_besov)

    sp = sub.add_parser("constants", help="dump universal constants")
    sp.add_argument("--gamma-pq", action="store_true")
    sp.add_argument("--volume-ratio", action="store_true")
    sp.add_argument("--zeta-series", type=float, default=None)
    sp.add_argument("--p", default="2")
    sp.add_argument("--q", default="2")
    sp.add_argument("--d", type=int, default=2)
    common(sp, eps=False)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("sweep", help="CSV table over a log-spaced eps grid")
    sp.add_argument("--model", required=True)
    sp.add_argument("--p", default="inf")
    sp.add_argument("--q", default="inf")
    sp.add_argument("--what", choices=["exact", "bound-infinite", "estimator"], default="exact")
    sp.add_argument("--eps-grid", required=True, help="start:stop:count, log-spaced")
    sp.add_argument("--format", choices=["json", "csv"], default="csv")
    common(sp, eps=False)
    sp.set_defaults(func=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except _InvalidOption as exc:
        return _invalid(exc)
    code = EXIT_OK
    try:
        answer = args.func(args)
    except NonCompactRegime as exc:
        code, answer = EXIT_NONCOMPACT, {"error": str(exc), "kind": "non-compact"}
    except EnumerationTooLarge as exc:
        code, answer = EXIT_CAP, {"error": str(exc), "kind": "cap-exceeded"}
        if exc.count.bit_length() <= 64:
            answer["count"] = exc.count
        else:  # too many digits for a JSON literal; report the exact log2
            answer["count_log2"] = math.log2(exc.count)
    except ScanCapExceeded as exc:
        code, answer = EXIT_CAP, {"error": str(exc), "kind": "cap-exceeded"}
    except (EntropyError, OSError, json.JSONDecodeError, KeyError) as exc:
        return _invalid(exc)
    else:
        if isinstance(answer, dict):  # the keys every answer shares
            answer["query"]["subcommand"] = args.subcommand
            if hasattr(args, "eps"):
                answer.setdefault("epsilon", args.eps)
            answer.setdefault("warnings", [])
            if not answer.get("regime", {}).get("compact", True):
                code = EXIT_NONCOMPACT
    try:
        _emit(answer, args)
    except OSError as exc:  # an --out that cannot be written
        return _invalid(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
