"""Rendering a run: the human table and the last JSON line."""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.spec import END_TO_END


def _number(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def table(result: Dict[str, Any], benchmark: dict) -> str:
    """Every figure the run produced, by name and unit."""
    lines: List[str] = [
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"({result['elapsed_s']:.1f} s) correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    ]
    if "end_to_end" in result:
        lines.append("end-to-end:")
        for name, (unit, better) in END_TO_END.items():
            if name in result["end_to_end"]:
                value = result["end_to_end"][name]
                note = ""
                if value is None:
                    note = ("  (no rung met the conditions)" if name == "knee_rps"
                            else "  (fewer than ten samples beyond it)")
                lines.append(f"  {name:<18} {_number(value):>12} {unit:<8} "
                             f"({better} is better){note}")
    details = result.get("details", {})
    if "rungs" in details:
        lines.append(f"  rate ladder (late p99 {_number(details['late_p99_ms'])} ms"
                     f"{', knee clamped at the top rung' if details['knee_clamped'] else ''}):")
        for rate, rung in details["rungs"].items():
            lines.append(
                f"    {rate:>6} req/s: sent {rung['sent']:>5} ok {rung['ok']:>5} "
                f"refused {rung['refused']:>4} wrong {rung['wrong']} "
                f"achieved {rung['achieved']:8.1f} p50 {_number(rung['p50_ms']):>8} ms "
                f"p99 {_number(rung['p99_ms']):>8} ms "
                f"{'meets' if rung['meets_limit'] else 'misses'} the limit"
            )
    for check in details.get("checks", []):
        if not all(check.values()):
            lines.append(f"  FAILED pipeline checks: {check}")
    if "layers" in result:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        lines.append(f"per-layer (spans in {result.get('spans_file')}):")
        for metric in benchmark["per_layer"]:
            value = result["layers"].get(metric["name"], 0)
            lines.append(f"  {metric['name']:<24} {_number(value):>12} "
                         f"{units[metric['name']]}")
    return "\n".join(lines)


def last_line(result: Dict[str, Any], benchmark: dict) -> Dict[str, Any]:
    """The last line: every gated end-to-end metric, or (traced) every layer metric.

    A layer a workload never enters reports 0.
    """
    if result["trace"]:
        source, wanted, default = result["layers"], benchmark["per_layer"], 0
    else:
        source, wanted, default = result["end_to_end"], benchmark["end_to_end"], None
    metrics = {}
    for metric in wanted:
        value = source.get(metric["name"], default)
        if value is None:
            raise SystemExit(f"perfbench: {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
