"""Prometheus/OpenMetrics text exposition: rendering and validation.

:func:`render` turns a sequence of :class:`repro.metrics.instruments.
Family` objects into the Prometheus text exposition format 0.0.4
(``# HELP`` / ``# TYPE`` headers, one sample per line, histogram
children expanded into ``_bucket``/``_sum``/``_count`` series).

:func:`validate_exposition` is the self-check used by tests and the CI
``metrics-smoke`` job: it re-parses exposition text and verifies the
structural rules a real Prometheus scraper enforces — so "``metrics.prom``
is valid text format" is a property the repo proves, not assumes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .instruments import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    Family,
    valid_label_name,
    valid_metric_name,
)

#: The media type of this format, for anything that serves it.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_VALID_TYPES = (COUNTER, GAUGE, HISTOGRAM, "summary", "untyped")


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_block(names: Tuple[str, ...], values: Tuple[str, ...],
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render(families: Iterable[Family]) -> str:
    """Render families as Prometheus text exposition (format 0.0.4)."""
    lines: List[str] = []
    for family in families:
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for values, child in family.series():
            if family.type == HISTOGRAM:
                for le, cumulative in child.cumulative():
                    block = _label_block(
                        family.labelnames, values, ("le", str(le))
                    )
                    lines.append(
                        f"{family.name}_bucket{block} {cumulative}"
                    )
                block = _label_block(
                    family.labelnames, values, ("le", "+Inf")
                )
                lines.append(f"{family.name}_bucket{block} {child.count}")
                plain = _label_block(family.labelnames, values)
                lines.append(f"{family.name}_sum{plain} {child.sum}")
                lines.append(f"{family.name}_count{plain} {child.count}")
            else:
                block = _label_block(family.labelnames, values)
                lines.append(
                    f"{family.name}{block} "
                    f"{_format_value(child.to_value())}"
                )
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# Validation


class ExpositionError(ValueError):
    """Exposition text violated the Prometheus text-format rules."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__(
            f"{len(errors)} exposition error(s):\n" + "\n".join(errors)
        )
        self.errors = errors


def _parse_labels(block: str, errors: List[str],
                  where: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    index = 0
    while index < len(block):
        if block[index] == ",":
            index += 1
            continue
        eq = block.find("=", index)
        if eq < 0:
            errors.append(f"{where}: malformed label block")
            return labels
        name = block[index:eq].strip()
        if not valid_label_name(name) and name != "le":
            errors.append(f"{where}: invalid label name {name!r}")
        if eq + 1 >= len(block) or block[eq + 1] != '"':
            errors.append(f"{where}: label value must be quoted")
            return labels
        index = eq + 2
        value: List[str] = []
        while index < len(block):
            char = block[index]
            if char == "\\":
                if index + 1 >= len(block):
                    errors.append(f"{where}: dangling escape")
                    return labels
                escaped = block[index + 1]
                if escaped not in ('"', "\\", "n"):
                    errors.append(
                        f"{where}: bad escape \\{escaped} in label value"
                    )
                value.append("\n" if escaped == "n" else escaped)
                index += 2
                continue
            if char == '"':
                break
            value.append(char)
            index += 1
        else:
            errors.append(f"{where}: unterminated label value")
            return labels
        labels[name] = "".join(value)
        index += 1  # past the closing quote
    return labels


def _split_sample(line: str) -> Optional[Tuple[str, str, str]]:
    """Split a sample line into (name, label_block, value_text)."""
    brace = line.find("{")
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            return None
        name = line[:brace]
        block = line[brace + 1:close]
        rest = line[close + 1:].strip()
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            return None
        name, rest = parts
        block = ""
    fields = rest.split()
    if not fields or len(fields) > 2:  # optional timestamp
        return None
    return name, block, fields[0]


def _base_name(sample_name: str, histogram_names: Set[str]) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            stripped = sample_name[: -len(suffix)]
            if stripped in histogram_names:
                return stripped
    return sample_name


def validate_exposition(text: str) -> List[str]:
    """Check exposition text; returns a list of errors (empty = valid).

    Enforced rules: metric/label name grammar, ``# TYPE`` declared
    before (and at most once for) each metric's samples, parseable
    sample values, histogram ``le`` buckets cumulative and capped by a
    ``+Inf`` bucket that equals ``_count``, and no samples for
    undeclared histogram components.
    """
    errors: List[str] = []
    types: Dict[str, str] = {}
    helps: Set[str] = set()
    histogram_names: Set[str] = set()
    #: (series key) -> list of (le, value) for cumulativity checks
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    counts: Dict[str, float] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        where = f"line {number}"
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: allowed
            kind, name = parts[1], parts[2]
            if not valid_metric_name(name):
                errors.append(f"{where}: invalid metric name {name!r}")
                continue
            if kind == "TYPE":
                declared = parts[3] if len(parts) > 3 else ""
                if declared not in _VALID_TYPES:
                    errors.append(
                        f"{where}: unknown type {declared!r} for {name}"
                    )
                if name in types:
                    errors.append(f"{where}: duplicate TYPE for {name}")
                types[name] = declared
                if declared == HISTOGRAM:
                    histogram_names.add(name)
            else:
                if name in helps:
                    errors.append(f"{where}: duplicate HELP for {name}")
                helps.add(name)
            continue
        split = _split_sample(line)
        if split is None:
            errors.append(f"{where}: malformed sample {line!r}")
            continue
        sample_name, block, value_text = split
        base = _base_name(sample_name, histogram_names)
        if not valid_metric_name(sample_name):
            errors.append(f"{where}: invalid metric name {sample_name!r}")
            continue
        if base not in types:
            errors.append(
                f"{where}: sample {sample_name!r} has no preceding TYPE"
            )
            continue
        labels = _parse_labels(block, errors, where)
        try:
            value = (
                math.inf if value_text == "+Inf"
                else -math.inf if value_text == "-Inf"
                else float(value_text)
            )
        except ValueError:
            errors.append(f"{where}: bad sample value {value_text!r}")
            continue
        if base in histogram_names:
            series_key = base + "|" + ",".join(
                f"{k}={v}" for k, v in sorted(labels.items())
                if k != "le"
            )
            if sample_name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(f"{where}: _bucket without le label")
                    continue
                le_text = labels["le"]
                le = (
                    math.inf if le_text == "+Inf" else float(le_text)
                )
                buckets.setdefault(series_key, []).append((le, value))
            elif sample_name.endswith("_count"):
                counts[series_key] = value
    for series_key, rows in buckets.items():
        rows.sort()
        values = [value for _, value in rows]
        if values != sorted(values):
            errors.append(
                f"histogram {series_key}: bucket counts not cumulative"
            )
        if not rows or rows[-1][0] != math.inf:
            errors.append(f"histogram {series_key}: missing +Inf bucket")
        elif series_key in counts and rows[-1][1] != counts[series_key]:
            errors.append(
                f"histogram {series_key}: +Inf bucket "
                f"{rows[-1][1]:g} != _count {counts[series_key]:g}"
            )
    return errors
