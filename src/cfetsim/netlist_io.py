"""SPICE-compatible ASCII netlist reading and writing.

Element lines are ``<name> <node1> <node2> <value>`` where the first
character of the name selects the element kind (R or C here). Lines
starting with ``*`` are comments. Values are written in scientific
notation with four significant digits.
"""

from __future__ import annotations

from .circuit import Capacitor, Netlist, Resistor
from .errors import NetlistError


def format_netlist(netlist: Netlist, title: str = "parasitic netlist") -> str:
    lines = [f"* {title}"]
    for el in netlist.elements:
        if isinstance(el, (Resistor, Capacitor)):
            lines.append(f"{el.name} {el.n1} {el.n2} {el.value:.3e}")
        else:
            raise NetlistError(f"cannot serialize element {el!r}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> Netlist:
    nl = Netlist()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise NetlistError(f"line {lineno}: expected 'name n1 n2 value', got {raw!r}")
        name, n1, n2, value_s = parts
        try:
            value = float(value_s)
        except ValueError:
            raise NetlistError(f"line {lineno}: bad value {value_s!r}") from None
        kind = {"R": Resistor, "C": Capacitor}.get(name[0].upper())
        if kind is None:
            raise NetlistError(f"line {lineno}: unsupported element {name!r}")
        try:
            nl.add(kind(name, n1, n2, value))
        except NetlistError as exc:
            raise NetlistError(f"line {lineno}: {exc}") from None
    return nl


def read_netlist(path) -> Netlist:
    try:
        with open(path, encoding="utf-8") as f:
            return parse_netlist(f.read())
    except UnicodeDecodeError:
        raise NetlistError(f"netlist {path!r} is not UTF-8 text") from None
