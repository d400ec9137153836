#!/usr/bin/env python3
"""Compare paper-figure bench output with its committed golden.

Usage: compare.py GOLDEN_DIR OUT_DIR

Every GOLDEN_DIR/<bench>.txt is the ASDR_FAST=1 stdout of <bench>, and
OUT_DIR/<bench>.txt a fresh run of it. Line by line, the text between
numbers must be equal (runs of spaces and of table-rule dashes count as
one), and each number must lie within one unit of the golden's last
printed digit, so another compiler's libm cannot fail the check.
Exits 1 and names each mismatch when any output differs.
"""

import pathlib
import re
import sys

NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def unit(token):
    """One unit of the last printed digit of `token`."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def text(part):
    return re.sub(r"-{2,}", "-", " ".join(part.split()))


def compare_line(want, got):
    """None when `got` matches `want`, else why not."""
    w, g = NUMBER.split(want), NUMBER.split(got)
    if len(w) != len(g):
        return "different number of values"
    for i, (a, b) in enumerate(zip(w, g)):
        if i % 2 == 0:
            if text(a) != text(b):
                return "text differs"
        elif abs(float(a) - float(b)) > unit(a) * (1 + 1e-9):
            return "%s is not within one last-digit unit of %s" % (b, a)
    return None


def compare_file(golden, out):
    if not out.exists():
        return ["%s: no output" % out.name]
    want = golden.read_text().splitlines()
    got = out.read_text().splitlines()
    errors = []
    if len(want) != len(got):
        errors.append("%s: %d lines, golden has %d" %
                      (out.name, len(got), len(want)))
    for n, (a, b) in enumerate(zip(want, got), 1):
        why = compare_line(a, b)
        if why:
            errors.append("%s:%d: %s\n  golden: %s\n  output: %s" %
                          (out.name, n, why, a, b))
    return errors


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    golden_dir, out_dir = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    goldens = sorted(golden_dir.glob("*.txt"))
    if not goldens:
        sys.exit("no goldens in %s" % golden_dir)
    errors = []
    for golden in goldens:
        errors += compare_file(golden, out_dir / golden.name)
    for e in errors:
        print(e)
    print("%d of %d outputs match their goldens" %
          (len(goldens) - len({e.split(":")[0] for e in errors}),
           len(goldens)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
