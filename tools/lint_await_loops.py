#!/usr/bin/env python3
"""Flags range-for loops that suspend while iterating shared state.

A coroutine that reaches `co_await` inside `for (x : range)` holds the
range's iterators, and any reference into the current element, across the
suspension. Whatever runs meanwhile may insert into, erase from or
reassign that container, and the resumed loop then reads freed memory.
A range is shared when it is a member (`foo_`) or is reached through `.`
or `->`; locals are private to the coroutine frame.

Each flagged loop should iterate a snapshot (copy the container, or copy
its keys and re-resolve each one after every await). When an invariant
makes the live container safe, state it on the `for` line or the line
above, and the lint accepts the loop:

    // await-safe: peers_ is filled only in the constructor

Usage: tools/lint_await_loops.py [path ...]   (default: src/ of the repo)
Exits 1 when any unmarked loop is found.
"""
import pathlib
import re
import sys

MARKER = "await-safe:"
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}
OPEN = {"(": ")", "[": "]", "{": "}"}


def strip_comments_and_literals(text):
    """Blanks comments and string/char literals, keeping offsets and lines."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j += 1
        else:
            i += 1
            continue
        for k in range(i, min(j, n)):
            if out[k] != "\n":
                out[k] = " "
        i = j
    return "".join(out)


def match_close(code, i):
    """Index of the bracket closing the one at `i`, or -1."""
    stack = []
    for j in range(i, len(code)):
        c = code[j]
        if c in OPEN:
            stack.append(OPEN[c])
        elif stack and c == stack[-1]:
            stack.pop()
            if not stack:
                return j
    return -1


def range_of(header):
    """The range expression of a range-for header, or None."""
    depth = 0
    for j, c in enumerate(header):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0 and c == ";":
            return None
        elif (depth == 0 and c == ":" and header[j - 1:j] != ":"
              and header[j + 1:j + 2] != ":"):
            return header[j + 1:].strip()
    return None


def body_span(code, start):
    """[begin, end) of the statement that forms a loop body at `start`."""
    i = start
    while i < len(code) and code[i].isspace():
        i += 1
    if i < len(code) and code[i] == "{":
        return i, match_close(code, i) + 1
    depth = 0
    for j in range(i, len(code)):
        c = code[j]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "{" and depth == 0:
            return i, match_close(code, j) + 1
        elif c == ";" and depth == 0:
            return i, j + 1
    return i, len(code)


SHARED_RANGE = re.compile(r"\b[A-Za-z]\w*_\b|\.|->")
FOR = re.compile(r"\bfor\s*\(")
CO_AWAIT = re.compile(r"\bco_await\b")


def lint_file(path):
    text = path.read_text()
    lines = text.split("\n")
    code = strip_comments_and_literals(text)
    findings = []
    for m in FOR.finditer(code):
        open_paren = m.end() - 1
        close_paren = match_close(code, open_paren)
        if close_paren < 0:
            continue
        rng = range_of(code[open_paren + 1:close_paren])
        if rng is None or not SHARED_RANGE.search(rng):
            continue
        begin, end = body_span(code, close_paren + 1)
        if not CO_AWAIT.search(code[begin:end]):
            continue
        line = code.count("\n", 0, m.start())
        marked = any(MARKER in lines[k] for k in (line - 1, line) if k >= 0)
        if not marked:
            findings.append((line + 1, rng))
    return findings


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [pathlib.Path(p) for p in argv[1:]] or [root / "src"]
    files = []
    for p in paths:
        if p.is_dir():
            files += sorted(f for f in p.rglob("*")
                            if f.suffix in SOURCE_SUFFIXES)
        else:
            files.append(p)
    count = 0
    for f in files:
        for line, rng in lint_file(f):
            count += 1
            print(f"{f}:{line}: range-for over '{rng}' suspends at co_await; "
                  f"iterate a snapshot or mark it '// {MARKER} <invariant>'")
    if count:
        print(f"lint_await_loops: {count} unmarked loop(s)")
        return 1
    print(f"lint_await_loops: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
