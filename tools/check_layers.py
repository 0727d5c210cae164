#!/usr/bin/env python3
"""Layer check: the src/ subsystem include graph must stay acyclic.

Each directory under src/ is a subsystem.  A file in subsystem A that
includes "B/..." (B another subsystem) is an edge A -> B.  The script
derives that graph from the sources, prints its edge list, every
elementary cycle and a summary line, and exits non-zero if there is any
cycle at all.

Usage: python3 tools/check_layers.py
"""

import os
import re
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"/]+)/[^"]+"')
SOURCE_SUFFIXES = (".h", ".hpp", ".cpp", ".cc")


def include_graph(src):
    """Returns {subsystem: {subsystem it includes, ...}}."""
    subsystems = sorted(d for d in os.listdir(src)
                        if os.path.isdir(os.path.join(src, d)))
    graph = {s: set() for s in subsystems}
    for sub in subsystems:
        for root, _, files in os.walk(os.path.join(src, sub)):
            for name in files:
                if not name.endswith(SOURCE_SUFFIXES):
                    continue
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    for line in f:
                        m = INCLUDE.match(line)
                        if m and m.group(1) in graph and m.group(1) != sub:
                            graph[sub].add(m.group(1))
    return graph


def elementary_cycles(graph):
    """Every simple cycle once, as a tuple starting at its least node."""
    cycles = []

    def walk(start, node, path, on_path):
        for nxt in sorted(graph[node]):
            if nxt == start:
                cycles.append(tuple(path))
            elif nxt > start and nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                walk(start, nxt, path, on_path)
                path.pop()
                on_path.remove(nxt)

    for start in sorted(graph):
        walk(start, start, [start], {start})
    return cycles


def main():
    graph = include_graph(SRC)
    for sub in sorted(graph):
        print(f"{sub} -> {', '.join(sorted(graph[sub])) or '-'}")
    cycles = elementary_cycles(graph)
    for c in cycles:
        print("cycle: " + " -> ".join(c + (c[0],)))
    print(f"{len(graph)} subsystems, "
          f"{sum(len(v) for v in graph.values())} edges, "
          f"{len(cycles)} cycles")
    return 1 if cycles else 0


if __name__ == "__main__":
    sys.exit(main())
