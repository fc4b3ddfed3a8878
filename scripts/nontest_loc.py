#!/usr/bin/env python3
"""Print the workspace's non-test line count per file, per crate and in total.

A file's non-test lines are all of its lines before its first
`#[cfg(test)]` line (all of them when it has none). Counted over every
`.rs` file under `src/` and `crates/*/src`, recursively. Each crate's
total is followed by its files' counts.

    python3 scripts/nontest_loc.py
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def nontest_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == "#[cfg(test)]":
                break
            n += 1
    return n


def main():
    roots = [("omegaplus", ROOT / "src")]
    roots += [(d.name, d / "src") for d in sorted((ROOT / "crates").iterdir()) if (d / "src").is_dir()]
    total = 0
    for name, src in roots:
        files = sorted(src.rglob("*.rs"))
        counts = [(p, nontest_lines(p)) for p in files]
        crate_total = sum(c for _, c in counts)
        total += crate_total
        print(f"{crate_total:7d}  {name}")
        for p, c in counts:
            print(f"{c:7d}    {p.relative_to(ROOT)}")
    print(f"{total:7d}  total")


if __name__ == "__main__":
    main()
