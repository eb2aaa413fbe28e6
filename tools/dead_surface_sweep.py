#!/usr/bin/env python3
"""Dead-surface sweep: tools/dead_surface_sweep.py <repo> <scratch-dir outside the repo>

In a copy of the tree, per library crate: demote to `pub(crate)` every `pub`
item whose name appears nowhere outside the crate's own src/ (other crates,
tests/, examples/, benchmark/src, crates/*/tests, bin targets and doc-comment
code blocks count as callers), `cargo check --lib` the crate, and report what
rustc's dead_code lint then flags: public items referenced only by their own
definition and their own unit tests. Outside references are matched by name,
so a dead method that shares its name with a live item elsewhere is not seen.
Test oracles and the two benchmark stamp functions are exempt by name.
Takes about two minutes; exits non-zero when it reports anything."""
import json, os, re, shutil, subprocess, sys
repo, scratch = os.path.abspath(sys.argv[1]), os.path.abspath(sys.argv[2])
work = os.path.join(scratch, "sweep-tree")
EXEMPT = re.compile(r"_scalar$|^(%s)$" % "|".join([
    "dispatch_label", "backend_kind", "BackendKind",            # benchmark stamps (benchmark/ is frozen)
    "envelope_naive", "contains_series", "oracle_fit",          # reference envelope / invariant / per-k GP fit
    "loo_moments", "loo_log_likelihood", "loo_value_and_log_gradient",
    "loo_value_and_log_gradient_from_sq", "gram_log_gradients",  # allocating LOO definitions, generic GPML gradient
    "Alignment", "alignment_of", "candidate_start",             # Lemma 4.1 / Theorem 4.2 as executable definitions
    "into_filter_bounds",                                       # bound-mode resolution the search's filter rows are checked against
    "decompose", "solve_upper", "solve_matrix", "col", "transpose", "max_abs_diff", "delete_row_col",  # linalg checks
]))
ITEM = re.compile(r"^(\s*)pub ((?:const |async |unsafe )*(?:fn|struct|enum|trait|type|const|static) )(\w+)")
def rs_files(*roots):
    for root in roots:
        for d, _, fs in os.walk(root):
            if "/target" not in d:
                yield from (os.path.join(d, f) for f in fs if f.endswith(".rs"))
def doc_code(text):
    out, on = [], False
    for line in text.splitlines():
        s = line.strip()
        if s.startswith(("///", "//!")):
            if s[3:].strip().startswith("```"): on = not on
            elif on: out.append(s[3:])
    return "\n".join(out)
def is_bin(p): return "/src/bin/" in p or p.endswith("/main.rs")
def outside_text(crate):
    own = os.path.join(work, "crates", crate, "src") + os.sep
    roots = [os.path.join(work, p) for p in ("crates", "tests", "examples", "benchmark/src")]
    texts = ((p, open(p, encoding="utf-8").read()) for p in rs_files(*roots))
    return "\n".join(doc_code(t) if p.startswith(own) and not is_bin(p) else t for p, t in texts)
USE = re.compile(r"(?m)^(\s*)pub use ([\w:]+)::(\{[^}]*\}|\w+);")
def split_reexports(text, names):  # a demoted item cannot stay in a `pub use`
    def fix(m):
        listed = [n.strip() for n in m.group(3).strip("{}").split(",") if n.strip()]
        gone = [n for n in listed if n in names]
        if not gone: return m.group(0)
        kept = [n for n in listed if n not in names]
        out = "%spub use %s::{%s}; " % (m.group(1), m.group(2), ", ".join(kept)) if kept else m.group(1)
        return out + "#[allow(unused_imports)] pub(crate) use %s::{%s};" % (m.group(2), ", ".join(gone))
    return USE.sub(fix, text)
shutil.rmtree(work, ignore_errors=True)
shutil.rmtree(os.path.join(scratch, "sweep-target"), ignore_errors=True)
shutil.copytree(repo, work, ignore=shutil.ignore_patterns("target", ".git", "out"))
found = []
for crate in sorted(os.listdir(os.path.join(work, "crates"))):
    src = os.path.join(work, "crates", crate, "src")
    if not os.path.exists(os.path.join(src, "lib.rs")): continue
    outside, originals, demoted = outside_text(crate), {}, {}
    for p in rs_files(src):
        if is_bin(p): continue
        originals[p] = open(p, encoding="utf-8").read()
        lines = originals[p].split("\n")
        for i, line in enumerate(lines):
            m = ITEM.match(line)
            if m and not EXEMPT.search(m.group(3)) and not re.search(r"\b%s\b" % m.group(3), outside):
                lines[i] = ITEM.sub(r"\1pub(crate) \2\3", line)
                demoted[(os.path.relpath(p, work), i + 1)] = m.group(3)
        originals[p] = (originals[p], "\n".join(lines))
    names = set(demoted.values())
    for p, (_, text) in originals.items():
        open(p, "w", encoding="utf-8").write(split_reexports(text, names))
    run = subprocess.run(["cargo", "check", "--offline", "--lib", "-p", "smiler-" + crate,
                          "--message-format=json", "--target-dir", os.path.join(scratch, "sweep-target")],
                         cwd=work, capture_output=True, text=True)
    for p, (text, _) in originals.items(): open(p, "w", encoding="utf-8").write(text)
    for line in run.stdout.splitlines():
        msg = json.loads(line).get("message") if line.startswith("{") else None
        if not msg: continue
        if msg["level"] == "error": print(f"!! {crate}: {msg['message']}")
        # "field never read" on a demoted struct only says its fields are read outside the crate
        if (msg.get("code") or {}).get("code") == "dead_code" and " never read" not in msg["message"]:
            for span in msg["spans"]:
                name = demoted.get((span["file_name"], span["line_start"]))
                if name: found.append(f"{crate:11} {span['file_name']}:{span['line_start']}  {name}  -- {msg['message']}")
print("\n".join(found))
print(f"{len(found)} public item(s) referenced only by their definition and unit tests")
sys.exit(1 if found else 0)
