#!/usr/bin/env python3
"""Project-specific lint gate.

Five repo invariants that neither the compiler nor clang-tidy can
see, each of which has bitten (or nearly bitten) a past PR:

  1. Every data member and derived accessor of struct SimResult has
     an entry in its field table, SimResult::visitFields() in
     src/mem/simresult.hh. toJson() and fromJson() are both derived
     from that table, so a counter missing from it would stay out of
     the machine-readable output and silently zero itself on every
     result-store hit.
  2. Every field-table entry is keyed by the name of the member it
     serializes (f("cycles", r.cycles)), so a copy-pasted entry
     cannot write one counter under another's JSON key.
  3. No naked new/delete outside the dedicated storage code: the
     simulator's hot-path storage is slab/sliding-queue based, and
     ad-hoc ownership has no place next to it.
  4. Every CpiBucket label (the OOVA_CPI_BUCKETS list, which
     generates both the enum and cpiBucketName(), surfaced by
     toJson()) has a row in the README's CPI-bucket table, and vice
     versa — a bucket nobody can read about is dead observability.
  5. Every OccStruct label (the OOVA_OCC_STRUCTS list, which
     generates both the enum and occStructName()) has a row in the
     README's occupancy-structure table, and vice versa; and both
     telemetry renderers (SimResult::toJson() in simresult.cc, the
     --stats dump in statsdump.cc) iterate via occStructName(), so
     every registered occupancy distribution reaches both output
     surfaces — a structure nobody can read about, parse out of the
     JSON, or grep out of the stats dump is dead telemetry.

Figure <-> golden completeness is scripts/check_goldens.sh's job
(MISSING GOLDENS / ORPHAN GOLDENS), which reads the registry from
`oova_bench --list` rather than from the source. Config-key
completeness is a static_assert in src/harness/sweep.cc.

Exit code: 0 clean, 1 violations (each printed as "LINT: ...").
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Files allowed to own raw storage (none currently need to; add the
# slab/queue implementation here if it ever manages raw memory).
NAKED_NEW_ALLOWED: set = set()

errors = []


def err(msg: str) -> None:
    errors.append(msg)
    print(f"LINT: {msg}")


# ---------------------------------------------------------------
# Rules 1 + 2: every SimResult member and derived accessor is in the
# field table, and every table entry is keyed by its member's name.
# ---------------------------------------------------------------

# Member functions of SimResult that the accessor regex sees but
# that are serialization machinery, not derived metrics.
SIMRESULT_NON_FIELDS = {"toJson"}


def simresult_struct() -> tuple:
    """(data members, derived accessors, field-table body)."""
    src = (ROOT / "src/mem/simresult.hh").read_text()
    m = re.search(r"struct SimResult\s*\{(.*)\n\};", src, re.S)
    if not m:
        err("cannot find struct SimResult in src/mem/simresult.hh")
        return [], [], ""
    body = m.group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    body = re.sub(r"//[^\n]*", "", body)
    table = re.search(r"visitFieldsOf\(Self &r, F &f\)\s*\{(.*?)\n    \}",
                      body, re.S)
    if not table:
        err("cannot find the SimResult::visitFieldsOf() field table "
            "in src/mem/simresult.hh")
    # Derived accessors: "type name() const".
    derived = [fm.group(1)
               for fm in re.finditer(r"(\w+)\(\)\s*const", body)
               if fm.group(1) not in SIMRESULT_NON_FIELDS]
    # Class-level constants (kResultSchemaVersion) are not result
    # fields.
    decls = re.sub(r"^\s*static [^;]*;", "", body, flags=re.M)
    # Data members: "type name = init;" or "type name;" (incl. the
    # braced-init arrays), one per line.
    stored = re.findall(
        r"^\s+[A-Za-z_][\w:<>, ]*?\s+(\w+)\s*(?:=[^;]*|\{\})?;",
        decls, re.M)
    return stored, derived, table.group(1) if table else ""


stored_fields, derived_fields, field_table = simresult_struct()
fields = stored_fields + derived_fields
if len(fields) < 20:
    err(f"SimResult parse found only {len(fields)} fields; the "
        "parser is broken")

# Each entry: f("jsonKey", <expression naming r.member>).
table_entries = re.findall(r'\bf\("(\w+)",\s*(.*?)\);', field_table,
                           re.S)
referenced = set()
for key, expr in table_entries:
    members = re.findall(r"\br\.(\w+)", expr)
    referenced.update(members)
    for member in members:
        if member != key:
            err(f"SimResult field table entry '{key}' serializes "
                f"r.{member} — a copy-pasted entry would write one "
                "counter under another's JSON key")
for field in fields:
    if field not in referenced:
        err(f"SimResult field '{field}' is missing from the field "
            "table SimResult::visitFields() in src/mem/simresult.hh "
            "— toJson() would never write it, nor fromJson() read "
            "it back from a result-store hit")

# ---------------------------------------------------------------
# Rule 3: no naked new/delete outside dedicated storage code.
# ---------------------------------------------------------------

NEW_RE = re.compile(r"\bnew\b\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"\bdelete(\[\])?\b\s+[A-Za-z_]")

for sub in ("src", "bench", "examples"):
    for path in sorted((ROOT / sub).rglob("*")):
        if path.suffix not in (".cc", ".hh", ".cpp", ".hpp"):
            continue
        rel = path.relative_to(ROOT).as_posix()
        if rel in NAKED_NEW_ALLOWED:
            continue
        text = path.read_text()
        text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
        for lineno, line in enumerate(text.splitlines(), 1):
            code = line.split("//", 1)[0].replace("= delete", "")
            if NEW_RE.search(code) or DELETE_RE.search(code):
                err(f"{rel}:{lineno}: naked new/delete — use the "
                    "slab, a container, or a smart pointer")

# ---------------------------------------------------------------
# Rules 4 + 5 share one parser: an X(Enumerator, "label") list, the
# one declaration of both an enum and its *Name() labels.
# ---------------------------------------------------------------

def label_list(macro: str, rel: str) -> list:
    """Labels of the X-macro list #define <macro>(X) in <rel>."""
    src = (ROOT / rel).read_text()
    m = re.search(r"#define " + macro + r"\(X\)((?:[^\n]*\\\n)*[^\n]*)",
                  src)
    if not m:
        err(f"label list {macro} not found in {rel}")
        return []
    labels = re.findall(r'X\(\w+,\s*"([^"]+)"\)', m.group(1))
    if len(labels) < 5:
        err(f"{macro} parse found only {len(labels)} entries in "
            f"{rel}; the parser is broken")
    return labels


def readme_table_labels(heading: str) -> list:
    """Backquoted first-column labels of one README table."""
    text = (ROOT / "README.md").read_text()
    m = re.search(re.escape(heading) + r"\n(.*?)(?:\n#|\Z)", text, re.S)
    if not m:
        err(f"README.md has no '{heading}' section")
        return []
    return re.findall(r"^\| `([a-z-]+)` \|", m.group(1), re.M)


def check_readme_table(what: str, labels: list, heading: str) -> None:
    """Both directions: every label has a row, every row a label."""
    rows = readme_table_labels(heading)
    for label in labels:
        if label not in rows:
            err(f"{what} '{label}' missing from the README's "
                f"'{heading}' table")
    for label in rows:
        if label not in labels:
            err(f"README '{heading}' table row '{label}' matches no "
                f"{what} label")


# Rule 4: CPI buckets <-> README bucket table.
cpi_entries = label_list("OOVA_CPI_BUCKETS", "src/mem/simresult.hh")
check_readme_table("CPI bucket", cpi_entries, "### CPI buckets")

# ---------------------------------------------------------------
# Rule 5: occupancy structures <-> README occupancy table, and both
# telemetry renderers emit through occStructName().
# ---------------------------------------------------------------

occ_entries = label_list("OOVA_OCC_STRUCTS", "src/common/stats.hh")
check_readme_table("occupancy structure", occ_entries,
                   "#### Occupancy structures")

# Both renderers must derive their per-structure keys from
# occStructName(): that is what guarantees all kNumOccStructs
# distributions reach the JSON and the --stats dump (and pick up new
# enum entries automatically).
for rel in ("src/mem/simresult.cc", "src/harness/statsdump.cc"):
    if "occStructName" not in (ROOT / rel).read_text():
        err(f"{rel} does not emit occupancy telemetry through "
            "occStructName() — a new OccStruct entry would silently "
            "miss this output surface")

if errors:
    print(f"lint_oova: {len(errors)} violation(s)")
    sys.exit(1)
print("lint_oova: all checks passed "
      f"({len(fields)} SimResult fields, "
      f"{len(cpi_entries)} CPI buckets, "
      f"{len(occ_entries)} occupancy structures)")
