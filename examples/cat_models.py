#!/usr/bin/env python3
"""The .cat model artefact: load the DSL models, check executions with
them, and cross-validate against the native Python implementations.

The paper's companion material ships every proposed model "in the .cat
format"; this repository reproduces that artefact with a compiler from
``.cat`` onto the relational IR the native models are written in.  The
same model therefore exists twice — once as a Python class in
``repro.models`` and once as a ``.cat`` file in ``repro/cat/library`` —
and the two must agree everywhere.
"""

from repro.cat import CAT_MODEL_FILES, load_cat_model
from repro.cat.library import library_path, library_source
from repro.catalog import CATALOG
from repro.models.registry import get_model


def main() -> None:
    # 1. Show a model file, as shipped.
    print("=== x86tm.cat " + "=" * 50)
    print(library_source("x86tm.cat"))

    # 2. Evaluate it against a paper execution (Fig. 2: a strong
    # isolation violation).
    entry = CATALOG["fig2"]
    model = load_cat_model("x86")
    print("=== evaluating x86tm.cat on Fig. 2 " + "=" * 29)
    print(entry.execution.describe())
    print()
    verdict = model.check(entry.execution)
    for check, result in zip(model.compiled.axiom_checks, verdict.results):
        print(f"  {check.describe(result.holds)}")
    print(f"  => consistent: {verdict.consistent}")
    print()

    # 3. The C++ model carries its race detector as a herd-style flag.
    cpp = load_cat_model("cpp")
    for name, entry in CATALOG.items():
        if entry.racy is None:
            continue
        flags = cpp.flags_raised(entry.execution)
        print(
            f"  {name:<28} DataRace flag: "
            f"{'raised' if 'DataRace' in flags else 'clear '} "
            f"(catalog says racy={entry.racy})"
        )
    print()

    # 4. Cross-validate every model against its native twin on the
    # whole catalog.
    print("=== cross-validation (cat vs native) " + "=" * 27)
    for name in sorted(CAT_MODEL_FILES):
        cat = load_cat_model(name)
        native = get_model(name)
        agree = sum(
            cat.consistent(e.execution) == native.consistent(e.execution)
            for e in CATALOG.values()
        )
        print(
            f"  {name:<14} {library_path(CAT_MODEL_FILES[name]).name:<14}"
            f" agrees on {agree}/{len(CATALOG)} catalog executions"
        )


if __name__ == "__main__":
    main()
