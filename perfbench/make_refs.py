"""Regenerate ``perfbench/refs/verdicts.json`` on the scalar path.

    python3 perfbench/make_refs.py

Every reference is computed once with batching off
(``set_batch_size(0)``), i.e. by the scalar IR evaluator, and committed:

* diy-l7 and executions: a verdict digest per native model column;
* synth: digests of the Forbid and Allow suites' canonical keys per
  Table-1 cell, and whether each lock-elision check found a
  counterexample;
* serve: the item names of every corpus dialect directory (mapped to
  the file whose expected verdicts ``tests/corpus_verdicts.json``
  holds) and a verdict digest per directory x ``!notm`` model.

Run it only when a change is meant to alter verdicts or inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    LOCK_ELISION,
    MODELS,
    REFS_PATH,
    SYNTH_CELLS,
    DiyL7,
    Executions,
    column_digests,
    digest,
    synth_keys,
)


def campaign_refs(workload) -> dict:
    workload.setup()
    workload.prepare()
    result = workload.run_pass()
    if result.errors():
        raise SystemExit(f"checker errors: {result.errors()[:3]}")
    return {
        "items": len(result.item_names),
        "columns": column_digests(result, MODELS),
    }


def serve_refs() -> dict:
    from repro.engine.campaign import litmus_suite, run_campaign

    corpus = ROOT / "tests" / "corpus"
    golden = json.loads((ROOT / "tests" / "corpus_verdicts.json").read_text())
    names: dict[str, dict[str, str]] = {}
    notm: dict[str, dict[str, str]] = {}
    for d in sorted(p.name for p in corpus.iterdir() if p.is_dir()):
        paths = sorted(str(p) for p in (corpus / d).glob("*.litmus"))
        items = litmus_suite(paths)
        names[d] = {
            item.name: f"{d}/{Path(path).name}" for item, path in zip(items, paths)
        }
        specs = [f"{m}!notm" for m in MODELS]
        result = run_campaign(items, list(MODELS) + specs)
        for item in items:
            for model in MODELS:
                want = golden[names[d][item.name]][model]
                if result.verdict(item.name, model) != want:
                    raise SystemExit(
                        f"{item.name} under {model} disagrees with "
                        "tests/corpus_verdicts.json"
                    )
        notm[d] = {
            spec: digest(
                f"{item.name}\t{int(result.verdict(item.name, spec))}"
                for item in items
            )
            for spec in specs
        }
    return {"names": names, "notm": notm}


def synth_refs() -> dict:
    from repro.metatheory.lockelision import check_lock_elision
    from repro.synth.synthesis import synthesize

    return {
        "synthesis": {
            f"{arch}/{n}": synth_keys(synthesize(arch, n))
            for arch, n in SYNTH_CELLS
        },
        "lock_elision": {
            arch: {"sound": check_lock_elision(arch).sound}
            for arch in LOCK_ELISION
        },
    }


def main() -> int:
    from repro.litmus.candidates import set_batch_size

    set_batch_size(0)
    refs = {
        "path": "scalar (set_batch_size(0))",
        "diy-l7": campaign_refs(DiyL7(0)),
        "executions": campaign_refs(Executions(0)),
        "synth": synth_refs(),
        "serve": serve_refs(),
    }
    REFS_PATH.parent.mkdir(exist_ok=True)
    with REFS_PATH.open("w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
