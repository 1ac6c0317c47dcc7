"""Self-test of the benchmark harness: python3 perfbench/selftest.py

Checks that the generators write byte-identical files for a fixed seed,
and that an outcome differing from the reference table, here by a
corrupted availability, is counted as a failure.
"""

import copy
import json
import os
import shutil
import sys

import gen
import run


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: {message}")


def generators_are_deterministic() -> None:
    for seed in (0, 7):
        chain = [gen.dump(gen.shuffled_listing(gen.chain_model(2, 3), seed)) for _ in range(2)]
        check(chain[0] == chain[1], "chain listing differs for one seed")
        batch = [[gen.dump(doc) + f"{t} {r}" for doc, t, r in gen.small_batch(seed)]
                 for _ in range(2)]
        check(batch[0] == batch[1], "small batch differs for one seed")
    one, other = (json.loads(gen.dump(gen.shuffled_listing(gen.chain_model(2, 3), s)))
                  for s in (0, 7))
    check(one != other, "the seed does not change the chain listing")
    for key in ("states", "transitions"):
        check(sorted(map(json.dumps, one[key])) == sorted(map(json.dumps, other[key])),
              "the seed changes the chain model itself")


def corrupted_reference_fails() -> None:
    from checks import Checker

    work = os.path.join(run.HERE, "_work", f"selftest-{os.getpid()}")
    try:
        _, cases = run.setup("synth-chain", 0, work)
        outcome = run.run_case(cases[0])
        reference = run.load_reference()["synth-chain"]
        check(Checker(0, reference).problems(outcome) == [], "correct outcome flagged")
        corrupted = copy.deepcopy(reference)
        corrupted["cases"][cases[0].name]["availability"] = "3/5"
        check(bool(Checker(0, corrupted).problems(outcome)), "corrupted reference not flagged")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    run.import_package()
    generators_are_deterministic()
    corrupted_reference_fails()
    print("selftest: ok")
    sys.exit(0)
