"""Rebuild witnesses.jsonl, the verify workload's input, from run_census.

Runs the g<=3 and i<=4 censuses (the second takes about two minutes on one
core), checks the sha256 of each output against reference.json and of the
joined file as well, and only then writes ``perfbench/witnesses.jsonl``.
Any differing hash stops it before anything is written.

    PYTHONPATH=src python3 perfbench/make_witnesses.py
"""

import hashlib
import os
import sys
import tempfile

from morita.census import CensusTask, run_census

from workloads import WITNESSES, load_reference

PARTS = (("g<=3", dict(max_x=3)), ("i<=4", dict(max_x=4, involutive=True)))


def main():
    ref = load_reference()["witnesses"]
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, kwargs in PARTS:
            path = os.path.join(tmp, "part.jsonl")
            run_census(CensusTask(jobs=1, out=path, **kwargs))
            with open(path, "rb") as fh:
                data = fh.read()
            got = hashlib.sha256(data).hexdigest()
            if got != ref["parts"][label]:
                print(f"refusing to write: census {label} sha256 {got} "
                      f"!= {ref['parts'][label]}", file=sys.stderr)
                return 1
            chunks.append(data)
    data = b"".join(chunks)
    got = hashlib.sha256(data).hexdigest()
    if got != ref["sha256"]:
        print(f"refusing to write: witness file sha256 {got} != "
              f"{ref['sha256']}", file=sys.stderr)
        return 1
    with open(WITNESSES, "wb") as fh:
        fh.write(data)
    records = data.count(b"\n")
    print(f"{WITNESSES}: {records} records, sha256 {got}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
