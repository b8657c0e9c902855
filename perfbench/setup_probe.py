"""Set-up time of a fresh interpreter: import rotorlift, then one first call per signature.

Reads a JSON request on stdin before starting the clock:
    {"src": "<checkout>/src", "calls": [{"p": 5, "q": 4, "kind": "recover", "data": [...]}]}
``data`` holds matrix rows for "recover" (first call validate_pseudo_orthogonal)
or the coefficients of a multivector for "forward" (first call forward_matrix).
Prints one JSON line with
``setup_s`` (import plus all first calls) and ``tables_s`` (the part spent in
``Signature.metric()``, which builds the signature's tables).  The timed
region starts before numpy is imported, because rotorlift imports it.
"""

import json
import sys
import time


def main() -> None:
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, request["src"])
    start = time.perf_counter()
    import rotorlift

    tables = 0.0
    for call in request["calls"]:
        sig = rotorlift.Signature(call["p"], call["q"])
        before = time.perf_counter()
        sig.metric()
        tables += time.perf_counter() - before
        try:
            if call["kind"] == "forward":
                rotorlift.forward_matrix(rotorlift.Multivector(sig, call["data"]))
            else:
                rotorlift.validate_pseudo_orthogonal(call["data"], sig)
        except rotorlift.RotorLiftError:
            pass  # a rejected input has built the tables all the same
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "tables_s": tables}))


if __name__ == "__main__":
    main()
