"""Record the desk reference: exit code and output digest of every desk op
whose input does not depend on the seed.

    python3 perfbench/record_reference.py

Run it only at a commit whose answers are trusted; the desk workload then
fails any op whose output differs from what was recorded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import cli_call, desk_fixed_ops, digest  # noqa: E402

if __name__ == "__main__":
    ref = {}
    for key, argv in desk_fixed_ops():
        result = cli_call(argv)
        ref[key] = {"exit": result[0], "digest": digest(*result)}
    with open(HERE / "desk_reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ref)} desk ops")
