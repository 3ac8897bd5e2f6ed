"""Set-up as a user pays it: import ``dockopt.cli`` and load a config.

Run in a fresh interpreter with ``src`` on PYTHONPATH:

    python3 bench/setup_probe.py bench/scenario.yaml

Prints one JSON object with the import time, the ``load_config`` time and
the scenario the file named.
"""

import json
import sys
import time

t0 = time.perf_counter()
import dockopt.cli  # noqa: E402

t1 = time.perf_counter()
config = dockopt.cli.load_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_ms": (t2 - t1) * 1e3,
                  "scenario": config.scenario.name}))
