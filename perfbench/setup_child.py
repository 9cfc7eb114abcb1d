"""Time one set-up in a fresh process, from ``import lstmn`` until the first
batch, the model and the optimizer are ready; prints {"setup_s": ...}.

    python3 perfbench/setup_child.py <workload> <data dir>

``run.py`` starts it with the BLAS pool already pinned in the environment.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

if __name__ == "__main__":
    start = time.perf_counter()
    import lstmn  # noqa: F401  (the import is part of set-up)

    import harness
    import workloads
    workload, data_dir = sys.argv[1], sys.argv[2]
    paths = {"train_data": os.path.join(data_dir, "train.txt"),
             "val_data": os.path.join(data_dir, "valid.txt")}
    harness.set_up(harness.make_config(workloads.WORKLOADS[workload], paths))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
