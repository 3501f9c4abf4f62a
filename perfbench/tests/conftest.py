import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)


@pytest.fixture(scope="module")
def traced_ray(tmp_path_factory):
    """A one-CPU Ray session whose workers trace into a fresh dir."""
    import ray

    from perfbench import trace

    trace_dir = str(tmp_path_factory.mktemp("trace"))
    os.environ["PYTHONPATH"] = ROOT
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=128 << 20,
             runtime_env={"env_vars": {"PYTHONPATH": ROOT,
                                       trace.TRACE_DIR_ENV: trace_dir},
                          "worker_process_setup_hook":
                              "perfbench.trace.worker_setup"})
    trace.install(trace_dir)
    yield trace_dir
    ray.shutdown()
