"""FQ-BERT reproduction: fully quantized BERT + FPGA accelerator simulator.

Reproduction of Liu, Li & Cheng, "Hardware Acceleration of Fully Quantized
BERT for Efficient Natural Language Processing" (DATE 2021).

Subpackages:

- :mod:`repro.autograd` — numpy autograd engine (training substrate)
- :mod:`repro.bert` — BERT encoder implementation
- :mod:`repro.data` — synthetic GLUE-like tasks (SST-2-like, MNLI-like)
- :mod:`repro.quant` — the FQ-BERT quantization flow (the paper's Sec. II)
- :mod:`repro.accel` — the accelerator simulator (the paper's Sec. III)
- :mod:`repro.serve` — dynamic-batching inference serving over the integer
  model and simulated accelerator instances (LRU tokenization cache,
  sequence-length-bucketed batching, multi-device routing, latency/SLO
  accounting on a deterministic simulated clock)
- :mod:`repro.fleet` — cluster-scale serving simulation over
  :mod:`repro.serve`: scenario workload generation, heterogeneous replica
  fleets with SLO-aware routing and load shedding, autoscaling, and
  replica failure injection/recovery
- :mod:`repro.perf` — profiling, the seed reference kernels, pinned
  synthetic workloads, and the wall-clock contracts of ``repro.cli bench``
- :mod:`repro.baselines` — CPU/GPU roofline baselines (Table IV)
- :mod:`repro.experiments` — drivers regenerating every table and figure
"""

__version__ = "1.1.0"
