// Host-platform timing parameters (the Fig. 5 testbed model).
//
// The paper's COTS experiment runs on an AMD Ryzen 7 1800X + GTX 1050 Ti over
// PCIe. We model the end-to-end cost structure analytically: API-call and
// launch overheads, PCIe transfer bandwidth/latency, host compute, and the
// DCLS output-comparison rate. Absolute values are rough; what matters for
// reproducing Fig. 5 is the *ratio* of kernel time to everything else.
#pragma once

#include "common/fields.h"
#include "common/types.h"

namespace higpu::runtime {

struct PlatformParams {
  // PCIe 3.0 x16 effective bandwidths.
  double pcie_h2d_gbps = 11.0;
  double pcie_d2h_gbps = 11.0;
  // Fixed per-call overheads.
  NanoSec api_call_ns = 5'000;        // cudaMalloc/cudaFree and friends
  NanoSec memcpy_latency_ns = 10'000; // per cudaMemcpy invocation
  NanoSec launch_ns = 4'000;          // per async kernel launch (driver path)
  NanoSec sync_ns = 4'000;            // per cudaDeviceSynchronize
  // Host-side processing rates.
  double host_compare_gbps = 3.0;    // DCLS output comparison
  double host_compute_gbps = 1.0;    // generic host phases
  double file_parse_gbps = 0.15;     // text input-file parsing (fscanf-style)
  double mem_generate_gbps = 1.2;    // in-memory synthetic input generation
  // Checkpoint restore: reloading a protected in-device state image at
  // device-memory bandwidth, plus a fixed rollback-sequencing overhead.
  // Captures are modelled as free (shadowed/incremental, off the critical
  // path); restores are synchronous — they gate the recovery re-execution.
  double ckpt_restore_gbps = 32.0;
  NanoSec ckpt_restore_latency_ns = 2'000;

  NanoSec transfer_ns(u64 bytes, bool h2d) const {
    const double gbps = h2d ? pcie_h2d_gbps : pcie_d2h_gbps;
    return memcpy_latency_ns +
           static_cast<NanoSec>(static_cast<double>(bytes) / gbps);
  }
  NanoSec compare_ns(u64 bytes) const {
    return static_cast<NanoSec>(static_cast<double>(bytes) / host_compare_gbps);
  }
  NanoSec host_compute_ns(u64 bytes) const {
    return static_cast<NanoSec>(static_cast<double>(bytes) / host_compute_gbps);
  }
  NanoSec parse_ns(u64 bytes) const {
    return static_cast<NanoSec>(static_cast<double>(bytes) / file_parse_gbps);
  }
  NanoSec generate_ns(u64 bytes) const {
    return static_cast<NanoSec>(static_cast<double>(bytes) / mem_generate_gbps);
  }
  NanoSec restore_ns(u64 bytes) const {
    return ckpt_restore_latency_ns +
           static_cast<NanoSec>(static_cast<double>(bytes) / ckpt_restore_gbps);
  }

  bool operator==(const PlatformParams& other) const = default;
};

template <FieldsOf<PlatformParams> R, class F>
void visit_fields(R& r, F&& f) {
  f("pcie_h2d_gbps", r.pcie_h2d_gbps);
  f("pcie_d2h_gbps", r.pcie_d2h_gbps);
  f("api_call_ns", r.api_call_ns);
  f("memcpy_latency_ns", r.memcpy_latency_ns);
  f("launch_ns", r.launch_ns);
  f("sync_ns", r.sync_ns);
  f("host_compare_gbps", r.host_compare_gbps);
  f("host_compute_gbps", r.host_compute_gbps);
  f("file_parse_gbps", r.file_parse_gbps);
  f("mem_generate_gbps", r.mem_generate_gbps);
  f("ckpt_restore_gbps", r.ckpt_restore_gbps);
  f("ckpt_restore_latency_ns", r.ckpt_restore_latency_ns);
}

}  // namespace higpu::runtime
