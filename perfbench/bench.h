// The benchmark's workloads, the per-pass result they return, and the
// result accounting shared by the measurement loop and the self-tests.
//
// Every workload reaches the simulator only through its public calls
// (exp::run_scenario and its pre_run/probe hooks, exp::CampaignRunner,
// exp::plan_units, serve::run_serve, runtime::Device accessors). A pass is
// the workload's fixed unit of work for one seed; passes repeat until the
// measurement window is used up.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/campaign.h"
#include "serve/engine.h"
#include "spans.h"

namespace perfbench {

/// FNV-1a, 64-bit: the digest of a pass's deterministic results.
class Fnv {
 public:
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hash every field ScenarioResult::deterministic_fields_equal compares.
void hash_result(Fnv& h, const higpu::exp::ScenarioResult& r);
/// Hash a serve run's completions, transitions and counters.
void hash_serve(Fnv& h, const higpu::serve::ServeResult& r);

/// A scenario counts as a failed operation when it did not run, or when it
/// ran fault-free but was not verified with matching redundant copies.
bool scenario_failed(const higpu::exp::ScenarioResult& r);

/// Counters summed over the scenarios of one pass; layer_metrics() turns
/// them into the deterministic per-layer metrics.
struct Tally {
  uint64_t ops = 0, failed = 0;
  uint64_t insn = 0, gtx = 0, cycles = 0, kernel_cycles = 0, ff_cycles = 0;
  uint64_t elapsed_ns = 0, launches = 0, block_hits = 0;
  uint64_t l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
  uint64_t mshr_stall_cycles = 0, row_hits = 0, row_misses = 0;
  uint64_t issued = 0, stall_sb = 0, stall_bar = 0, stall_struct = 0;
  // Fault outcomes (scenarios with an active fault plan).
  uint64_t faulted = 0, detected = 0, sdc = 0, corruptions = 0;
  uint64_t faulted_attempts = 0, rollbacks_recovered = 0;
  // Detections in retry/rollback modes, and those left unrecovered.
  uint64_t recoverable_detected = 0, unrecovered = 0;

  void add(const higpu::exp::ScenarioResult& r,
           higpu::core::RedundancySpec::Recovery recovery);
};

/// Deterministic per-layer metrics of one pass (name -> value).
std::map<std::string, double> layer_metrics(const Tally& t);

/// What one pass returns. Host-time fields are measured; everything in
/// `det` is a deterministic function of the seed.
struct PassResult {
  uint64_t ops = 0;        // programs run / scenarios run / requests served
  bool requests = false;   // ops are served requests, not scenarios
  uint64_t attempted = 0;  // operations counted for error_rate
  uint64_t failed = 0;
  uint64_t digest = 0;     // FNV over every deterministic result field
  double modelled_ms = 0;  // modelled platform time the pass covered
  double host_s = 0;       // pass wall time (set by the measurement loop)
  bool consistent = true;  // traced results equal the untraced ones
  /// Host ms of each operation, where one is observable.
  std::vector<double> op_host_ms;
  /// Host seconds inside the simulation engine, summed over operations.
  double sim_host_s = 0;
  /// Host seconds of every operation summed across threads.
  double busy_host_s = 0;
  /// Worker threads the pass used (parallel-efficiency denominator).
  unsigned threads = 1;
  std::map<std::string, double> det;
  /// Host metrics only a traced pass can measure (hooks, snapshot I/O).
  std::map<std::string, double> traced;
};

struct Config {
  uint64_t seed = 2019;
  unsigned threads = 2;  // fault-campaign worker threads
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs of a pass from the seed (timed as set-up; may run
  /// several times, each replacing the previous inputs).
  virtual void setup() = 0;
  /// Run one pass. With `spans` set, record a span around each layer call
  /// under `parent` (the pass span).
  virtual PassResult run_pass(SpanLog* spans, int parent) = 0;
};

/// The four workloads, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg);

}  // namespace perfbench
