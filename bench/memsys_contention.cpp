// Memory-system contention bench: drives MemHierarchy directly with
// synthetic multi-SM access streams and reports, per memory configuration,
// both the model's own evaluation throughput (accesses simulated per second
// of host time — the hot path the O(n^2) coalescer fix and flat MSHR serve)
// and the modelled contention (makespan, hit rates, row-buffer locality,
// MSHR stalls, writeback traffic). Emits BENCH_memsys.json so the memory
// model's perf and fidelity trajectory is tracked from PR to PR.
//
// default_over_mshr4_host_ratio is the default (32-entry MSHR) config's
// model throughput on the stream pattern over the mshr4 config's: how much
// host cost grows with MSHR capacity. Stream misses on nearly every access
// and stalls on a full MSHR, so the ratio stays below 1 (a stall scans the
// MSHR for its earliest entry). It is a ms-scale host timing: report it,
// do not gate on it.
//
//   $ ./bench_memsys_contention [--rounds=N] [--out=BENCH_memsys.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "memsys/hierarchy.h"

namespace {

using namespace higpu;
using memsys::MemHierarchy;
using memsys::MemParams;

constexpr u32 kSms = 6;

struct PatternResult {
  std::string name;
  double accesses_per_sec = 0;  // host-side model throughput
  Cycle makespan = 0;           // modelled completion of the last access
  double l1_hit_rate = 0;
  double row_hit_rate = 0;
  u64 mshr_stalls = 0;
  u64 writebacks = 0;  // L1 dirty evictions + write-through stores
};

enum class Pattern { kStream, kStride, kHotset, kChase };

Pattern parse_pattern(const std::string& name) {
  if (name == "stream") return Pattern::kStream;
  if (name == "stride") return Pattern::kStride;
  if (name == "hotset") return Pattern::kHotset;
  return Pattern::kChase;
}

/// One access of pattern `p` for SM `sm` at round `r`. Patterns are
/// deterministic; `rng` is only used by the chase pattern.
u64 pattern_line(Pattern p, u32 sm, u32 r, Rng& rng) {
  switch (p) {
    case Pattern::kStream:  // disjoint sequential regions: row friendly
      return static_cast<u64>(sm) * (1u << 20) + r;
    case Pattern::kStride:  // shared region, large prime stride: row thrash
      return (static_cast<u64>(r) * 97 + sm * 13) % (1u << 16);
    case Pattern::kHotset:  // small shared working set: hits + write traffic
      return (static_cast<u64>(r) * 7 + sm) % 96;
    case Pattern::kChase:   // uniform random lines
      break;
  }
  return rng.next_below(1 << 18);
}

PatternResult run_pattern(const std::string& name, const MemParams& mp,
                          u32 rounds) {
  MemHierarchy mem(kSms, mp);
  Rng rng(2019);
  PatternResult out;
  out.name = name;
  // Resolve the pattern outside the timed loop: accesses_per_sec tracks the
  // model's hot path, not string comparisons.
  const Pattern pat = parse_pattern(name);
  const bool write_heavy = pat == Pattern::kHotset;

  const auto t0 = std::chrono::steady_clock::now();
  Cycle makespan = 0;
  for (u32 r = 0; r < rounds; ++r) {
    const Cycle now = static_cast<Cycle>(r) * 2;
    for (u32 sm = 0; sm < kSms; ++sm) {
      const u64 line = pattern_line(pat, sm, r, rng);
      const bool is_write =
          write_heavy ? (r + sm) % 2 == 0 : (r + sm) % 10 == 0;
      makespan = std::max(makespan, mem.access_line(sm, line, is_write, now).done);
    }
  }
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const StatSet s = mem.stats();
  const u64 hits = s.get("l1_hits") + s.get("l1_write_hits");
  const u64 total = hits + s.get("l1_misses") + s.get("l1_write_misses") +
                    s.get("l1_mshr_merges");
  const u64 row = s.get("dram_row_hits") + s.get("dram_row_misses");
  out.accesses_per_sec =
      sec > 0 ? static_cast<double>(rounds) * kSms / sec : 0.0;
  out.makespan = makespan;
  out.l1_hit_rate = total ? static_cast<double>(hits) / total : 0.0;
  out.row_hit_rate = row ? static_cast<double>(s.get("dram_row_hits")) / row : 0.0;
  out.mshr_stalls = s.get("l1_mshr_stalls");
  out.writebacks = s.get("l1_writebacks") + s.get("l1_write_through");
  return out;
}

struct Config {
  std::string label;
  MemParams mp;
};

std::vector<Config> configs() {
  std::vector<Config> out;
  out.push_back({"default", MemParams{}});
  Config wt{"wt-nwa", MemParams{}};
  wt.mp.l1_write_policy = memsys::WritePolicy::kWriteThrough;
  wt.mp.l1_write_alloc = memsys::WriteAlloc::kNoAllocate;
  out.push_back(wt);
  Config mshr{"mshr4", MemParams{}};
  mshr.mp.l1_mshr_entries = 4;
  out.push_back(mshr);
  Config dbk{"dbk1", MemParams{}};
  dbk.mp.dram_banks_per_channel = 1;
  out.push_back(dbk);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  u32 rounds = 20000;
  std::string out_path = "BENCH_memsys.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rounds=", 9) == 0)
      rounds = static_cast<u32>(std::strtoul(argv[i] + 9, nullptr, 10));
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
  }

  const std::vector<std::string> patterns = {"stream", "stride", "hotset",
                                             "chase"};
  const std::vector<Config> cfgs = configs();

  std::string json = "{\n  \"bench\": \"memsys_contention\",\n  \"rounds\": " +
                     std::to_string(rounds) + ",\n  \"configs\": [\n";
  double stream_default = 0, stream_mshr4 = 0;
  for (size_t c = 0; c < cfgs.size(); ++c) {
    const Config& cfg = cfgs[c];
    std::printf("-- %s --\n", cfg.label.c_str());
    json += "    {\"label\": \"" + cfg.label + "\", \"patterns\": [\n";
    for (size_t p = 0; p < patterns.size(); ++p) {
      const PatternResult r = run_pattern(patterns[p], cfg.mp, rounds);
      if (r.name == "stream") {
        if (cfg.label == "default") stream_default = r.accesses_per_sec;
        if (cfg.label == "mshr4") stream_mshr4 = r.accesses_per_sec;
      }
      std::printf("  %-7s %8.3g acc/s  makespan=%-9llu l1=%5.1f%%  row=%5.1f%%  "
                  "stalls=%-6llu wb=%llu\n",
                  r.name.c_str(), r.accesses_per_sec,
                  static_cast<unsigned long long>(r.makespan),
                  100.0 * r.l1_hit_rate, 100.0 * r.row_hit_rate,
                  static_cast<unsigned long long>(r.mshr_stalls),
                  static_cast<unsigned long long>(r.writebacks));
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "      {\"name\": \"%s\", \"model_accesses_per_sec\": "
                    "%.1f, \"makespan_cycles\": %llu, \"l1_hit_rate\": %.4f, "
                    "\"row_hit_rate\": %.4f, \"mshr_stalls\": %llu, "
                    "\"writebacks\": %llu}%s\n",
                    r.name.c_str(), r.accesses_per_sec,
                    static_cast<unsigned long long>(r.makespan), r.l1_hit_rate,
                    r.row_hit_rate,
                    static_cast<unsigned long long>(r.mshr_stalls),
                    static_cast<unsigned long long>(r.writebacks),
                    p + 1 < patterns.size() ? "," : "");
      json += buf;
    }
    json += std::string("    ]}") + (c + 1 < cfgs.size() ? "," : "") + "\n";
  }
  const double ratio = stream_mshr4 > 0 ? stream_default / stream_mshr4 : 0.0;
  std::printf("default/mshr4 stream host throughput: %.3f\n", ratio);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"default_over_mshr4_host_ratio\": %.4f\n}\n", ratio);
  json += buf;

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  }
  std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  return 1;
}
