// Property tests for the memory system: the SetAssocCache is checked
// against an independent reference LRU model over random access streams;
// coalescer invariants hold for arbitrary address patterns; the hierarchy's
// timing is monotonic and causal; and a golden stream pins every response,
// counter and snapshot byte of the hierarchy across refactors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/serial.h"
#include "common/rng.h"
#include "memsys/cache.h"
#include "memsys/coalescer.h"
#include "memsys/fastdiv.h"
#include "memsys/hierarchy.h"

namespace higpu::memsys {
namespace {

/// Independent reference: per-set LRU list of (tag, dirty).
class RefCache {
 public:
  RefCache(u32 size_bytes, u32 assoc, u32 line_bytes)
      : sets_(size_bytes / line_bytes / assoc), assoc_(assoc) {}

  struct Result {
    bool hit;
    bool evicted_dirty;
    u64 evicted_line;
  };

  Result access(u64 line, bool write) {
    const u32 set = static_cast<u32>(line % sets_);
    const u64 tag = line / sets_;
    auto& lru = sets_state_[set];  // front = most recent
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->first == tag) {
        const bool dirty = it->second || write;
        lru.erase(it);
        lru.emplace_front(tag, dirty);
        return {true, false, 0};
      }
    }
    Result r{false, false, 0};
    if (lru.size() == assoc_) {
      r.evicted_dirty = lru.back().second;
      r.evicted_line = lru.back().first * sets_ + set;
      lru.pop_back();
    }
    lru.emplace_front(tag, write);
    return r;
  }

 private:
  u32 sets_;
  u32 assoc_;
  std::map<u32, std::list<std::pair<u64, bool>>> sets_state_;
};

struct CacheGeom {
  u32 size;
  u32 assoc;
};

class CacheVsReference : public ::testing::TestWithParam<CacheGeom> {};

TEST_P(CacheVsReference, RandomStreamMatchesReferenceModel) {
  const CacheGeom g = GetParam();
  SetAssocCache dut(g.size, g.assoc, 128);
  RefCache ref(g.size, g.assoc, 128);
  Rng rng(g.size * 31 + g.assoc);

  for (u32 i = 0; i < 20000; ++i) {
    // Mix of hot lines (locality) and cold misses.
    const u64 line = rng.next_bool(0.7f) ? rng.next_below(64)
                                         : rng.next_below(1 << 16);
    const bool write = rng.next_bool(0.3f);
    const CacheAccessResult got = dut.access(line, write);
    const RefCache::Result want = ref.access(line, write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i << " line " << line;
    ASSERT_EQ(got.writeback_line.has_value(), want.evicted_dirty)
        << "access " << i << " line " << line;
    if (got.writeback_line) {
      ASSERT_EQ(*got.writeback_line, want.evicted_line) << "access " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(CacheGeom{4 * 1024, 1}, CacheGeom{8 * 1024, 2},
                      CacheGeom{24 * 1024, 4}, CacheGeom{64 * 1024, 8}),
    [](const auto& info) {
      return std::to_string(info.param.size / 1024) + "k_w" +
             std::to_string(info.param.assoc);
    });

// ---- Divide-free indexing and one-pass coalescing vs plain / and % ----

/// Numerators that stress a reciprocal divide by `d`: the ends of the
/// 32-bit range, multiples of d and their neighbours near 2^32, values at
/// and above 2^32 (the plain-divide fallback) and random draws.
std::vector<u64> edge_numerators(u32 d, Rng& rng) {
  std::vector<u64> out = {0, 1, d - 1ull, d, d + 1ull, 0xFFFFFFFFull,
                          1ull << 32, (1ull << 32) + 1, ~0ull, ~0ull - d};
  const u64 top = 0xFFFFFFFFull / d * d;  // largest 32-bit multiple of d
  for (u64 m : {top, top - d}) {
    out.push_back(m);
    if (m > 0) out.push_back(m - 1);
    out.push_back(m + 1);
  }
  for (u32 i = 0; i < 2000; ++i) {
    out.push_back(rng.next_u32());
    out.push_back(rng.next_u64());
  }
  return out;
}

TEST(FastDiv, MatchesPlainDivide) {
  Rng rng(48);
  for (u32 d : {1u, 2u, 3u, 7u, 48u, 96u, 1000u, 1024u, 0x80000000u,
                0xFFFFFFFFu}) {
    const FastDiv f(d);
    for (u64 a : edge_numerators(d, rng))
      ASSERT_EQ(f.quot(a), a / d) << a << " / " << d;
  }
}

TEST(CacheIndex, SetAndTagMatchReferenceForEdgeGeometries) {
  // num_sets of 1 (fully associative), 48 (the default L1) and 1024 (the
  // default L2), with a non-power-of-two line size in the mix; lines at and
  // above 2^32 take the plain-divide fallback. The reference model indexes
  // with plain % and /, and dirty victims must map back to the line that
  // was installed.
  struct Geom {
    u32 size, assoc, line_bytes, sets;
  };
  for (const Geom g : {Geom{512, 4, 128, 1}, Geom{24 * 1024, 4, 128, 48},
                       Geom{96 * 48 * 4, 4, 96, 48},
                       Geom{128 * 1024, 1, 128, 1024}}) {
    SetAssocCache dut(g.size, g.assoc, g.line_bytes);
    ASSERT_EQ(dut.num_sets(), g.sets);
    RefCache ref(g.size, g.assoc, g.line_bytes);
    Rng rng(g.sets);
    for (u32 i = 0; i < 20000; ++i) {
      const float kind = rng.next_float();
      const u64 line = kind < 0.5f   ? rng.next_below(4 * g.sets)
                       : kind < 0.8f ? rng.next_below(1 << 16)
                       : kind < 0.9f ? (1ull << 32) - 2 + rng.next_below(4)
                                     : ~0ull - rng.next_below(8 * g.sets);
      const bool write = rng.next_bool(0.4f);
      const CacheAccessResult got = dut.access(line, write);
      const RefCache::Result want = ref.access(line, write);
      ASSERT_EQ(got.hit, want.hit) << g.sets << " sets, access " << i;
      ASSERT_EQ(got.writeback_line.has_value(), want.evicted_dirty);
      if (got.writeback_line) {
        ASSERT_EQ(*got.writeback_line, want.evicted_line);
      }
      ASSERT_TRUE(dut.probe(line));
    }
  }
}

/// The coalescer's contract, computed the obvious way.
std::vector<u64> reference_lines(const std::vector<u64>& addrs,
                                 u32 line_bytes) {
  std::vector<u64> out;
  for (u64 a : addrs) out.push_back(a / line_bytes);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(CoalescerEdges, MatchesSortUniqueForEveryLaneOrder) {
  const u64 hi = 1ull << 32;
  const std::vector<std::vector<u64>> patterns = {
      {},                                         // empty
      {512},                                      // one lane
      {0, 4, 8, 12, 0, 4},                        // duplicates, wrapping
      {4, 4, 4, 4},                               // broadcast
      {1020, 896, 640, 512, 256, 128, 0},         // descending
      {0, 4096, 4, 4100, 8, 4104},                // interleaved
      {hi - 4, hi, hi + 96, hi + 200, ~0ull - 3},  // at and above 2^32
      {~0ull - 3, hi + 200, hi, 0},               // descending across 2^32
  };
  Rng rng(96);
  std::vector<u64> lines;  // reused: coalesce_into must clear it
  for (u32 line_bytes : {128u, 96u, 32u, 1u}) {
    for (const std::vector<u64>& addrs : patterns) {
      coalesce_into(addrs, line_bytes, lines);
      ASSERT_EQ(lines, reference_lines(addrs, line_bytes))
          << "line_bytes " << line_bytes;
    }
    for (u32 iter = 0; iter < 500; ++iter) {
      std::vector<u64> addrs;
      const u64 base = rng.next_bool(0.2f) ? hi - 256 : rng.next_below(1 << 20);
      const u32 lanes = static_cast<u32>(rng.next_below(33));
      for (u32 l = 0; l < lanes; ++l) {
        // Mostly ascending lanes, with strides that repeat and skip lines
        // and an occasional lane that steps backwards.
        const u64 a = rng.next_bool(0.1f) ? rng.next_below(1 << 20)
                                          : base + l * rng.next_below(200);
        addrs.push_back(a);
      }
      coalesce_into(addrs, line_bytes, lines);
      ASSERT_EQ(lines, reference_lines(addrs, line_bytes));
      for (u64 a : addrs) ASSERT_EQ(line_of(a, line_bytes), a / line_bytes);
    }
  }
}

class CoalescerProperty : public ::testing::TestWithParam<u64> {};

TEST_P(CoalescerProperty, InvariantsHoldForRandomPatterns) {
  Rng rng(GetParam());
  std::vector<u64> words;  // conflict-degree scratch, reused across calls
  std::vector<u32> per_bank;
  for (u32 iter = 0; iter < 200; ++iter) {
    std::vector<u64> addrs;
    const u32 lanes = 1 + static_cast<u32>(rng.next_below(32));
    for (u32 l = 0; l < lanes; ++l)
      addrs.push_back(rng.next_below(1 << 20) * 4);
    const std::vector<u64> lines = coalesce(addrs, 128);

    // 1 <= |lines| <= lanes.
    ASSERT_GE(lines.size(), 1u);
    ASSERT_LE(lines.size(), addrs.size());
    // No duplicates.
    for (size_t i = 0; i < lines.size(); ++i)
      for (size_t j = i + 1; j < lines.size(); ++j)
        ASSERT_NE(lines[i], lines[j]);
    // Every address covered; every line justified by some address.
    for (u64 a : addrs)
      ASSERT_NE(std::find(lines.begin(), lines.end(), a / 128), lines.end());
    for (u64 line : lines) {
      bool justified = false;
      for (u64 a : addrs) justified |= a / 128 == line;
      ASSERT_TRUE(justified);
    }

    // Bank-conflict degree bounded by distinct word count and >= 1.
    const u32 deg = smem_conflict_degree(addrs, 32, words, per_bank);
    ASSERT_GE(deg, 1u);
    ASSERT_LE(deg, lanes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescerProperty, ::testing::Range<u64>(1, 9));

/// The four L1 write-policy combinations, the axis the property suite
/// sweeps: every invariant must hold under every policy.
std::vector<MemParams> policy_matrix() {
  std::vector<MemParams> out;
  for (WritePolicy wp : {WritePolicy::kWriteBack, WritePolicy::kWriteThrough}) {
    for (WriteAlloc wa : {WriteAlloc::kAllocate, WriteAlloc::kNoAllocate}) {
      MemParams mp;
      mp.l1_write_policy = wp;
      mp.l1_write_alloc = wa;
      out.push_back(mp);
    }
  }
  return out;
}

class HierarchyPolicyProperty : public ::testing::TestWithParam<MemParams> {};

TEST_P(HierarchyPolicyProperty, CompletionNeverBeforeIssue) {
  MemParams mp = GetParam();
  mp.l1_mshr_entries = 8;  // small enough that MSHR-full stalls exercise
  MemHierarchy mem(4, mp);
  Rng rng(77);
  Cycle now = 0;
  for (u32 i = 0; i < 5000; ++i) {
    now += rng.next_below(3);
    const u32 sm = static_cast<u32>(rng.next_below(4));
    const u64 line = rng.next_below(1 << 14);
    const MemResponse r =
        rng.next_bool(0.1f)
            ? mem.access_atomic(sm, line, now)
            : mem.access_line(sm, line, rng.next_bool(0.4f), now);
    ASSERT_GT(r.done, now);
    ASSERT_GT(r.issue_free, now);
    ASSERT_LT(r.done - now, 100'000u) << "latency blew up";
  }
}

TEST_P(HierarchyPolicyProperty, StatsBalance) {
  const MemParams mp = GetParam();
  MemHierarchy mem(2, mp);
  Rng rng(5);
  u64 accesses = 0;
  for (u32 i = 0; i < 3000; ++i) {
    mem.access_line(static_cast<u32>(rng.next_below(2)),
                    rng.next_below(4096), rng.next_bool(0.5f),
                    i * 2);
    ++accesses;
  }
  const StatSet& s = mem.stats();
  // Every access is classified exactly once.
  const u64 classified = s.get("l1_hits") + s.get("l1_misses") +
                         s.get("l1_write_hits") + s.get("l1_write_misses") +
                         s.get("l1_mshr_merges");
  EXPECT_EQ(classified, accesses);
  // Every L2 access originates from an L1 miss, writeback or forwarded store.
  EXPECT_LE(s.get("l2_misses"), s.get("l1_misses") + s.get("l1_write_misses") +
                                    s.get("l1_writebacks") +
                                    s.get("l1_write_through"));
  // Write-through keeps the L1 clean: no L1 writebacks, and every store
  // (hit, miss or merge) was forwarded to the L2.
  if (mp.l1_write_policy == WritePolicy::kWriteThrough) {
    EXPECT_EQ(s.get("l1_writebacks"), 0u);
    EXPECT_GE(s.get("l1_write_through"),
              s.get("l1_write_hits") + s.get("l1_write_misses"));
  }
  // A counted MSHR stall always pins at least one stall cycle and vice
  // versa (the stall target is strictly in the future).
  EXPECT_EQ(s.get("l1_mshr_stalls") == 0, s.get("l1_mshr_stall_cycles") == 0);
  // Row-buffer accounting covers every DRAM transaction.
  EXPECT_EQ(s.get("dram_row_hits") + s.get("dram_row_misses"),
            s.get("dram_reads") + s.get("dram_writebacks"));
}

INSTANTIATE_TEST_SUITE_P(
    WritePolicies, HierarchyPolicyProperty,
    ::testing::ValuesIn(policy_matrix()), [](const auto& info) {
      const std::string l = mem_label(info.param);
      std::string name = l.empty() ? "wb_wa" : l;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(HierarchyProperty, HitLatencyIsBoundedByMissLatency) {
  MemParams mp;
  MemHierarchy mem(1, mp);
  // Cold miss then repeated hits: hits must be uniformly cheaper.
  const Cycle miss = mem.access_line(0, 42, false, 1000).done - 1000;
  for (u32 i = 0; i < 10; ++i) {
    const Cycle t = 100'000 + i * 1000;
    const Cycle hit = mem.access_line(0, 42, false, t).done - t;
    ASSERT_LT(hit, miss);
  }
}

/// FNV-1a accumulator over 64-bit words and byte ranges.
struct Fnv {
  u64 h = 0xcbf29ce484222325ull;
  void bytes(const u8* p, size_t n) { h = ckpt::fnv1a(p, n, h); }
  void word(u64 v) {
    u8 b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<u8>(v >> (8 * i));
    bytes(b, 8);
  }
  void blob(const std::vector<u8>& v) { bytes(v.data(), v.size()); }
};

std::vector<u8> saved_bytes(const MemHierarchy& mem) {
  ckpt::Writer w;
  mem.save(w);
  return w.blob();
}

/// Seeded mix of loads, stores and atomics from 4 SMs: hot lines that stay
/// L1-resident, cold lines that miss to DRAM, lines at or above 2^32 (the
/// range fault-corrupted addresses reach), bursts that fill the MSHR and
/// idle gaps that drain it. A snapshot round trip into a fresh hierarchy
/// halfway and a reset() near the end exercise the restored and reset
/// bookkeeping. Every response, the final stats() and every snapshot's
/// bytes feed one hash.
u64 golden_stream_hash(const MemParams& mp) {
  auto mem = std::make_unique<MemHierarchy>(4, mp);
  Rng rng(2019);
  Fnv h;
  Cycle now = 0;
  auto step = [&] {
    now += rng.next_bool(0.02f) ? 200 + rng.next_below(800)
                                : rng.next_below(3);
    const u32 sm = static_cast<u32>(rng.next_below(4));
    const float kind = rng.next_float();
    const u64 line = kind < 0.55f   ? rng.next_below(160)
                     : kind < 0.95f ? rng.next_below(1 << 18)
                     : kind < 0.98f ? (1ull << 32) + rng.next_below(4096)
                                    : ~0ull - rng.next_below(512);
    const float op = rng.next_float();
    const MemResponse r = op < 0.1f ? mem->access_atomic(sm, line, now)
                                    : mem->access_line(sm, line, op < 0.45f,
                                                       now);
    h.word(r.done);
    h.word(r.issue_free);
  };
  for (u32 i = 0; i < 15000; ++i) step();

  ckpt::Writer w;
  mem->save(w);
  h.blob(w.blob());
  const std::vector<u8> blob = w.blob();
  const std::vector<ckpt::Section> sections = w.take_sections();
  ckpt::Reader r(blob, sections);
  mem = std::make_unique<MemHierarchy>(4, mp);
  mem->restore(r);
  for (u32 i = 0; i < 15000; ++i) step();

  for (const auto& [name, v] : mem->stats().entries()) {
    h.bytes(reinterpret_cast<const u8*>(name.data()), name.size());
    h.word(v);
  }
  h.blob(saved_bytes(*mem));

  mem->reset();
  now = 0;
  for (u32 i = 0; i < 2000; ++i) step();
  h.blob(saved_bytes(*mem));
  return h.h;
}

struct GoldenCase {
  const char* label;
  MemParams mp;
  u64 hash;
};

TEST(HierarchyGolden, StreamHashesArePinned) {
  // Pinned before the hot-path rewrite (O(1) MSHR reap, tag-first L1
  // lookup, divide-free indexing): any change to a modelled cycle, counter
  // or snapshot byte changes a hash. Re-pin only for an intended model
  // change, and say so.
  MemParams mshr4, wt, nwa, wt_nwa;
  mshr4.l1_mshr_entries = 4;
  wt.l1_write_policy = WritePolicy::kWriteThrough;
  nwa.l1_write_alloc = WriteAlloc::kNoAllocate;
  wt_nwa.l1_write_policy = WritePolicy::kWriteThrough;
  wt_nwa.l1_write_alloc = WriteAlloc::kNoAllocate;
  const GoldenCase cases[] = {
      {"default", MemParams{}, 0xcc5415bb35919539ull},
      {"mshr4", mshr4, 0x2fb3a126c46826a6ull},
      {"wt", wt, 0x52b271fb5f6e1edfull},
      {"nwa", nwa, 0x380e5c868002d971ull},
      {"wt-nwa", wt_nwa, 0xd9d3f50f5876bae4ull},
  };
  for (const GoldenCase& c : cases) {
    const u64 got = golden_stream_hash(c.mp);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxull",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.hash) << c.label << ": got " << hex;
  }
}

}  // namespace
}  // namespace higpu::memsys
