#include "memsys/hierarchy.h"

#include <algorithm>
#include <cassert>

namespace higpu::memsys {

MemHierarchy::MemHierarchy(u32 num_sms, const MemParams& params)
    // Reject nonsensical geometry before any member computes with it
    // (lines_per_row_ divides by line_bytes; the DRAM model subtracts the
    // row latencies): validate() throws std::invalid_argument.
    : params_((validate(params), params)),
      lines_per_row_(params.dram_row_bytes / params.line_bytes),
      l2_(params.l2_size, params.l2_assoc, params.line_bytes),
      l1_port_free_(num_sms, 0),
      l2_bank_free_(params.l2_banks, 0),
      dram_channel_free_(params.dram_channels, 0),
      dram_banks_(static_cast<size_t>(params.dram_channels) *
                  params.dram_banks_per_channel),
      mshr_(num_sms) {
  l1_.reserve(num_sms);
  for (u32 i = 0; i < num_sms; ++i)
    l1_.emplace_back(params.l1_size, params.l1_assoc, params.line_bytes);
}

// The one list of hierarchy counters, in snapshot order.
const MemHierarchy::Counter MemHierarchy::kCounters[] = {
    {"l1_hits", &MemHierarchy::l1_hits_},
    {"l1_misses", &MemHierarchy::l1_misses_},
    {"l1_write_hits", &MemHierarchy::l1_write_hits_},
    {"l1_write_misses", &MemHierarchy::l1_write_misses_},
    {"l1_mshr_merges", &MemHierarchy::l1_mshr_merges_},
    {"l1_writebacks", &MemHierarchy::l1_writebacks_},
    {"l1_mshr_stalls", &MemHierarchy::l1_mshr_stalls_},
    {"l1_mshr_stall_cycles", &MemHierarchy::l1_mshr_stall_cycles_},
    {"l1_write_through", &MemHierarchy::l1_write_through_},
    {"l2_hits", &MemHierarchy::l2_hits_},
    {"l2_misses", &MemHierarchy::l2_misses_},
    {"dram_reads", &MemHierarchy::dram_reads_},
    {"dram_writebacks", &MemHierarchy::dram_writebacks_},
    {"dram_row_hits", &MemHierarchy::dram_row_hits_},
    {"dram_row_misses", &MemHierarchy::dram_row_misses_},
    {"atomics", &MemHierarchy::atomics_},
};

void MemHierarchy::set_obs_tracer(obs::Tracer* t) {
  obs_ = t;
  obs_dram_track_ = 0;
  obs_mshr_tracks_.clear();
  if (t == nullptr) return;
  obs_dram_track_ = t->track("dram", obs::kPidDevice);
  obs_mshr_tracks_.reserve(mshr_.size());
  for (size_t i = 0; i < mshr_.size(); ++i)
    obs_mshr_tracks_.push_back(
        t->track("mshr.sm" + std::to_string(i), obs::kPidDevice));
}

void MemHierarchy::reset() {
  for (auto& c : l1_) c.clear();
  l2_.clear();
  std::fill(l1_port_free_.begin(), l1_port_free_.end(), 0);
  std::fill(l2_bank_free_.begin(), l2_bank_free_.end(), 0);
  std::fill(dram_channel_free_.begin(), dram_channel_free_.end(), 0);
  std::fill(dram_banks_.begin(), dram_banks_.end(), DramBank{});
  for (Mshr& m : mshr_) m = Mshr{};
  for (const Counter& c : kCounters) this->*c.field = 0;
}

StatSet MemHierarchy::stats() const {
  StatSet s;
  // Counters appear only once nonzero, mirroring StatSet entries that were
  // created on first add().
  for (const Counter& c : kCounters)
    if (this->*c.field) s.add(c.name, this->*c.field);
  return s;
}

Cycle MemHierarchy::dram_access(u64 line_addr, Cycle when, bool is_write) {
  const u32 ch = static_cast<u32>(line_addr % params_.dram_channels);
  // Lines stripe across channels; within a channel, `lines_per_row_`
  // consecutive lines share a row. The row index is hashed into the bank
  // index (a bank-permutation scheme, as real controllers use) so streams
  // at power-of-two offsets spread across banks instead of thrashing one —
  // row-locality for streaming, bank-level parallelism across streams.
  const u64 row = (line_addr / params_.dram_channels) / lines_per_row_;
  const size_t bank_idx =
      static_cast<size_t>(ch) * params_.dram_banks_per_channel +
      (row * 0x9E3779B97F4A7C15ull >> 32) % params_.dram_banks_per_channel;
  DramBank& bank = dram_banks_[bank_idx];
  const Cycle start =
      std::max({when, dram_channel_free_[ch], bank.busy_until});
  const bool row_hit = bank.open_row == row;
  (row_hit ? dram_row_hits_ : dram_row_misses_) += 1;
  bank.open_row = row;
  const Cycle done = start + (row_hit ? params_.dram_row_hit_latency
                                      : params_.dram_row_miss_latency);
  dram_channel_free_[ch] = start + params_.dram_service;  // data-bus slot
  // Bank occupancy: one service slot, plus the precharge/activate overhead
  // on a row switch. Row hits stream at bus rate; row thrash serializes.
  bank.busy_until =
      start + params_.dram_service +
      (row_hit ? 0 : params_.dram_row_miss_latency - params_.dram_row_hit_latency);
  (is_write ? dram_writebacks_ : dram_reads_) += 1;
  if (obs_ != nullptr)
    obs_->emit(obs_dram_track_, obs::Ev::kDramBank, start,
               bank.busy_until - start, bank_idx, row);
  return done;
}

void MemHierarchy::writeback_to_l2(u64 line_addr, Cycle when) {
  // Consumes L2 bank bandwidth only (off the evicting access's critical
  // path). Installing the victim may in turn evict a dirty L2 line, which
  // cascades to a DRAM writeback.
  const u32 bank = static_cast<u32>(line_addr % params_.l2_banks);
  l2_bank_free_[bank] =
      std::max(l2_bank_free_[bank], when) + params_.l2_service;
  const CacheAccessResult res = l2_.access(line_addr, /*is_write=*/true);
  if (res.writeback_line) dram_access(*res.writeback_line, when, true);
  l1_writebacks_ += 1;
}

Cycle MemHierarchy::access_l2(u64 line_addr, bool is_write, Cycle now,
                              bool is_atomic) {
  const u32 bank = static_cast<u32>(line_addr % params_.l2_banks);
  const u32 service =
      params_.l2_service + (is_atomic ? params_.atomic_extra : 0);
  const Cycle start = std::max(now, l2_bank_free_[bank]);
  l2_bank_free_[bank] = start + service;

  const CacheAccessResult res = l2_.access(line_addr, is_write || is_atomic);
  if (res.writeback_line) {
    // Dirty eviction: consumes DRAM bandwidth but is off the critical path.
    dram_access(*res.writeback_line, start, true);
  }
  if (res.hit) {
    l2_hits_ += 1;
    return start + params_.l2_latency;
  }
  l2_misses_ += 1;
  return dram_access(line_addr, start, false);
}

void MemHierarchy::remove_entry(std::vector<MshrEntry>& entries, size_t idx) {
  entries[idx] = entries.back();
  entries.pop_back();
}

void MemHierarchy::refresh_next_ready(Mshr& m) {
  m.next_ready = kNoneReady;
  for (const MshrEntry& e : m.entries)
    m.next_ready = std::min(m.next_ready, e.ready);
}

void MemHierarchy::fill(u32 sm, const MshrEntry& e) {
  if (obs_ != nullptr)
    obs_->instant(obs_mshr_tracks_[sm], obs::Ev::kMshrFill, e.ready, e.line,
                  e.fill_dirty);
  // The fill installs the line at its completion cycle; a dirty victim's
  // writeback is charged at that same cycle (it leaves with the fill).
  const CacheAccessResult res = l1_[sm].access(e.line, e.fill_dirty);
  if (res.writeback_line) writeback_to_l2(*res.writeback_line, e.ready);
}

size_t MemHierarchy::earliest_entry(const std::vector<MshrEntry>& entries,
                                    Cycle& runner_up) {
  size_t best = 0;
  runner_up = kNoneReady;
  for (size_t i = 1; i < entries.size(); ++i) {
    const MshrEntry& e = entries[i];
    const MshrEntry& b = entries[best];
    if (e.ready < b.ready || (e.ready == b.ready && e.line < b.line)) {
      runner_up = std::min(runner_up, b.ready);
      best = i;
    } else {
      runner_up = std::min(runner_up, e.ready);
    }
  }
  return best;
}

void MemHierarchy::reap_expired_slow(u32 sm, Cycle now) {
  Mshr& m = mshr_[sm];
  auto& entries = m.entries;
  // One pass: collect the expired entries and the watermark of the rest.
  std::vector<u32>& expired = reap_scratch_;
  expired.clear();
  m.next_ready = kNoneReady;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].ready <= now)
      expired.push_back(static_cast<u32>(i));
    else
      m.next_ready = std::min(m.next_ready, entries[i].ready);
  }
  // Fill in completion order so the L1's LRU state reflects arrival times
  // (lines are unique within one MSHR, so the order is total).
  if (expired.size() > 1) {
    std::sort(expired.begin(), expired.end(), [&entries](u32 a, u32 b) {
      return entries[a].ready != entries[b].ready
                 ? entries[a].ready < entries[b].ready
                 : entries[a].line < entries[b].line;
    });
  }
  // Swap-pop each entry in that same order — the order a per-entry
  // earliest-first removal would use — so the surviving storage order (a
  // snapshot byte) is unchanged. A swap that moves a still-pending expired
  // entry updates its recorded index.
  for (size_t k = 0; k < expired.size(); ++k) {
    const size_t idx = expired[k];
    fill(sm, entries[idx]);
    const u32 last = static_cast<u32>(entries.size() - 1);
    remove_entry(entries, idx);
    for (size_t j = k + 1; j < expired.size(); ++j)
      if (expired[j] == last) expired[j] = static_cast<u32>(idx);
  }
}

MemResponse MemHierarchy::access_line(u32 sm, u64 line_addr, bool is_write,
                                      Cycle now) {
  // The cycles returned here are final (the event-driven contract in the
  // header): all contention is resolved now, against the bandwidth counters
  // as of `now`, so the caller can sleep until them without re-checking.
  // L1 port: one line transaction per cycle per SM.
  const Cycle t = std::max(now, l1_port_free_[sm]);
  const bool write_through =
      params_.l1_write_policy == WritePolicy::kWriteThrough;

  reap_expired(sm, t);
  Mshr& m = mshr_[sm];

  // L1 tag lookup. Hits refresh LRU (and dirtiness under write-back);
  // misses never fill here — lines enter the L1 only via MSHR completion,
  // so a resident line has no in-flight fill to merge into.
  if (l1_[sm].touch(line_addr, is_write && !write_through)) {
    assert(std::none_of(m.entries.begin(), m.entries.end(),
                        [line_addr](const MshrEntry& e) {
                          return e.line == line_addr;
                        }) &&
           "L1-resident line has an in-flight MSHR fill");
    (is_write ? l1_write_hits_ : l1_hits_) += 1;
    Cycle done = t + params_.l1_latency;
    if (is_write && write_through) {
      done = access_l2(line_addr, true, t + params_.l1_latency, false);
      l1_write_through_ += 1;
    }
    l1_port_free_[sm] = t + 1;
    return {done, t + 1};
  }

  // Merge into an in-flight fill (MSHR hit): no new fetch traffic.
  for (MshrEntry& e : m.entries) {
    if (e.line != line_addr) continue;  // reap left only entries ready > t
    l1_mshr_merges_ += 1;
    Cycle done = e.ready;
    if (is_write) {
      if (write_through) {
        // The store still goes through to the L2; the fill stays clean.
        done = access_l2(line_addr, true, t + params_.l1_latency, false);
        l1_write_through_ += 1;
      } else {
        // Retire the store into the arriving line: the fill installs it
        // dirty. The tag array is not touched until the fill completes.
        e.fill_dirty = true;
      }
    }
    l1_port_free_[sm] = t + 1;
    return {done, t + 1};
  }
  (is_write ? l1_write_misses_ : l1_misses_) += 1;

  // Reads always allocate; writes allocate per the L1 policy.
  const bool allocate =
      !is_write || params_.l1_write_alloc == WriteAlloc::kAllocate;

  Cycle issue = t;
  if (allocate && m.entries.size() >= params_.l1_mshr_entries) {
    // MSHR full: the access occupies the L1 port until the earliest
    // in-flight fill frees its entry, then proceeds as a tracked miss.
    const size_t idx = earliest_entry(m.entries, m.next_ready);
    issue = m.entries[idx].ready;  // > t, otherwise reap would have taken it
    l1_mshr_stalls_ += 1;
    l1_mshr_stall_cycles_ += issue - t;
    fill(sm, m.entries[idx]);
    remove_entry(m.entries, idx);
  }
  l1_port_free_[sm] = issue + 1;

  if (is_write && (write_through || !allocate)) {
    // The store itself resolves at the L2.
    const Cycle done =
        access_l2(line_addr, true, issue + params_.l1_latency, false);
    l1_write_through_ += 1;
    if (allocate) {  // WT + write-allocate: the same transaction fills the L1
      m.entries.push_back(MshrEntry{line_addr, done, false});
      m.next_ready = std::min(m.next_ready, done);
      if (obs_ != nullptr)
        obs_->instant(obs_mshr_tracks_[sm], obs::Ev::kMshrAlloc, issue,
                      line_addr, done);
    }
    return {done, issue + 1};
  }

  // Read miss, or write-back/write-allocate store miss: fetch the line.
  // The fetch is a read at the L2 (the dirty data lives in the L1 until
  // eviction); the store retires when the line arrives.
  const Cycle ready =
      access_l2(line_addr, false, issue + params_.l1_latency, false);
  m.entries.push_back(MshrEntry{line_addr, ready, is_write});
  m.next_ready = std::min(m.next_ready, ready);
  if (obs_ != nullptr)
    obs_->instant(obs_mshr_tracks_[sm], obs::Ev::kMshrAlloc, issue, line_addr,
                  ready);
  return {ready, issue + 1};
}

MemResponse MemHierarchy::access_atomic(u32 sm, u64 line_addr, Cycle now) {
  // Atomics bypass the L1; a stale local copy is invalidated (flushing it
  // to the L2 first when dirty, so the write is not silently dropped).
  const Cycle t = std::max(now, l1_port_free_[sm]);
  l1_port_free_[sm] = t + 1;
  reap_expired(sm, t);
  // Cancel an in-flight fill of this line: the atomic supersedes it, and a
  // later reap must not reinstall a copy the invalidation just removed.
  // (Loads merged on the entry keep their completion cycles — fixed at
  // issue; a merged store's data is functionally visible already.)
  Mshr& m = mshr_[sm];
  for (size_t i = 0; i < m.entries.size(); ++i) {
    if (m.entries[i].line == line_addr) {
      remove_entry(m.entries, i);
      refresh_next_ready(m);
      break;
    }
  }
  if (l1_[sm].invalidate_line(line_addr)) writeback_to_l2(line_addr, t);
  atomics_ += 1;
  return {access_l2(line_addr, /*is_write=*/true, t, /*is_atomic=*/true),
          t + 1};
}

template <class Ar, class S>
void MemHierarchy::io_state(Ar& ar, S& s) {
  for (size_t i = 0; i < s.l1_.size(); ++i) {
    ar.begin_section("l1[" + std::to_string(i) + "]",
                     s.l1_[i].set_record_bytes());
    ar.io(s.l1_[i]);
    ar.end_section();
  }
  ar.begin_section("l2", s.l2_.set_record_bytes());
  ar.io(s.l2_);
  ar.end_section();

  // The dram section holds bank records only (fixed 16-byte records), so a
  // snapshot diff maps its first differing byte to a real bank index;
  // channel-bus bandwidth counters live in the bookkeeping section.
  ar.begin_section("dram", /*record_size=*/16);
  for (auto& b : s.dram_banks_) {
    ar.io(b.busy_until);
    ar.io(b.open_row);
  }
  ar.end_section();

  ar.begin_section("memsys");
  ar.io(s.dram_channel_free_);
  ar.io(s.l1_port_free_);
  ar.io(s.l2_bank_free_);
  ar.io_count(s.mshr_.size(), "MSHR array");
  for (auto& m : s.mshr_)
    ar.io(m.entries, [](auto& a, auto& e) {
      a.io(e.line);
      a.io(e.ready);
      a.io(e.fill_dirty);
    });
  for (const Counter& c : kCounters) ar.io(s.*c.field);
  ar.end_section();
}

void MemHierarchy::save(ckpt::Writer& w) const { io_state(w, *this); }

void MemHierarchy::restore(ckpt::Reader& r) {
  io_state(r, *this);
  for (Mshr& m : mshr_) refresh_next_ready(m);
}

}  // namespace higpu::memsys
