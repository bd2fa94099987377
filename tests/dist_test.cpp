// Distributed campaign service tests.
//
// The headline pin is the determinism contract: dist::run_distributed
// produces results bit-identical (ScenarioResult::deterministic_fields_equal)
// to CampaignRunner jobs=1 at any worker count, under work stealing, across
// a worker SIGKILL mid-campaign, and across a simulated coordinator crash
// plus journal resume. Around it: the higpu.wire/1 frame and payload codecs
// (corruption is loud, never misinterpreted), wire-framed snapshot
// round-trips with per-section integrity (a corrupted section is named),
// JSONL result round-trips including control characters in error strings,
// journal scan/resume semantics (torn tails tolerated, corrupted records
// named, foreign campaigns refused, only missing scenarios re-executed),
// and cross-process snapshot portability through the campaign_worker file
// mode (a parameter-mismatched snapshot is refused cleanly).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/wire.h"
#include "dist/coordinator.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "exp/campaign.h"
#include "exp/result_io.h"

namespace higpu {
namespace {

using exp::FaultPlan;
using exp::ScenarioResult;
using exp::ScenarioSet;
using exp::ScenarioSpec;
using exp::SnapshotIo;

ScenarioSpec test_spec(const std::string& workload) {
  ScenarioSpec s;
  s.workload = workload;
  s.scale = workloads::Scale::kTest;
  return s;
}

/// A small campaign that exercises every dispatch shape: fault-free
/// singletons, and a same_but_fault group (clean member + two faults) that
/// gets a shared base run and snapshot-carrying forks.
ScenarioSet mixed_set() {
  ScenarioSet set = ScenarioSet::of(test_spec("hotspot"))
                        .sweep_faults({FaultPlan::none(),
                                       FaultPlan::droop(2000, 50, 2),
                                       FaultPlan::transient_sm(1, 3000, 40, 3)});
  set.add(test_spec("pathfinder"));
  set.add(test_spec("nw"));
  return set;
}

exp::CampaignResult golden_jobs1(const ScenarioSet& set) {
  exp::CampaignRunner::Config cfg;
  cfg.jobs = 1;
  return exp::CampaignRunner(cfg).run(set);
}

void expect_equals_golden(const exp::CampaignResult& got,
                          const exp::CampaignResult& golden) {
  ASSERT_EQ(got.results.size(), golden.results.size());
  for (size_t i = 0; i < golden.results.size(); ++i)
    EXPECT_TRUE(
        got.results[i].deterministic_fields_equal(golden.results[i]))
        << "scenario " << i << " (" << golden.results[i].label
        << ") differs from the jobs=1 golden";
}

std::string tmp_path(const std::string& stem) {
  return "/tmp/higpu_dist_test_" + std::to_string(::getpid()) + "_" + stem;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// ---- Wire frames -----------------------------------------------------------

TEST(WireFrame, RoundTripOverSocketpair) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  const std::vector<u8> payload = {1, 2, 3, 250, 0, 42};
  dist::send_frame(sv[0], dist::Msg::kResult, payload);
  dist::send_frame(sv[0], dist::Msg::kHeartbeat, {});
  dist::Frame f;
  ASSERT_TRUE(dist::recv_frame(sv[1], &f));
  EXPECT_EQ(dist::Msg::kResult, f.type);
  EXPECT_EQ(payload, f.payload);
  ASSERT_TRUE(dist::recv_frame(sv[1], &f));
  EXPECT_EQ(dist::Msg::kHeartbeat, f.type);
  EXPECT_TRUE(f.payload.empty());
  // Clean EOF at a frame boundary is "peer exited", not an error.
  ::close(sv[0]);
  EXPECT_FALSE(dist::recv_frame(sv[1], &f));
  ::close(sv[1]);
}

TEST(WireFrame, CorruptedPayloadIsLoud) {
  int raw[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, raw));
  const std::vector<u8> payload = {10, 20, 30, 40};
  dist::send_frame(raw[0], dist::Msg::kWork, payload);
  const size_t frame_len = 13 + payload.size() + 8;
  std::vector<u8> bytes(frame_len);
  size_t done = 0;
  while (done < frame_len) {
    const ssize_t n = ::read(raw[1], bytes.data() + done, frame_len - done);
    ASSERT_GT(n, 0);
    done += static_cast<size_t>(n);
  }
  ::close(raw[0]);
  ::close(raw[1]);

  bytes[13 + 1] ^= 0xFF;  // flip one payload byte
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  ASSERT_EQ(static_cast<ssize_t>(bytes.size()),
            ::write(sv[0], bytes.data(), bytes.size()));
  dist::Frame f;
  try {
    dist::recv_frame(sv[1], &f);
    FAIL() << "corrupted frame was accepted";
  } catch (const dist::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  ::close(sv[0]);
  ::close(sv[1]);

  // Torn frame (peer died mid-write) is an error, not a clean EOF.
  int sv2[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv2));
  ASSERT_EQ(5, ::write(sv2[0], bytes.data(), 5));
  ::close(sv2[0]);
  EXPECT_THROW(dist::recv_frame(sv2[1], &f), dist::WireError);
  ::close(sv2[1]);
}

// ---- ScenarioSpec codec ----------------------------------------------------

TEST(WireSpec, RoundTripPreservesEveryField) {
  ScenarioSpec spec = test_spec("srad");
  spec.seed = 777;
  spec.gpu.engine = sim::SimEngine::kDense;
  spec.gpu.exec_mode = sim::ExecMode::kInterp;
  spec.gpu.verify = sim::LaunchVerify::kWarn;
  spec.gpu.num_sms = 4;
  spec.gpu.sp_latency = 7;
  spec.gpu.clock_ghz = 1.9;
  spec.gpu.mem.l1_write_policy = memsys::WritePolicy::kWriteThrough;
  spec.gpu.mem.l1_write_alloc = memsys::WriteAlloc::kNoAllocate;
  spec.gpu.mem.l1_mshr_entries = 4;
  spec.gpu.mem.dram_row_bytes = 4096;
  spec.platform.pcie_h2d_gbps = 7.5;
  spec.platform.launch_ns = 1234;
  spec.policy = sched::Policy::kHalf;
  spec.redundancy.n_copies = 3;
  spec.redundancy.compare = core::RedundancySpec::Compare::kMajorityVote;
  spec.redundancy.tolerance = 0.25f;
  spec.redundancy.srrs_starts = {0, 2, 4};
  spec.redundancy.recovery = core::RedundancySpec::Recovery::kRetry;
  spec.redundancy.max_retries = 5;
  spec.redundancy.ftti_ns = 42'000'000;
  spec.fault = FaultPlan::permanent_sm(2, 5000, 7);
  spec.ckpt = ckpt::CheckpointPolicy::interval(4096);

  ckpt::Writer w;
  dist::put_spec(w, spec);
  const std::vector<u8> blob = w.take_blob();
  ckpt::Reader r(blob, {});
  const ScenarioSpec back = dist::get_spec(r);
  EXPECT_TRUE(spec == back);
  EXPECT_EQ(spec.label(), back.label());
}

/// A spec with a non-default value in every field of every sub-struct, so
/// the byte pin below moves if any field is dropped, reordered or re-encoded.
ScenarioSpec golden_spec() {
  ScenarioSpec s = test_spec("pathfinder");
  s.scale = workloads::Scale::kBench;
  s.seed = 0x1234567890ull;
  sim::GpuParams& g = s.gpu;
  g.engine = sim::SimEngine::kDense;
  g.exec_mode = sim::ExecMode::kInterp;
  g.verify = sim::LaunchVerify::kOff;
  g.num_sms = 8;
  g.warp_size = 16;
  g.max_warps_per_sm = 40;
  g.max_blocks_per_sm = 12;
  g.regfile_per_sm = 32768;
  g.shared_per_sm = 16384;
  g.num_warp_schedulers = 4;
  g.sp_latency = 5;
  g.sfu_latency = 18;
  g.sfu_interval = 3;
  g.launch_gap_cycles = 2500;
  g.clock_ghz = 1.25;
  memsys::MemParams& m = g.mem;
  m.line_bytes = 64;
  m.l1_size = 16384;
  m.l1_assoc = 2;
  m.l1_latency = 30;
  m.l1_mshr_entries = 8;
  m.l1_write_policy = memsys::WritePolicy::kWriteThrough;
  m.l1_write_alloc = memsys::WriteAlloc::kNoAllocate;
  m.l2_size = 524288;
  m.l2_assoc = 16;
  m.l2_banks = 4;
  m.l2_latency = 110;
  m.l2_service = 3;
  m.dram_channels = 2;
  m.dram_banks_per_channel = 8;
  m.dram_row_bytes = 1024;
  m.dram_row_hit_latency = 150;
  m.dram_row_miss_latency = 300;
  m.dram_service = 5;
  m.smem_banks = 16;
  m.smem_latency = 20;
  m.atomic_extra = 9;
  runtime::PlatformParams& p = s.platform;
  p.pcie_h2d_gbps = 12.5;
  p.pcie_d2h_gbps = 10.5;
  p.api_call_ns = 5001;
  p.memcpy_latency_ns = 10002;
  p.launch_ns = 4003;
  p.sync_ns = 4004;
  p.host_compare_gbps = 2.5;
  p.host_compute_gbps = 1.5;
  p.file_parse_gbps = 0.25;
  p.mem_generate_gbps = 1.75;
  p.ckpt_restore_gbps = 16.0;
  p.ckpt_restore_latency_ns = 3005;
  s.policy = sched::Policy::kHalf;
  core::RedundancySpec& r = s.redundancy;
  r.n_copies = 3;
  r.compare = core::RedundancySpec::Compare::kTolerance;
  r.tolerance = 0.125f;
  r.srrs_starts = {1, 3, 5};
  r.recovery = core::RedundancySpec::Recovery::kRollback;
  r.max_retries = 4;
  r.ftti_ns = 55'000'000;
  s.fault = FaultPlan::transient_sm(3, 7000, 60, 11);
  s.fault.sm_offset = 2;
  s.ckpt = ckpt::CheckpointPolicy::interval(8192);
  return s;
}

/// A hand-filled result with every field set (no simulation involved);
/// `faulty_copy` keeps its -1 sentinel to pin the signed encoding.
ScenarioResult golden_result() {
  ScenarioResult r;
  r.index = 17;
  r.label = "pathfinder:bench:seed42:half:tmr-vote:droop@2000w50b2";
  r.workload = "pathfinder";
  r.ok = true;
  r.error = "line one\n\"two\"";
  r.verified = true;
  r.dcls_match = true;
  r.majority_ok = true;
  r.comparisons = 6;
  r.mismatches = 2;
  r.faulty_copy = -1;
  r.n_copies = 3;
  r.attempts = 2;
  r.recovered = true;
  r.degraded = true;
  r.ftti_met = true;
  r.response_ns = 123456789;
  r.achieved_asil = safety::Asil::kD;
  r.kernel_cycles = 987654;
  r.elapsed_ns = 5550001;
  r.ff_cycles = 4321;
  r.diversity.blocks_checked = 40;
  r.diversity.same_sm = 3;
  r.diversity.same_sm_time_overlap = 2;
  r.diversity.time_overlap = 5;
  r.stats.set("instructions", 1000000);
  r.stats.set("block_exec_hits", 777);
  r.stats.set("l1_hits", 0);
  r.sm_profile = {{10, 20, 30, 40, 50}, {1, 2, 3, 4, 5}};
  r.fault_active = true;
  r.corruptions = 99;
  r.diverted_blocks = 7;
  r.outcome = fault::Outcome::kSdc;
  r.divergence = "l1[2] set 17";
  r.wall_sec = 0.1;
  r.sim_wall_sec = 0.0625;
  return r;
}

TEST(WireSpec, GoldenBytesAreStable) {
  // Pinned values of the hand-written codecs this layout replaced: journals
  // and campaign fingerprints written before must still match.
  ckpt::Writer w;
  dist::put_spec(w, golden_spec());
  EXPECT_EQ(0xc69dc513e94a0c0aull,
            ckpt::fnv1a(w.blob().data(), w.blob().size()));
  EXPECT_EQ(
      "{\"index\":17,\"label\":\"pathfinder:bench:seed42:half:tmr-vote:droop@2000w50b2\",\"workload\":\"pathfinder\",\"ok\":true,"
      "\"error\":\"line one\\n\\\"two\\\"\",\"verified\":true,\"dcls_match\":true,\"majority_ok\":true,"
      "\"comparisons\":6,\"mismatches\":2,\"faulty_copy\":-1,\"n_copies\":3,\"attempts\":2,"
      "\"recovered\":true,\"degraded\":true,\"ftti_met\":true,\"response_ns\":123456789,"
      "\"achieved_asil\":\"ASIL-D\",\"kernel_cycles\":987654,\"elapsed_ns\":5550001,\"ff_cycles\":4321,"
      "\"diversity\":{\"blocks_checked\":40,\"same_sm\":3,\"same_sm_time_overlap\":2,\"time_overlap\":5},"
      "\"stats\":{\"block_exec_hits\":777,\"instructions\":1000000,\"l1_hits\":0},"
      "\"sm_profile\":[{\"issued\":10,\"scoreboard\":20,\"barrier\":30,\"structural\":40,\"idle\":50},{\"issued\":1,\"scoreboard\":2,\"barrier\":3,\"structural\":4,\"idle\":5}],"
      "\"fault_active\":true,\"corruptions\":99,\"diverted_blocks\":7,\"outcome\":\"SDC\","
      "\"divergence\":\"l1[2] set 17\",\"wall_sec\":0.10000000000000001,\"sim_wall_sec\":0.0625}",
      exp::result_to_jsonl(golden_result()));
  ckpt::Reader r(w.blob(), {});
  EXPECT_TRUE(golden_spec() == dist::get_spec(r));
  EXPECT_EQ(exp::result_to_jsonl(golden_result()),
            exp::result_to_jsonl(
                exp::result_from_jsonl(exp::result_to_jsonl(golden_result()))));
}

TEST(WireSpec, OutOfRangeEnumIsRefused) {
  // Locate the policy byte as the one byte two payloads differing only in
  // their policy disagree on, then push it past the last enumerator.
  dist::WorkItem item;
  item.spec = test_spec("hotspot");
  item.spec.policy = sched::Policy::kSrrs;
  std::vector<u8> payload = dist::encode_work(item);
  item.spec.policy = sched::Policy::kHalf;
  const std::vector<u8> other = dist::encode_work(item);
  ASSERT_EQ(payload.size(), other.size());
  size_t at = 0;
  while (at < payload.size() && payload[at] == other[at]) ++at;
  ASSERT_LT(at, payload.size());
  EXPECT_NO_THROW(dist::decode_work(payload));
  payload[at] = 3;  // one past kSrrs
  EXPECT_THROW(dist::decode_work(payload), dist::WireError);
  payload[at] = 0xFF;
  EXPECT_THROW(dist::decode_work(payload), dist::WireError);
}

TEST(WireSpec, CampaignFingerprintTracksContent) {
  const ScenarioSet a = mixed_set();
  const ScenarioSet b = mixed_set();
  EXPECT_EQ(dist::campaign_fingerprint(a), dist::campaign_fingerprint(b));
  ScenarioSet c = mixed_set();
  c.add(test_spec("bfs"));
  EXPECT_NE(dist::campaign_fingerprint(a), dist::campaign_fingerprint(c));
}

// ---- Snapshot wire framing (satellites 1 and 3) ----------------------------

/// Capture a mid-run snapshot of the clean hotspot scenario at the fault
/// group's injection cycle, plus the clean final state.
void capture_base(ckpt::SnapshotPtr* snap, ckpt::SnapshotPtr* final_state) {
  SnapshotIo io;
  io.capture_targets = {2000};
  const ScenarioResult r =
      exp::run_scenario(test_spec("hotspot"), 0, nullptr, nullptr, &io);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(1u, io.captured.size());
  ASSERT_NE(nullptr, io.captured[0]);
  *snap = io.captured[0];
  *final_state = io.final_state;
}

TEST(SnapshotWire, EncodeDecodeRestoreRoundTrip) {
  ckpt::SnapshotPtr snap, final_state;
  capture_base(&snap, &final_state);

  const std::vector<u8> framed = ckpt::encode_snapshot(*snap);
  const ckpt::SnapshotPtr back = ckpt::decode_snapshot(framed);
  ASSERT_NE(nullptr, back);
  EXPECT_EQ(snap->cycle, back->cycle);
  EXPECT_EQ(snap->sync_seq, back->sync_seq);
  EXPECT_EQ(snap->launch_count, back->launch_count);
  EXPECT_EQ(snap->blob, back->blob);
  EXPECT_EQ(snap->hash(), back->hash());
  EXPECT_EQ(snap->programs.size(), back->programs.size());

  // The decoded snapshot must actually *work*: a fault fork resumed from it
  // is bit-identical to one resumed from the original.
  ScenarioSpec fork = test_spec("hotspot");
  fork.fault = FaultPlan::droop(2000, 50, 2);
  SnapshotIo io_orig;
  io_orig.resume = snap;
  const ScenarioResult from_orig =
      exp::run_scenario(fork, 0, nullptr, nullptr, &io_orig);
  SnapshotIo io_back;
  io_back.resume = back;
  const ScenarioResult from_back =
      exp::run_scenario(fork, 0, nullptr, nullptr, &io_back);
  ASSERT_TRUE(from_orig.ok) << from_orig.error;
  ASSERT_TRUE(from_back.ok) << from_back.error;
  EXPECT_TRUE(from_orig.deterministic_fields_equal(from_back));
}

TEST(SnapshotWire, CorruptedSectionIsNamed) {
  ckpt::SnapshotPtr snap, final_state;
  capture_base(&snap, &final_state);
  ASSERT_FALSE(snap->sections.empty());

  // Corrupt one byte inside the first section *before* framing: the frame
  // checksum then matches what was sent, and the per-section integrity
  // check must catch it and name the section.
  ckpt::Snapshot mutated = *snap;
  const ckpt::Section& victim = mutated.sections.front();
  ASSERT_GT(victim.len, 0u);
  mutated.blob[victim.offset] ^= 0xFF;
  const std::vector<u8> framed = ckpt::encode_snapshot(mutated);
  try {
    ckpt::decode_snapshot(framed);
    FAIL() << "corrupted section was accepted";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(victim.name), std::string::npos)
        << "diagnostic does not name the corrupted section: " << e.what();
  }

  // Corruption of the frame itself (transit damage) is caught by the frame
  // checksum; truncation is caught before that.
  std::vector<u8> damaged = ckpt::encode_snapshot(*snap);
  damaged[damaged.size() / 2] ^= 0x01;
  EXPECT_THROW(ckpt::decode_snapshot(damaged), ckpt::SnapshotError);
  std::vector<u8> truncated = ckpt::encode_snapshot(*snap);
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(ckpt::decode_snapshot(truncated), ckpt::SnapshotError);
}

TEST(SnapshotWire, FileRoundTripAndWorkItemCodec) {
  ckpt::SnapshotPtr snap, final_state;
  capture_base(&snap, &final_state);
  const std::string path = tmp_path("snap.bin");
  ckpt::write_snapshot_file(path, *snap);
  const ckpt::SnapshotPtr back = ckpt::read_snapshot_file(path);
  EXPECT_EQ(snap->blob, back->blob);
  std::remove(path.c_str());

  dist::WorkItem item;
  item.unit_id = 7;
  item.index = 3;
  item.spec = test_spec("hotspot");
  item.spec.fault = FaultPlan::droop(2000, 50, 2);
  item.resume = snap;
  item.divergence_ref = final_state;
  const dist::WorkItem got = dist::decode_work(dist::encode_work(item));
  EXPECT_EQ(7u, got.unit_id);
  EXPECT_EQ(3u, got.index);
  EXPECT_TRUE(item.spec == got.spec);
  ASSERT_NE(nullptr, got.resume);
  EXPECT_EQ(snap->blob, got.resume->blob);
  ASSERT_NE(nullptr, got.divergence_ref);
  EXPECT_EQ(final_state->blob, got.divergence_ref->blob);

  dist::WorkItem bare;
  bare.index = 1;
  bare.spec = test_spec("nw");
  const dist::WorkItem got_bare = dist::decode_work(dist::encode_work(bare));
  EXPECT_EQ(nullptr, got_bare.resume);
  EXPECT_EQ(nullptr, got_bare.divergence_ref);
}

// ---- JSONL result records (satellite 2) ------------------------------------

TEST(ResultJsonl, RoundTripIsDeterministicallyEqual) {
  const ScenarioResult r =
      exp::run_scenario(test_spec("hotspot"), 5, nullptr, nullptr, nullptr);
  ASSERT_TRUE(r.ok) << r.error;
  const std::string line = exp::result_to_jsonl(r);
  EXPECT_EQ(std::string::npos, line.find('\n')) << "record spans lines";
  const ScenarioResult back = exp::result_from_jsonl(line);
  EXPECT_TRUE(r.deterministic_fields_equal(back));
  EXPECT_EQ(r.stats, back.stats);
  // And the JSONL layer is idempotent: re-serializing the parsed record
  // yields the identical line.
  EXPECT_EQ(line, exp::result_to_jsonl(back));
}

TEST(ResultJsonl, EscapesControlCharactersAndQuotes) {
  // The satellite pin: an error string carrying a newline, a quote and a
  // backslash must survive a JSONL round trip on one line.
  ScenarioResult r;
  r.index = 9;
  r.workload = "hotspot";
  r.label = "hotspot:test:seed2019:srrs:red:nofault";
  r.ok = false;
  r.error = "device said \"no\"\n\tat cycle 42 (path C:\\tmp)";
  r.outcome = fault::Outcome::kDetected;
  const std::string line = exp::result_to_jsonl(r);
  EXPECT_EQ(std::string::npos, line.find('\n'));
  EXPECT_EQ(std::string::npos, line.find('\t'));
  const ScenarioResult back = exp::result_from_jsonl(line);
  EXPECT_EQ(r.error, back.error);
  EXPECT_TRUE(r.deterministic_fields_equal(back));
}

TEST(ResultJsonl, MalformedRecordIsLoud) {
  EXPECT_THROW(exp::result_from_jsonl("{\"index\":}"), std::exception);
  EXPECT_THROW(exp::result_from_jsonl("not json at all"), std::exception);
  EXPECT_THROW(exp::result_from_jsonl("{}"), std::exception);  // no fields
}

// ---- Journal ---------------------------------------------------------------

TEST(Journal, WriteScanRoundTrip) {
  const std::string path = tmp_path("journal.jsonl");
  const ScenarioResult r0 =
      exp::run_scenario(test_spec("hotspot"), 0, nullptr, nullptr, nullptr);
  const ScenarioResult r2 =
      exp::run_scenario(test_spec("nw"), 2, nullptr, nullptr, nullptr);
  {
    dist::Journal j = dist::Journal::create(path, 0xABCD, 4);
    j.add(r0);
    j.add(r2);
    EXPECT_EQ(2u, j.records_written());
  }
  const dist::Scan scan = dist::scan_journal(path);
  EXPECT_EQ(0xABCDu, scan.fingerprint);
  EXPECT_EQ(4u, scan.scenarios);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(2u, scan.results.size());
  EXPECT_TRUE(scan.results.at(0).deterministic_fields_equal(r0));
  EXPECT_TRUE(scan.results.at(2).deterministic_fields_equal(r2));
  std::remove(path.c_str());
}

TEST(Journal, TornTailToleratedCorruptionNamed) {
  const std::string path = tmp_path("torn.jsonl");
  const ScenarioResult r0 =
      exp::run_scenario(test_spec("hotspot"), 0, nullptr, nullptr, nullptr);
  {
    dist::Journal j = dist::Journal::create(path, 1, 3);
    j.add(r0);
  }
  // SIGKILL artifact: a record torn mid-write, no trailing newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"index\":1,\"label\":\"half-writ";
  }
  const dist::Scan scan = dist::scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(1u, scan.results.size());

  // A *complete* malformed line is corruption and must be named.
  write_text(path,
             "{\"schema\":\"higpu.campaign.jsonl/1\",\"fingerprint\":1,"
             "\"scenarios\":3}\n"
             "{\"index\":oops}\n");
  try {
    dist::scan_journal(path);
    FAIL() << "corrupted journal record was accepted";
  } catch (const dist::JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos)
        << e.what();
  }

  // Wrong schema and an out-of-range index are refused too.
  write_text(path, "{\"schema\":\"something.else/9\",\"fingerprint\":1,"
                   "\"scenarios\":3}\n");
  EXPECT_THROW(dist::scan_journal(path), dist::JournalError);
  std::remove(path.c_str());
}

TEST(Journal, DisagreeingDuplicateIsRefused) {
  const std::string path = tmp_path("dup.jsonl");
  ScenarioResult a =
      exp::run_scenario(test_spec("hotspot"), 0, nullptr, nullptr, nullptr);
  {
    dist::Journal j = dist::Journal::create(path, 1, 2);
    j.add(a);
    j.add(a);  // identical duplicate: fine (redispatch race)
  }
  EXPECT_EQ(1u, dist::scan_journal(path).results.size());
  ScenarioResult b = a;
  b.kernel_cycles += 1;  // same index, different deterministic fields
  {
    dist::Journal j = dist::Journal::append_to(path);
    j.add(b);
  }
  EXPECT_THROW(dist::scan_journal(path), dist::JournalError);
  std::remove(path.c_str());
}

// ---- The determinism contract ----------------------------------------------

TEST(Distributed, BitIdenticalAtAnyWorkerCount) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  for (u32 workers : {1u, 2u, 4u}) {
    dist::DistConfig cfg;
    cfg.workers = workers;
    const dist::DistReport rep = dist::run_distributed(set, cfg);
    EXPECT_FALSE(rep.stopped_early);
    EXPECT_EQ(0u, rep.workers_died) << "workers=" << workers;
    expect_equals_golden(rep.campaign, golden);
    if (workers >= 2) {
      // The fault forks of the hotspot group ship their base snapshot.
      EXPECT_GT(rep.snapshot_bytes_shipped, 0u) << "workers=" << workers;
    }
  }
}

TEST(Distributed, InlineModeJournalsAndMatches) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  const std::string path = tmp_path("inline.jsonl");
  dist::DistConfig cfg;
  cfg.workers = 0;  // no fleet: coordinator runs everything itself
  cfg.journal_path = path;
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  expect_equals_golden(rep.campaign, golden);
  const dist::Scan scan = dist::scan_journal(path);
  EXPECT_EQ(set.size(), scan.results.size());
  EXPECT_EQ(dist::campaign_fingerprint(set), scan.fingerprint);
  std::remove(path.c_str());
}

TEST(Distributed, SurvivesWorkerSigkill) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.chaos_kill_after = 1;  // SIGKILL a live worker after the 1st result
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  EXPECT_GE(rep.workers_died, 1u);
  expect_equals_golden(rep.campaign, golden);
}

TEST(Distributed, FallsBackInlineWhenFleetDies) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  dist::DistConfig cfg;
  cfg.workers = 1;
  cfg.chaos_kill_after = 1;  // the whole (one-worker) fleet dies
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  EXPECT_GE(rep.workers_died, 1u);
  expect_equals_golden(rep.campaign, golden);
}

TEST(Distributed, ResumeExecutesOnlyMissingScenarios) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  const std::string path = tmp_path("resume.jsonl");

  // First run "crashes" after 2 accepted results.
  dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.journal_path = path;
  cfg.stop_after_results = 2;
  const dist::DistReport partial = dist::run_distributed(set, cfg);
  EXPECT_TRUE(partial.stopped_early);
  EXPECT_GE(partial.executed, 2u);

  const size_t already = dist::scan_journal(path).results.size();
  ASSERT_GT(already, 0u);
  ASSERT_LT(already, set.size());

  // The resume must re-execute exactly the missing indices — no more.
  dist::DistConfig rcfg;
  rcfg.workers = 2;
  rcfg.journal_path = path;
  rcfg.resume = true;
  const dist::DistReport rep = dist::run_distributed(set, rcfg);
  EXPECT_FALSE(rep.stopped_early);
  EXPECT_EQ(already, rep.resumed);
  EXPECT_EQ(set.size() - already, rep.executed);
  expect_equals_golden(rep.campaign, golden);

  // A second resume of the now-complete journal executes nothing.
  const dist::DistReport noop = dist::run_distributed(set, rcfg);
  EXPECT_EQ(set.size(), noop.resumed);
  EXPECT_EQ(0u, noop.executed);
  expect_equals_golden(noop.campaign, golden);
  std::remove(path.c_str());
}

TEST(Distributed, ResumeRefusesForeignJournal) {
  const ScenarioSet set = mixed_set();
  const std::string path = tmp_path("foreign.jsonl");
  {
    dist::Journal j = dist::Journal::create(path, 12345, set.size());
    (void)j;
  }
  dist::DistConfig cfg;
  cfg.workers = 0;
  cfg.journal_path = path;
  cfg.resume = true;
  try {
    dist::run_distributed(set, cfg);
    FAIL() << "foreign journal was accepted for resume";
  } catch (const dist::JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ---- Cross-process snapshot portability (satellite 3) ----------------------

/// Run one encoded WorkItem through a freshly spawned campaign_worker in
/// file mode and parse the result record it writes.
ScenarioResult run_in_fresh_process(const dist::WorkItem& item) {
  const std::string work = tmp_path("work.bin");
  const std::string out = tmp_path("out.jsonl");
  const std::vector<u8> payload = dist::encode_work(item);
  {
    std::ofstream f(work, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  }
  const std::string cmd = dist::default_worker_exe() + " --work=" + work +
                          " --out=" + out;
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(0, rc) << cmd;
  std::string line = read_text(out);
  std::remove(work.c_str());
  std::remove(out.c_str());
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return exp::result_from_jsonl(line);
}

TEST(Distributed, SnapshotIsPortableAcrossProcesses) {
  ckpt::SnapshotPtr snap, final_state;
  capture_base(&snap, &final_state);

  dist::WorkItem item;
  item.index = 1;
  item.spec = test_spec("hotspot");
  item.spec.fault = FaultPlan::droop(2000, 50, 2);
  item.resume = snap;
  item.divergence_ref = final_state;

  // In-process reference: the same fork resumed from the same snapshot.
  SnapshotIo io;
  io.resume = snap;
  io.divergence_ref = final_state;
  const ScenarioResult local =
      exp::run_scenario(item.spec, item.index, nullptr, nullptr, &io);
  ASSERT_TRUE(local.ok) << local.error;

  const ScenarioResult remote = run_in_fresh_process(item);
  ASSERT_TRUE(remote.ok) << remote.error;
  EXPECT_TRUE(local.deterministic_fields_equal(remote))
      << "cross-process resume is not bit-identical";
}

TEST(Distributed, MismatchedSnapshotIsRefusedCleanly) {
  ckpt::SnapshotPtr snap, final_state;
  capture_base(&snap, &final_state);  // captured on the default 6-SM GPU

  dist::WorkItem item;
  item.index = 0;
  item.spec = test_spec("hotspot");
  item.spec.gpu.num_sms = 4;  // a different device than the snapshot's
  item.spec.fault = FaultPlan::droop(2000, 50, 2);
  item.resume = snap;

  const ScenarioResult remote = run_in_fresh_process(item);
  EXPECT_FALSE(remote.ok);
  EXPECT_NE(std::string::npos, remote.error.find("parameters"))
      << "refusal should name the parameter mismatch, got: " << remote.error;
}

}  // namespace
}  // namespace higpu
