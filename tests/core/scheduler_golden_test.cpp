#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "assay/benchmarks.hpp"
#include "core/library.hpp"
#include "core/scheduler.hpp"
#include "sim/simulated_chip.hpp"
#include "util/record_log.hpp"
#include "util/rng.hpp"

/// @file scheduler_golden_test.cpp
/// Exact-outcome pins for the scheduler's strategy-acquisition modes:
/// adaptive, baseline, reactive retrial recovery, latency-modelled
/// synthesis, the pure online scheme (no library), the robust router on a
/// noisy faulted chip, deadline-bounded synthesis with fallback routes, and
/// N-modular-redundant dispenses. Each mode pins the counters of one seeded
/// run plus a digest of its structured event log, so any drift in when or
/// how a strategy is retrieved, solved, stored or installed shows up here.
/// Each mode also asserts that the path it names actually ran.

namespace meda::core {
namespace {

/// The pinned outcome of one execution.
struct Golden {
  bool success = false;
  std::uint64_t cycles = 0;
  int synthesis_calls = 0;
  int library_hits = 0;
  int resyntheses = 0;
  int resyntheses_warm = 0;
  RecoveryCounters recovery;
  ReplicaCounters replica;
  std::uint64_t events_digest = 0;
};

std::uint64_t events_digest(const ExecutionStats& stats) {
  util::DigestBuilder digest;
  for (const obs::Event& e : stats.events)
    digest.mix(e.category).mix(e.name).mix(e.scope).mix(e.cycle).mix(
        e.detail);
  return digest.value();
}

Golden golden_of(const ExecutionStats& stats) {
  return Golden{stats.success,        stats.cycles,
                stats.synthesis_calls, stats.library_hits,
                stats.resyntheses,    stats.resyntheses_warm,
                stats.recovery,       stats.replica,
                events_digest(stats)};
}

/// The golden as a C++ initializer, so a deliberate behaviour change can be
/// re-pinned by pasting the failure message.
std::string initializer(const Golden& g) {
  const RecoveryCounters& r = g.recovery;
  const ReplicaCounters& p = g.replica;
  std::ostringstream out;
  out << "{" << (g.success ? "true" : "false") << ", " << g.cycles << ", "
      << g.synthesis_calls << ", " << g.library_hits << ", " << g.resyntheses
      << ", " << g.resyntheses_warm << ",\n {" << r.watchdog_fires << ", "
      << r.forced_resenses << ", " << r.synthesis_retries << ", "
      << r.backoff_cycles << ", " << r.quarantined_cells << ", "
      << r.contention_detours << ", " << r.aborted_jobs << ", "
      << r.synthesis_deadlines << ", " << r.fallback_routes << ", "
      << r.paroled_cells << "},\n {" << p.launched << ", " << p.failovers
      << ", " << p.merges << ", " << p.retired << ", " << p.best_effort_masks
      << ", " << p.droplet_cycles << "},\n 0x" << std::hex << g.events_digest
      << "ull}";
  return out.str();
}

void expect_golden(const ExecutionStats& stats, const Golden& want) {
  const Golden got = golden_of(stats);
  SCOPED_TRACE("actual: " + initializer(got));
  EXPECT_EQ(got.success, want.success) << stats.failure_reason;
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.synthesis_calls, want.synthesis_calls);
  EXPECT_EQ(got.library_hits, want.library_hits);
  EXPECT_EQ(got.resyntheses, want.resyntheses);
  EXPECT_EQ(got.resyntheses_warm, want.resyntheses_warm);
  EXPECT_TRUE(got.recovery == want.recovery);
  EXPECT_TRUE(got.replica == want.replica);
  EXPECT_EQ(got.events_digest, want.events_digest);
}

/// events_digest() of an empty event log (DigestBuilder's initial state).
constexpr std::uint64_t kNoEvents = 0x14650fb0739d0383ull;

sim::SimulatedChipConfig chip_config() {
  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  return config;
}

/// A mid-life chip whose clustered faults fail mid-run: the sensed health
/// keeps changing inside hazard zones, so the adaptive router re-synthesizes
/// mid-route (warm where the model topology holds).
sim::SimulatedChipConfig worn_chip_config() {
  sim::SimulatedChipConfig config = chip_config();
  config.pre_wear_max = 200;
  config.faults.mode = FaultMode::kClustered;
  config.faults.faulty_fraction = 0.05;
  config.faults.fail_at_lo = 15;
  config.faults.fail_at_hi = 150;
  return config;
}

ExecutionStats run_worn(const SchedulerConfig& config) {
  sim::SimulatedChip chip(worn_chip_config(), Rng(1));
  Scheduler scheduler(config);
  return scheduler.run(chip, assay::cep());
}

TEST(SchedulerGolden, Adaptive) {
  const ExecutionStats stats = run_worn(SchedulerConfig{});
  EXPECT_GT(stats.resyntheses, 0);
  EXPECT_GT(stats.resyntheses_warm, 0);
  expect_golden(stats, {true, 316, 50, 0, 27, 2, {}, {}, kNoEvents});
}

TEST(SchedulerGolden, Baseline) {
  // Two executions over one shared library: the second is served from the
  // strategies the first stored (the baseline's digest is constant).
  sim::SimulatedChip chip(worn_chip_config(), Rng(1));
  StrategyLibrary library;
  SchedulerConfig config;
  config.adaptive = false;
  Scheduler scheduler(config, &library);
  const ExecutionStats first = scheduler.run(chip, assay::cep());
  chip.clear_droplets();
  const ExecutionStats second = scheduler.run(chip, assay::cep());
  EXPECT_EQ(first.resyntheses, 0);
  EXPECT_GT(second.library_hits, 0);
  expect_golden(first, {true, 185, 23, 0, 0, 0, {}, {}, kNoEvents});
  expect_golden(second, {true, 162, 1, 22, 0, 0, {}, {}, kNoEvents});
}

TEST(SchedulerGolden, ReactiveOnAFaultedChip) {
  // A dead wall across the baseline's transport corridor: the baseline
  // stalls against it until the retrial recovery re-routes from the sensed
  // health matrix.
  sim::SimulatedChip chip(chip_config(), Rng(66));
  for (int y = 0; y <= 17; ++y)
    for (int x = 26; x <= 27; ++x) chip.substrate().mc(x, y).inject_fault(0);
  SchedulerConfig config;
  config.adaptive = false;
  config.reactive_recovery_stuck_cycles = 4;
  config.max_cycles = 800;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  EXPECT_GT(stats.resyntheses, 0);  // forced re-routes
  expect_golden(stats, {true, 79, 8, 0, 1, 0, {}, {}, kNoEvents});
}

TEST(SchedulerGolden, SynthesisLatency) {
  SchedulerConfig config;
  config.synthesis_latency_cycles = 3;
  const ExecutionStats stats = run_worn(config);
  // Pending syntheses hold the droplets, so the run takes longer than the
  // instantaneous-synthesis run of the same chip.
  EXPECT_GT(stats.cycles, run_worn(SchedulerConfig{}).cycles);
  expect_golden(stats, {true, 351, 50, 0, 27, 2, {}, {}, kNoEvents});
}

TEST(SchedulerGolden, NoLibrary) {
  sim::SimulatedChip chip(worn_chip_config(), Rng(1));
  StrategyLibrary library;
  SchedulerConfig config;
  config.use_library = false;
  Scheduler scheduler(config, &library);
  const ExecutionStats stats = scheduler.run(chip, assay::cep());
  EXPECT_EQ(stats.library_hits, 0);
  EXPECT_EQ(library.size(), 0u);  // nothing stored either
  expect_golden(stats, {true, 316, 50, 0, 27, 2, {}, {}, kNoEvents});
}

TEST(SchedulerGolden, RobustOnANoisyClusteredChip) {
  sim::SimulatedChipConfig cc = worn_chip_config();
  cc.faults.faulty_fraction = 0.10;
  cc.sensor.bit_flip_p = 0.03;
  cc.sensor.stuck_fraction = 0.01;
  cc.sensor.frame_drop_p = 0.02;
  sim::SimulatedChip chip(cc, Rng(1));
  SchedulerConfig config;
  config.filter.enabled = true;
  config.recovery.enabled = true;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::serial_dilution());
  EXPECT_GT(stats.recovery.quarantined_cells, 0);  // suspects quarantined
  EXPECT_GT(stats.recovery.watchdog_fires, 0);
  EXPECT_GT(stats.recovery.contention_detours, 0);
  expect_golden(stats, {true, 235, 126, 3, 98, 5,
                        {1, 1, 0, 0, 17, 1, 0, 0, 0, 0},
                        {},
                        0x4261825a62a7804cull});
}

TEST(SchedulerGolden, DeadlineFallback) {
  // A budget that some solves meet and others blow: expired solves install
  // fallback routes, and full synthesis retried after the backoff retires
  // some of them again.
  sim::SimulatedChipConfig cc = chip_config();
  cc.pre_wear_max = 200;
  sim::SimulatedChip chip(cc, Rng(1));
  SchedulerConfig config;
  config.synthesis.deadline_sweeps = 6;
  config.recovery.enabled = true;
  config.recovery.fallback_backoff_base_cycles = 2;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::serial_dilution());
  EXPECT_GT(stats.recovery.synthesis_deadlines, 0);
  EXPECT_GT(stats.recovery.fallback_routes, 0);
  EXPECT_TRUE(std::any_of(
      stats.events.begin(), stats.events.end(),
      [](const obs::Event& e) { return e.name == "fallback-retired"; }));
  expect_golden(stats, {true, 129, 40, 0, 5, 0,
                        {0, 0, 0, 0, 0, 0, 0, 13, 15, 0},
                        {},
                        0xb600da79d413326eull});
}

/// Two critical dispenses feeding a mix, far enough from the chip edge that
/// their replicas race through disjoint corridors.
assay::MoList replicated_mix() {
  assay::AssayBuilder builder("replicated-mix");
  const int d0 = builder.dispense(30.0, 10.0, 16);
  const int d1 = builder.dispense(30.0, 18.0, 16);
  const int m = builder.mix({d0, 0}, {d1, 0}, 40.0, 14.0);
  builder.output({m, 0}, 55.0, 14.0);
  return std::move(builder).build();
}

TEST(SchedulerGolden, ReplicatedCriticalDispenses) {
  sim::SimulatedChip chip(worn_chip_config(), Rng(1));
  SchedulerConfig config;
  config.replicate_critical_dispenses = 2;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, replicated_mix());
  EXPECT_GT(stats.replica.launched, 0);
  EXPECT_GT(stats.replica.retired, 0);
  expect_golden(stats, {true, 51, 15, 0, 7, 0,
                        {},
                        {4, 0, 2, 2, 0, 19},
                        0x8f9a1191db66df56ull});
}

}  // namespace
}  // namespace meda::core
