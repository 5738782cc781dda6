#include "core/library_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "assay/benchmarks.hpp"
#include "core/scheduler.hpp"
#include "sim/experiments.hpp"
#include "sim/simulated_chip.hpp"
#include "util/check.hpp"

namespace meda::core {
namespace {

/// Builds a library by running the offline phase for COVID-RAT.
StrategyLibrary precomputed_library() {
  StrategyLibrary library;
  BiochipConfig chip;
  chip.width = assay::kChipWidth;
  chip.height = assay::kChipHeight;
  sim::precompute_offline_library(library, assay::covid_rat(), chip,
                                  SchedulerConfig{});
  return library;
}

TEST(LibraryIo, RoundTripsThroughAStream) {
  const StrategyLibrary original = precomputed_library();
  ASSERT_GT(original.size(), 0u);
  std::stringstream buffer;
  save_library(original, buffer);
  StrategyLibrary loaded;
  load_library(loaded, buffer);
  ASSERT_EQ(loaded.size(), original.size());
  const auto original_entries = original.entries();
  const auto loaded_entries = loaded.entries();
  for (std::size_t i = 0; i < original_entries.size(); ++i) {
    EXPECT_EQ(loaded_entries[i].start, original_entries[i].start);
    EXPECT_EQ(loaded_entries[i].goal, original_entries[i].goal);
    EXPECT_EQ(loaded_entries[i].hazard, original_entries[i].hazard);
    EXPECT_EQ(loaded_entries[i].digest, original_entries[i].digest);
    const SynthesisResult& a = *original_entries[i].result;
    const SynthesisResult& b = *loaded_entries[i].result;
    EXPECT_EQ(b.feasible, a.feasible);
    EXPECT_DOUBLE_EQ(b.expected_cycles, a.expected_cycles);
    EXPECT_DOUBLE_EQ(b.reach_probability, a.reach_probability);
    EXPECT_EQ(b.strategy.size(), a.strategy.size());
    for (const auto& [droplet, action] : a.strategy)
      EXPECT_EQ(b.strategy.action(droplet), action) << droplet.to_string();
  }
}

TEST(LibraryIo, LoadedLibraryServesASchedulerRun) {
  // The deployment flow: precompute offline, save, restart, load, run with
  // zero runtime synthesis.
  const std::string path = "/tmp/meda_library_io_test.medalib";
  {
    const StrategyLibrary library = precomputed_library();
    save_library_file(library, path);
  }
  StrategyLibrary loaded;
  load_library_file(loaded, path);
  std::remove(path.c_str());

  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  sim::SimulatedChip chip(config, Rng(77));
  Scheduler scheduler(SchedulerConfig{}, &loaded);
  const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_EQ(stats.synthesis_calls, 0);
  EXPECT_GT(stats.library_hits, 0);
}

TEST(LibraryIo, SerializesInfiniteExpectations) {
  StrategyLibrary library;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 3, 3);
  rj.goal = Rect::from_size(8, 0, 3, 3);
  rj.hazard = Rect{0, 0, 11, 5};
  SynthesisResult infeasible;  // default: feasible=false, E=inf, p=0
  library.store(rj, 7, infeasible);
  std::stringstream buffer;
  save_library(library, buffer);
  EXPECT_NE(buffer.str().find(" inf "), std::string::npos);
  StrategyLibrary loaded;
  load_library(loaded, buffer);
  const SynthesisResult* entry = loaded.lookup(rj, 7);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->feasible);
  EXPECT_TRUE(std::isinf(entry->expected_cycles));
}

TEST(LibraryIo, LoadsDecimalDoublesFromOlderFilesAndSavesThemExactly) {
  // Older builds wrote the two doubles as 17-digit decimals; today's writer
  // uses hexfloats. Both load, and a save/load round trip is bit-exact.
  std::stringstream old_file(
      "medalib 1\nentry 0 0 2 2 8 0 10 2 0 0 11 5 7 1 12.333333333333334 "
      "0.90000000000000002 1\n0 0 2 2 4\n");
  StrategyLibrary library;
  const LibraryLoadStats stats = load_library(library, old_file);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  ASSERT_EQ(library.size(), 1u);
  const SynthesisResult& loaded = *library.entries()[0].result;
  EXPECT_EQ(loaded.expected_cycles, 12.333333333333334);
  EXPECT_EQ(loaded.reach_probability, 0.9);
  std::stringstream buffer;
  save_library(library, buffer);
  StrategyLibrary reloaded;
  load_library(reloaded, buffer);
  ASSERT_EQ(reloaded.size(), 1u);
  const SynthesisResult& again = *reloaded.entries()[0].result;
  EXPECT_EQ(again.expected_cycles, loaded.expected_cycles);
  EXPECT_EQ(again.reach_probability, loaded.reach_probability);
  EXPECT_EQ(again.strategy.size(), 1u);
}

TEST(LibraryIo, RejectsADoubleTokenItDoesNotConsumeWhole) {
  // strtod alone reads "4zzz" as 4 and "zzz" as 0. A double is taken only
  // when its whole token parses, so both garbled entries are rejected rather
  // than stored with a made-up expectation; the valid entry after them loads.
  std::stringstream in(
      "medalib 1\n"
      "entry 0 0 2 2 8 0 10 2 0 0 11 5 7 1 4zzz 1 1\n0 0 2 2 4\n"
      "entry 0 0 2 2 8 0 10 2 0 0 11 5 8 1 zzz 1 1\n0 0 2 2 4\n"
      "entry 0 0 2 2 8 0 10 2 0 0 11 5 9 1 4 1 1\n0 0 2 2 4\n");
  StrategyLibrary library;
  const LibraryLoadStats stats = load_library(library, in);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.rejected, 2u);
  ASSERT_EQ(library.size(), 1u);
  EXPECT_EQ(library.entries()[0].digest, 9u);
  EXPECT_EQ(library.entries()[0].result->expected_cycles, 4.0);
}

TEST(LibraryIo, RejectsMalformedHeaders) {
  // A wrong header means the file is not a library at all: typed throw
  // (LibraryLoadError is-a PreconditionError, so pre-existing catch sites
  // keep working).
  StrategyLibrary library;
  std::stringstream bad_magic("notalib 1\n");
  EXPECT_THROW(load_library(library, bad_magic), LibraryLoadError);
  std::stringstream bad_version("medalib 9\n");
  EXPECT_THROW(load_library(library, bad_version), PreconditionError);
  EXPECT_THROW(load_library_file(library, "/nonexistent/lib"),
               LibraryLoadError);
}

TEST(LibraryIo, SkipsTruncatedEntryInsteadOfThrowing) {
  // Past a valid header, corruption is entry-granular: the torn entry is
  // skipped whole (nothing partially stored) and counted.
  StrategyLibrary library;
  std::stringstream truncated(
      "medalib 1\nentry 0 0 2 2 8 0 10 2 0 0 11 5 7 1 4");
  const LibraryLoadStats stats = load_library(library, truncated);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(library.size(), 0u);
}

TEST(LibraryIo, ResynchronizesPastGarbageAndBadEntries) {
  // A valid entry, then a garbled one, then another valid one: both valid
  // entries load, the garbled one is counted as rejected.
  StrategyLibrary good;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 3, 3);
  rj.goal = Rect::from_size(4, 0, 3, 3);
  rj.hazard = Rect{0, 0, 9, 5};
  SynthesisResult r;
  r.feasible = true;
  r.expected_cycles = 4.0;
  r.reach_probability = 1.0;
  good.store(rj, 1, r);
  rj.goal = Rect::from_size(6, 0, 3, 3);
  good.store(rj, 2, r);
  std::stringstream buffer;
  save_library(good, buffer);
  const std::string text = buffer.str();
  const std::size_t second = text.find("entry", text.find("entry") + 1);
  ASSERT_NE(second, std::string::npos);
  const std::string corrupted = text.substr(0, second) +
                                "entry 0 0 2 2 WAT garbage bytes\n" +
                                text.substr(second);

  StrategyLibrary library;
  std::stringstream in(corrupted);
  const LibraryLoadStats stats = load_library(library, in);
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(library.size(), 2u);
}

TEST(LibraryIo, RejectsAbsurdRowCounts) {
  // A garbled row count must not allocate/parse gigabytes: entries claiming
  // more rows than any real strategy are rejected outright.
  StrategyLibrary library;
  std::stringstream in(
      "medalib 1\nentry 0 0 2 2 4 0 6 2 0 0 9 5 7 1 10 1 999999999999\n");
  const LibraryLoadStats stats = load_library(library, in);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(library.size(), 0u);
}

TEST(LibraryIo, FuzzedTruncationNeverThrowsAndLoadsAPrefix) {
  // Chop a valid multi-entry file at every byte offset past the header:
  // the loader must never throw, never store a partial strategy, and the
  // loaded entries must be a prefix subset of the original file's.
  const StrategyLibrary original = precomputed_library();
  ASSERT_GE(original.size(), 2u);
  std::stringstream buffer;
  save_library(original, buffer);
  const std::string text = buffer.str();
  const std::size_t header_end = text.find('\n') + 1;

  for (std::size_t cut = header_end; cut <= text.size(); ++cut) {
    StrategyLibrary library;
    std::stringstream in(text.substr(0, cut));
    LibraryLoadStats stats;
    ASSERT_NO_THROW(stats = load_library(library, in)) << "cut=" << cut;
    EXPECT_EQ(stats.loaded, library.size()) << "cut=" << cut;
    EXPECT_LE(library.size(), original.size()) << "cut=" << cut;
    // Every loaded entry must exactly match an entry of the original
    // library — truncation can drop entries but never distort one.
    for (const StrategyLibrary::EntryView& view : library.entries()) {
      assay::RoutingJob job;
      job.start = view.start;
      job.goal = view.goal;
      job.hazard = view.hazard;
      const SynthesisResult* full = original.lookup(job, view.digest);
      ASSERT_NE(full, nullptr) << "cut=" << cut;
      ASSERT_EQ(view.result->strategy.size(), full->strategy.size())
          << "cut=" << cut;
      for (const auto& [droplet, action] : full->strategy)
        EXPECT_EQ(view.result->strategy.action(droplet), action)
            << "cut=" << cut << " droplet=" << droplet.to_string();
    }
  }
}

TEST(LibraryIo, LoadMergesWithExistingEntries) {
  StrategyLibrary library;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 3, 3);
  rj.goal = Rect::from_size(4, 0, 3, 3);
  rj.hazard = Rect{0, 0, 9, 5};
  SynthesisResult r;
  r.feasible = true;
  r.expected_cycles = 4.0;
  library.store(rj, 1, r);

  StrategyLibrary other;
  rj.goal = Rect::from_size(6, 0, 3, 3);
  r.expected_cycles = 6.0;
  other.store(rj, 2, r);
  std::stringstream buffer;
  save_library(other, buffer);
  load_library(library, buffer);
  EXPECT_EQ(library.size(), 2u);
}

}  // namespace
}  // namespace meda::core
