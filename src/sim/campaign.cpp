#include "sim/campaign.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "core/codec.hpp"
#include "core/library.hpp"
#include "obs/obs.hpp"
#include "sim/experiments.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/record_log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace meda::sim {

namespace {

// Checkpoint payload codec. A slot serializes exactly the ExecutionStats
// subset the reductions consume (RunRollup::absorb inputs plus the chaos
// channel tallies); synthesis_seconds round-trips exactly through the
// shared hexfloat codec so a resumed campaign reproduces the
// straight-through CSV byte for byte.

void encode_stats(std::ostream& os, const core::ExecutionStats& s) {
  const core::RecoveryCounters& r = s.recovery;
  const core::ReplicaCounters& n = s.replica;
  os << (s.success ? 1 : 0) << ' ' << s.cycles << ' ' << s.completed_mos
     << ' ' << s.aborted_mos << ' ' << s.synthesis_calls << ' '
     << s.library_hits << ' ' << s.resyntheses << ' ' << s.resyntheses_warm
     << ' ' << core::hex_double(s.synthesis_seconds) << ' '
     << r.watchdog_fires << ' '
     << r.forced_resenses << ' ' << r.synthesis_retries << ' '
     << r.backoff_cycles << ' ' << r.quarantined_cells << ' '
     << r.contention_detours << ' ' << r.aborted_jobs << ' '
     << r.synthesis_deadlines << ' ' << r.fallback_routes << ' '
     << r.paroled_cells << ' ' << n.launched << ' ' << n.failovers << ' '
     << n.merges << ' ' << n.retired << ' ' << n.best_effort_masks << ' '
     << n.droplet_cycles;
}

bool decode_stats(std::istream& is, core::ExecutionStats& s) {
  int success = 0;
  std::string seconds;
  core::RecoveryCounters& r = s.recovery;
  core::ReplicaCounters& n = s.replica;
  if (!(is >> success >> s.cycles >> s.completed_mos >> s.aborted_mos >>
        s.synthesis_calls >> s.library_hits >> s.resyntheses >>
        s.resyntheses_warm >> seconds >>
        r.watchdog_fires >> r.forced_resenses >> r.synthesis_retries >>
        r.backoff_cycles >> r.quarantined_cells >> r.contention_detours >>
        r.aborted_jobs >> r.synthesis_deadlines >> r.fallback_routes >>
        r.paroled_cells >> n.launched >> n.failovers >> n.merges >>
        n.retired >> n.best_effort_masks >> n.droplet_cycles))
    return false;
  s.success = success != 0;
  return core::parse_double(seconds, s.synthesis_seconds);
}

std::string encode_run_records(const std::vector<RunRecord>& records) {
  std::ostringstream os;
  os << records.size();
  for (const RunRecord& record : records) {
    os << ' ';
    encode_stats(os, record.stats);
  }
  return os.str();
}

bool decode_run_records(const std::string& payload,
                        std::vector<RunRecord>& out) {
  std::istringstream is(payload);
  std::size_t n = 0;
  if (!(is >> n) || n > 1u << 20) return false;
  std::vector<RunRecord> records(n);
  for (RunRecord& record : records) {
    if (!decode_stats(is, record.stats)) return false;
    record.success = record.stats.success;
    record.cycles = record.stats.cycles;
  }
  out = std::move(records);
  return true;
}

}  // namespace

// Both campaigns share the same parallel structure: the (cell, chip) grid
// is flattened into independent tasks, each task derives everything random
// from the chip index alone (seed0 + chip_idx) and writes into its own
// preallocated slot, and the slots are reduced serially in the original
// grid order afterwards. Because no floating-point accumulation happens
// concurrently and no seed depends on execution order, the cells — and any
// CSV written from them — are byte-identical at every job count, including
// the serial jobs = 1 path.

std::vector<CampaignCell> run_campaign(
    const std::vector<assay::MoList>& assays,
    const std::vector<RouterConfig>& routers, const CampaignConfig& config) {
  MEDA_REQUIRE(!assays.empty() && !routers.empty(),
               "campaign needs at least one assay and one router");
  MEDA_REQUIRE(config.chips >= 1 && config.runs_per_chip >= 1,
               "campaign needs positive chip/run counts");
  std::vector<CampaignCell> cells(assays.size() * routers.size());
  for (std::size_t a = 0; a < assays.size(); ++a) {
    for (std::size_t r = 0; r < routers.size(); ++r) {
      CampaignCell& cell = cells[a * routers.size() + r];
      cell.assay = assays[a].name;
      cell.router = routers[r].name;
    }
  }

  const std::size_t chips = static_cast<std::size_t>(config.chips);
  std::vector<std::vector<RunRecord>> slots(cells.size() * chips);
  util::SlotCheckpoint checkpoint;
  if (!config.checkpoint.path.empty()) {
    util::DigestBuilder digest;
    // v3: the replica counters joined the encode_stats payload,
    // invalidating checkpoints written by older binaries.
    digest.mix(std::string("meda-campaign-v3"));
    digest.mix(config.seed0).mix(config.chips).mix(config.runs_per_chip);
    digest.mix(config.checkpoint.salt);
    digest.mix(static_cast<std::uint64_t>(assays.size()));
    for (const assay::MoList& assay_list : assays) digest.mix(assay_list.name);
    digest.mix(static_cast<std::uint64_t>(routers.size()));
    for (const RouterConfig& router : routers) digest.mix(router.name);
    checkpoint.open(config.checkpoint.path, digest.value(),
                    config.checkpoint.resume, slots.size());
  }
  util::parallel_for(config.jobs, slots.size(), [&](std::size_t t) {
    if (const std::string* payload = checkpoint.restored(t))
      if (decode_run_records(*payload, slots[t])) return;
    const std::size_t cell_idx = t / chips;
    const int chip_idx = static_cast<int>(t % chips);
    const assay::MoList& assay_list = assays[cell_idx / routers.size()];
    const RouterConfig& router = routers[cell_idx % routers.size()];
    MEDA_OBS_SPAN(chip_span, "campaign", "chip");
    chip_span.arg("assay", assay_list.name);
    chip_span.arg("router", router.name);
    chip_span.arg("chip", static_cast<std::int64_t>(chip_idx));
    RepeatedRunsConfig runs_config;
    runs_config.chip = config.chip;
    runs_config.scheduler = router.scheduler;
    runs_config.runs = config.runs_per_chip;
    runs_config.seed = config.seed0 + static_cast<std::uint64_t>(chip_idx);
    slots[t] = run_repeated(assay_list, runs_config);
    if (checkpoint.active())
      checkpoint.record(t, encode_run_records(slots[t]));
  });

  for (std::size_t cell_idx = 0; cell_idx < cells.size(); ++cell_idx) {
    CampaignCell& cell = cells[cell_idx];
    MEDA_OBS_SPAN(cell_span, "campaign", "cell");
    for (std::size_t chip_idx = 0; chip_idx < chips; ++chip_idx) {
      for (const RunRecord& record : slots[cell_idx * chips + chip_idx]) {
        cell.rollup.absorb(record.stats);
        cell.resyntheses.add(record.stats.resyntheses);
      }
    }
    cell_span.arg("assay", cell.assay);
    cell_span.arg("router", cell.router);
    cell_span.arg("runs", static_cast<std::int64_t>(cell.rollup.runs));
    cell_span.arg("successes",
                  static_cast<std::int64_t>(cell.rollup.successes));
  }
  return cells;
}

void print_campaign(std::ostream& os,
                    const std::vector<CampaignCell>& cells) {
  Table table({"bioassay", "router", "success rate (± SE)",
               "cycles (± 95% CI)", "mean re-syntheses/run"});
  for (const CampaignCell& cell : cells) {
    const core::RunRollup& r = cell.rollup;
    const double p = r.success_rate();
    const double se =
        r.runs > 0 ? std::sqrt(p * (1.0 - p) / r.runs) : 0.0;
    table.add_row(
        {cell.assay, cell.router,
         fmt_prob(p) + " ± " + fmt_prob(se),
         r.cycles.count() > 0
             ? fmt_double(r.cycles.mean(), 1) + " ± " +
                   fmt_double(r.cycles.ci95_halfwidth(), 1)
             : "-",
         fmt_double(cell.resyntheses.count() ? cell.resyntheses.mean() : 0.0,
                    1)});
  }
  table.print(os);
}

namespace {

std::unique_ptr<DegradationAdversary> make_adversary(
    AdversaryKind kind, const AdversaryBudget& budget) {
  switch (kind) {
    case AdversaryKind::kNone: return nullptr;
    case AdversaryKind::kRandom:
      return std::make_unique<RandomAdversary>(budget);
    case AdversaryKind::kFrontier:
      return std::make_unique<FrontierAdversary>(budget);
  }
  return nullptr;
}

/// One (cell, chip) task's output: per-run stats in execution order plus
/// the chip's sensing-channel tallies.
struct ChaosChipSlot {
  std::vector<core::ExecutionStats> stats;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bits_flipped = 0;
  core::LibraryStats library;  ///< the chip's private library, after all runs
};

void encode_library_class(std::ostream& os, const core::LibraryClassStats& s) {
  os << s.hits << ' ' << s.misses << ' ' << s.inserts << ' ' << s.overwrites
     << ' ' << s.evictions;
}

bool decode_library_class(std::istream& is, core::LibraryClassStats& s) {
  return static_cast<bool>(is >> s.hits >> s.misses >> s.inserts >>
                           s.overwrites >> s.evictions);
}

std::string encode_chaos_slot(const ChaosChipSlot& slot) {
  std::ostringstream os;
  os << slot.frames_dropped << ' ' << slot.bits_flipped << ' ';
  encode_library_class(os, slot.library.plain);
  os << ' ';
  encode_library_class(os, slot.library.detour);
  os << ' ';
  encode_library_class(os, slot.library.replica);
  os << ' ' << slot.stats.size();
  for (const core::ExecutionStats& stats : slot.stats) {
    os << ' ';
    encode_stats(os, stats);
  }
  return os.str();
}

bool decode_chaos_slot(const std::string& payload, ChaosChipSlot& out) {
  std::istringstream is(payload);
  ChaosChipSlot slot;
  std::size_t n = 0;
  if (!(is >> slot.frames_dropped >> slot.bits_flipped)) return false;
  if (!decode_library_class(is, slot.library.plain)) return false;
  if (!decode_library_class(is, slot.library.detour)) return false;
  if (!decode_library_class(is, slot.library.replica)) return false;
  if (!(is >> n) || n > 1u << 20) return false;
  slot.stats.resize(n);
  for (core::ExecutionStats& stats : slot.stats)
    if (!decode_stats(is, stats)) return false;
  out = std::move(slot);
  return true;
}

}  // namespace

std::vector<ChaosCell> run_chaos_campaign(
    const std::vector<assay::MoList>& assays,
    const std::vector<RouterConfig>& routers,
    const ChaosCampaignConfig& config) {
  MEDA_REQUIRE(!assays.empty() && !routers.empty() && !config.levels.empty(),
               "chaos campaign needs an assay, a router, and a level");
  MEDA_REQUIRE(config.chips >= 1 && config.runs_per_chip >= 1,
               "chaos campaign needs positive chip/run counts");
  const std::size_t n_routers = routers.size();
  const std::size_t n_levels = config.levels.size();
  std::vector<ChaosCell> cells(assays.size() * n_levels * n_routers);
  for (std::size_t a = 0; a < assays.size(); ++a) {
    for (std::size_t l = 0; l < n_levels; ++l) {
      for (std::size_t r = 0; r < n_routers; ++r) {
        ChaosCell& cell = cells[(a * n_levels + l) * n_routers + r];
        cell.assay = assays[a].name;
        cell.router = routers[r].name;
        cell.level = config.levels[l].name;
        cell.sensor = config.levels[l].sensor;
      }
    }
  }

  const std::size_t chips = static_cast<std::size_t>(config.chips);
  std::vector<ChaosChipSlot> slots(cells.size() * chips);
  util::SlotCheckpoint checkpoint;
  if (!config.checkpoint.path.empty()) {
    util::DigestBuilder digest;
    // v2: slot payloads gained the per-class library stats block.
    // v3: resyntheses_warm joined the encode_stats payload.
    // v4: the replica counters joined encode_stats and the replica library
    //     class joined the slot's library block.
    digest.mix(std::string("meda-chaos-v4"));
    digest.mix(config.seed0).mix(config.chips).mix(config.runs_per_chip);
    digest.mix(config.checkpoint.salt);
    digest.mix(static_cast<int>(config.adversary));
    digest.mix(static_cast<std::uint64_t>(assays.size()));
    for (const assay::MoList& assay_list : assays) digest.mix(assay_list.name);
    digest.mix(static_cast<std::uint64_t>(routers.size()));
    for (const RouterConfig& router : routers) digest.mix(router.name);
    digest.mix(static_cast<std::uint64_t>(config.levels.size()));
    for (const ChaosLevel& level : config.levels) {
      digest.mix(level.name);
      digest.mix(level.sensor.bit_flip_p);
      digest.mix(level.sensor.stuck_fraction);
      digest.mix(level.sensor.frame_drop_p);
    }
    checkpoint.open(config.checkpoint.path, digest.value(),
                    config.checkpoint.resume, slots.size());
  }
  util::parallel_for(config.jobs, slots.size(), [&](std::size_t t) {
    if (const std::string* payload = checkpoint.restored(t))
      if (decode_chaos_slot(*payload, slots[t])) return;
    const std::size_t cell_idx = t / chips;
    const int chip_idx = static_cast<int>(t % chips);
    const ChaosCell& cell = cells[cell_idx];
    const assay::MoList& assay_list =
        assays[cell_idx / (n_levels * n_routers)];
    const RouterConfig& router = routers[cell_idx % n_routers];
    // The substrate seed depends only on chip_idx: the same chip (same
    // degradation constants, same injected faults) underlies every
    // level and router — only the sensing channel differs.
    Rng rng(config.seed0 + static_cast<std::uint64_t>(chip_idx));
    SimulatedChipConfig chip_config = config.chip;
    chip_config.sensor = cell.sensor;
    SimulatedChip chip(chip_config, rng.fork(0xC41));
    chip.set_adversary(
        make_adversary(config.adversary, config.adversary_budget));
    core::StrategyLibrary library;
    core::Scheduler scheduler(router.scheduler, &library);
    ChaosChipSlot& slot = slots[t];
    slot.stats.reserve(static_cast<std::size_t>(config.runs_per_chip));
    for (int run = 0; run < config.runs_per_chip; ++run) {
      MEDA_OBS_SPAN(trial_span, "campaign", "trial");
      chip.clear_droplets();
      const core::ExecutionStats stats = scheduler.run(chip, assay_list);
      trial_span.arg("assay", cell.assay);
      trial_span.arg("router", cell.router);
      trial_span.arg("level", cell.level);
      trial_span.arg("chip", static_cast<std::int64_t>(chip_idx));
      trial_span.arg("run", static_cast<std::int64_t>(run));
      trial_span.arg("success",
                     static_cast<std::int64_t>(stats.success ? 1 : 0));
      trial_span.arg("cycles", static_cast<std::int64_t>(stats.cycles));
      slot.stats.push_back(stats);
    }
    slot.frames_dropped = chip.sensor_channel().frames_dropped();
    slot.bits_flipped = chip.sensor_channel().bits_flipped();
    slot.library = library.stats();
    if (checkpoint.active()) checkpoint.record(t, encode_chaos_slot(slot));
  });

  for (std::size_t cell_idx = 0; cell_idx < cells.size(); ++cell_idx) {
    ChaosCell& cell = cells[cell_idx];
    for (std::size_t chip_idx = 0; chip_idx < chips; ++chip_idx) {
      const ChaosChipSlot& slot = slots[cell_idx * chips + chip_idx];
      for (const core::ExecutionStats& stats : slot.stats)
        cell.rollup.absorb(stats);
      cell.frames_dropped += slot.frames_dropped;
      cell.bits_flipped += slot.bits_flipped;
      cell.library += slot.library;
    }
  }
  return cells;
}

void print_chaos_campaign(std::ostream& os,
                          const std::vector<ChaosCell>& cells) {
  Table table({"bioassay", "noise", "router", "success", "cycles",
               "watchdog", "retries", "quarantined", "detours", "replicas",
               "failovers", "aborted"});
  for (const ChaosCell& cell : cells) {
    const core::RunRollup& r = cell.rollup;
    table.add_row(
        {cell.assay, cell.level, cell.router,
         std::to_string(r.successes) + "/" + std::to_string(r.runs),
         r.cycles.count() > 0 ? fmt_double(r.cycles.mean(), 1) : "-",
         std::to_string(r.recovery.watchdog_fires),
         std::to_string(r.recovery.synthesis_retries),
         std::to_string(r.recovery.quarantined_cells),
         std::to_string(r.recovery.contention_detours),
         std::to_string(r.replica.launched),
         std::to_string(r.replica.failovers),
         std::to_string(r.recovery.aborted_jobs)});
  }
  table.print(os);
}

void write_chaos_csv(const std::string& path,
                     const std::vector<ChaosCell>& cells) {
  CsvWriter csv(path,
                {"assay", "router", "level", "bit_flip_p", "stuck_fraction",
                 "frame_drop_p", "runs", "successes", "success_rate",
                 "mean_cycles", "watchdog_fires", "forced_resenses",
                 "synthesis_retries", "backoff_cycles", "quarantined_cells",
                 "contention_detours", "aborted_jobs", "synthesis_deadlines",
                 "fallback_routes", "paroled_cells", "frames_dropped",
                 "bits_flipped", "synthesis_calls", "replicas_launched",
                 "replica_failovers", "replica_merges", "replica_retired",
                 "replica_best_effort_masks", "replica_droplet_cycles"});
  for (const ChaosCell& cell : cells) {
    const core::RunRollup& r = cell.rollup;
    csv.write_row(
        {cell.assay, cell.router, cell.level,
         fmt_double(cell.sensor.bit_flip_p, 6),
         fmt_double(cell.sensor.stuck_fraction, 6),
         fmt_double(cell.sensor.frame_drop_p, 6),
         std::to_string(r.runs), std::to_string(r.successes),
         fmt_double(r.success_rate(), 4),
         r.cycles.count() > 0 ? fmt_double(r.cycles.mean(), 2) : "",
         std::to_string(r.recovery.watchdog_fires),
         std::to_string(r.recovery.forced_resenses),
         std::to_string(r.recovery.synthesis_retries),
         std::to_string(r.recovery.backoff_cycles),
         std::to_string(r.recovery.quarantined_cells),
         std::to_string(r.recovery.contention_detours),
         std::to_string(r.recovery.aborted_jobs),
         std::to_string(r.recovery.synthesis_deadlines),
         std::to_string(r.recovery.fallback_routes),
         std::to_string(r.recovery.paroled_cells),
         std::to_string(cell.frames_dropped),
         std::to_string(cell.bits_flipped),
         std::to_string(r.synthesis_calls),
         std::to_string(r.replica.launched),
         std::to_string(r.replica.failovers),
         std::to_string(r.replica.merges),
         std::to_string(r.replica.retired),
         std::to_string(r.replica.best_effort_masks),
         std::to_string(r.replica.droplet_cycles)});
  }
}

void write_chaos_metrics_csv(const std::string& path,
                             const std::vector<ChaosCell>& cells) {
  // One named extractor per metric, listed in column (name-sorted) order so
  // downstream diffing tools see a stable schema as metrics are added.
  struct Metric {
    const char* name;
    std::string (*value)(const ChaosCell&);
  };
  static constexpr Metric kMetrics[] = {
      {"chaos.bits_flipped",
       [](const ChaosCell& c) { return std::to_string(c.bits_flipped); }},
      {"chaos.frames_dropped",
       [](const ChaosCell& c) { return std::to_string(c.frames_dropped); }},
      // library_stats block: per-digest-class strategy-library operation
      // counts summed over the cell's per-chip libraries.
      {"library.detour.evictions",
       [](const ChaosCell& c) {
         return std::to_string(c.library.detour.evictions);
       }},
      {"library.detour.hits",
       [](const ChaosCell& c) {
         return std::to_string(c.library.detour.hits);
       }},
      {"library.detour.inserts",
       [](const ChaosCell& c) {
         return std::to_string(c.library.detour.inserts);
       }},
      {"library.detour.misses",
       [](const ChaosCell& c) {
         return std::to_string(c.library.detour.misses);
       }},
      {"library.detour.overwrites",
       [](const ChaosCell& c) {
         return std::to_string(c.library.detour.overwrites);
       }},
      {"library.plain.evictions",
       [](const ChaosCell& c) {
         return std::to_string(c.library.plain.evictions);
       }},
      {"library.plain.hits",
       [](const ChaosCell& c) {
         return std::to_string(c.library.plain.hits);
       }},
      {"library.plain.inserts",
       [](const ChaosCell& c) {
         return std::to_string(c.library.plain.inserts);
       }},
      {"library.plain.misses",
       [](const ChaosCell& c) {
         return std::to_string(c.library.plain.misses);
       }},
      {"library.plain.overwrites",
       [](const ChaosCell& c) {
         return std::to_string(c.library.plain.overwrites);
       }},
      {"library.replica.evictions",
       [](const ChaosCell& c) {
         return std::to_string(c.library.replica.evictions);
       }},
      {"library.replica.hits",
       [](const ChaosCell& c) {
         return std::to_string(c.library.replica.hits);
       }},
      {"library.replica.inserts",
       [](const ChaosCell& c) {
         return std::to_string(c.library.replica.inserts);
       }},
      {"library.replica.misses",
       [](const ChaosCell& c) {
         return std::to_string(c.library.replica.misses);
       }},
      {"library.replica.overwrites",
       [](const ChaosCell& c) {
         return std::to_string(c.library.replica.overwrites);
       }},
      {"recovery.aborted_jobs",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.aborted_jobs);
       }},
      {"recovery.backoff_cycles",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.backoff_cycles);
       }},
      {"recovery.contention_detours",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.contention_detours);
       }},
      {"recovery.fallback_routes",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.fallback_routes);
       }},
      {"recovery.forced_resenses",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.forced_resenses);
       }},
      {"recovery.paroled_cells",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.paroled_cells);
       }},
      {"recovery.quarantined_cells",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.quarantined_cells);
       }},
      {"recovery.synthesis_deadlines",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.synthesis_deadlines);
       }},
      {"recovery.synthesis_retries",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.synthesis_retries);
       }},
      {"recovery.watchdog_fires",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.recovery.watchdog_fires);
       }},
      // replica block: the N-modular-redundancy machinery, all zero unless
      // a router replicates critical dispenses.
      {"replica.best_effort_masks",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.replica.best_effort_masks);
       }},
      {"replica.droplet_cycles",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.replica.droplet_cycles);
       }},
      {"replica.failovers",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.replica.failovers);
       }},
      {"replica.launched",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.replica.launched);
       }},
      {"replica.merges",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.replica.merges);
       }},
      {"replica.retired",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.replica.retired);
       }},
      {"sched.aborted_mos",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.aborted_mos);
       }},
      {"sched.completed_mos",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.completed_mos);
       }},
      {"sched.library_hit_rate",
       [](const ChaosCell& c) {
         return fmt_double(c.rollup.library_hit_rate(), 4);
       }},
      {"sched.library_hits",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.library_hits);
       }},
      {"sched.mean_cycles",
       [](const ChaosCell& c) {
         return c.rollup.cycles.count() > 0
                    ? fmt_double(c.rollup.cycles.mean(), 2)
                    : std::string();
       }},
      {"sched.resyntheses",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.resyntheses);
       }},
      {"sched.resyntheses_warm",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.resyntheses_warm);
       }},
      {"sched.runs",
       [](const ChaosCell& c) { return std::to_string(c.rollup.runs); }},
      {"sched.success_rate",
       [](const ChaosCell& c) {
         return fmt_double(c.rollup.success_rate(), 4);
       }},
      {"sched.successes",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.successes);
       }},
      {"sched.synthesis_calls",
       [](const ChaosCell& c) {
         return std::to_string(c.rollup.synthesis_calls);
       }},
  };
  std::vector<std::string> header{"assay", "router", "level"};
  for (const Metric& metric : kMetrics) header.push_back(metric.name);
  CsvWriter csv(path, header);
  for (const ChaosCell& cell : cells) {
    std::vector<std::string> row{cell.assay, cell.router, cell.level};
    for (const Metric& metric : kMetrics) row.push_back(metric.value(cell));
    csv.write_row(row);
  }
}

}  // namespace meda::sim
