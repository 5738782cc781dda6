// Reproduces Fig. 15: probability of successful bioassay completion (PoS)
// within a cycle budget k_max, for the six benchmark bioassays, comparing the
// proposed adaptive synthesis framework against the degradation-unaware
// shortest-path baseline. Chips are reused: each chip executes the bioassay
// repeatedly and keeps degrading (the CMOS-reuse scenario of Section VII-B).
//
// Expected shape: adaptive >= baseline everywhere; the gap is largest for
// long bioassays at intermediate budgets (the paper quotes Serial Dilution at
// k_max = 300: 0.8 adaptive vs 0.1 baseline on their testbed).

// Pass `--jobs N` to run the chip instances of each configuration on N
// worker threads (0 = all hardware threads); every chip's seed is derived
// from its index alone and the per-chip results are concatenated in chip
// order, so the tables and CSV are byte-identical at any job count.
// `--checkpoint PATH` persists completed chips; `--resume` reloads them.

#include <iostream>
#include <sstream>
#include <vector>

#include "assay/benchmarks.hpp"
#include "sim/experiments.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/record_log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace meda;

namespace {

constexpr int kChips = 6;          // chip instances per configuration
constexpr int kRunsPerChip = 14;   // executions per chip (reuse)

// PoS only consumes (success, cycles) per run, so that is all a slot
// persists (see probability_of_success).
std::string encode_chip(const std::vector<sim::RunRecord>& runs) {
  std::ostringstream os;
  os << runs.size();
  for (const sim::RunRecord& run : runs)
    os << ' ' << (run.success ? 1 : 0) << ' ' << run.cycles;
  return os.str();
}

bool decode_chip(const std::string& payload,
                 std::vector<sim::RunRecord>& out) {
  std::istringstream is(payload);
  std::size_t n = 0;
  if (!(is >> n) || n > 1u << 20) return false;
  std::vector<sim::RunRecord> runs(n);
  for (sim::RunRecord& run : runs) {
    int success = 0;
    if (!(is >> success >> run.cycles)) return false;
    run.success = success != 0;
    run.stats.success = run.success;
    run.stats.cycles = run.cycles;
  }
  out = std::move(runs);
  return true;
}

std::vector<sim::RunRecord> collect_runs(const assay::MoList& assay_list,
                                         bool adaptive, int jobs,
                                         util::SlotCheckpoint& checkpoint,
                                         std::size_t slot_base) {
  std::vector<std::vector<sim::RunRecord>> per_chip(kChips);
  util::parallel_for(jobs, per_chip.size(), [&](std::size_t chip_idx) {
    const std::size_t slot = slot_base + chip_idx;
    if (const std::string* payload = checkpoint.restored(slot))
      if (decode_chip(*payload, per_chip[chip_idx])) return;
    sim::RepeatedRunsConfig config;
    config.chip.chip.width = assay::kChipWidth;
    config.chip.chip.height = assay::kChipHeight;
    // Accelerated degradation constants (c scaled down ~3x from the paper's
    // U(200, 500)) so chip wear-out falls inside 14 executions; see
    // EXPERIMENTS.md for the scaling argument.
    config.chip.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
    config.scheduler.adaptive = adaptive;
    config.scheduler.max_cycles = 1200;
    config.runs = kRunsPerChip;
    config.seed = 1000 + static_cast<std::uint64_t>(chip_idx);  // same chips
    per_chip[chip_idx] = sim::run_repeated(assay_list, config);
    if (checkpoint.active())
      checkpoint.record(slot, encode_chip(per_chip[chip_idx]));
  });
  std::vector<sim::RunRecord> all;
  for (const auto& runs : per_chip)
    all.insert(all.end(), runs.begin(), runs.end());
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = util::parse_jobs_flag(argc, argv);
  std::cout << "=== Fig. 15 — probability of successful completion vs k_max "
               "===\n("
            << kChips << " chips x " << kRunsPerChip
            << " executions per configuration)\n\n";

  const std::vector<std::uint64_t> kmax_grid = {100, 140, 180, 220, 260,
                                                300, 400, 600, 1000};

  // Machine-readable copy for external plotting.
  CsvWriter csv("fig15_pos.csv", {"assay", "router", "kmax", "pos"});

  // Global slot grid: (assay, router) configurations in iteration order,
  // kChips slots each. The digest ties the file to this grid shape and the
  // seed base.
  const std::vector<assay::MoList> suite = assay::evaluation_suite();
  util::SlotCheckpoint checkpoint;
  const std::string checkpoint_path =
      util::flag_value(argc, argv, "--checkpoint", "");
  if (!checkpoint_path.empty()) {
    util::DigestBuilder digest;
    digest.mix(std::string("fig15-v1"));
    digest.mix(kChips).mix(kRunsPerChip).mix(1000);
    for (const assay::MoList& assay_list : suite) digest.mix(assay_list.name);
    checkpoint.open(checkpoint_path, digest.value(),
                    util::has_flag(argc, argv, "--resume"),
                    suite.size() * 2 * kChips);
  }
  std::size_t slot_base = 0;
  for (const assay::MoList& assay_list : suite) {
    std::cout << assay_list.name << ":\n";
    std::vector<std::string> headers = {"router"};
    for (const std::uint64_t k : kmax_grid)
      headers.push_back("k<=" + std::to_string(k));
    Table table(std::move(headers));
    for (const bool adaptive : {false, true}) {
      const auto runs =
          collect_runs(assay_list, adaptive, jobs, checkpoint, slot_base);
      slot_base += kChips;
      std::vector<std::string> row = {adaptive ? "adaptive" : "baseline"};
      for (const std::uint64_t k : kmax_grid) {
        const double pos = sim::probability_of_success(runs, k);
        row.push_back(fmt_prob(pos));
        csv.write_row({assay_list.name, adaptive ? "adaptive" : "baseline",
                       std::to_string(k), fmt_prob(pos)});
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: the adaptive row dominates the baseline row; the\n"
               "largest gaps appear for the longer bioassays (Serial\n"
               "Dilution, NuIP) at intermediate budgets.\n"
               "(Series also written to fig15_pos.csv.)\n";
  return 0;
}
