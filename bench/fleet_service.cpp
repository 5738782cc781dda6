// Fleet service bench: N simulated chips (tenants) share one in-process
// SynthesisService and drive it through open- and closed-loop load, tracing
// the robustness story end to end:
//
//   - admission control under overload: at the top arrival rates the
//     bounded queue and per-tenant in-flight caps shed submissions, and the
//     shed tenants degrade to the local bounded-A* fallback router with
//     exponential backoff (the assay slows down; nothing blocks or fails);
//   - per-tenant deadline budgets: each tenant's solver-sweep ledger is
//     refilled on a fixed window, so one tenant's storm cannot starve its
//     siblings;
//   - cross-tenant request coalescing: tenants are *paired* on the same
//     substrate and job-stream seeds, so identical jobs arrive together and
//     one solve fans out to both waiters;
//   - crash recovery: with --journal every completed solve is appended to
//     a util::RecordLog; a run killed mid-campaign (SIGKILL) and relaunched
//     with --resume replays the journaled solves and produces a CSV that is
//     byte-identical to a run that never crashed.
//
// Everything is driven by the service's logical tick clock — no wall time
// anywhere in the outputs — so fleet_service.csv is byte-identical for a
// fixed seed at any --jobs count (the wave width is pinned independently of
// the worker count).
//
// Flags:
//   --jobs N        worker threads inside the service (0 = all hardware
//                   threads); outputs are byte-identical at any N.
//   --tenants N     simulated chips (default 8, rounded up to even).
//   --rounds N      submission rounds per load point (default 40).
//   --smoke         small grid for CI (8 tenants, 12 rounds, 2 open loads).
//   --journal PATH  append completed solves to a crash journal at PATH.
//   --resume        replay a compatible journal at PATH before solving.
//   --metrics       also write fleet_service_metrics.json (svc.* counters).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/fallback_router.hpp"
#include "obs/obs.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/record_log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace meda;

namespace {

constexpr int kChipSize = 20;
constexpr int kHealthBits = 2;
constexpr std::uint64_t kDeadlineTicks = 16;
constexpr std::uint64_t kRoundTicks = 4;     // idle ticks between rounds
constexpr int kRefillEveryRounds = 8;        // tenant budget window
constexpr std::size_t kMaxBackoffRounds = 8;

const Rect kChip{0, 0, kChipSize - 1, kChipSize - 1};

/// Knuth's Poisson sampler over the deterministic Rng stream.
int poisson(Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  double p = 1.0;
  int k = 0;
  do {
    ++k;
    p *= rng.uniform(0.0, 1.0);
  } while (p > limit);
  return k - 1;
}

/// One tenant pair's substrate: full health with a seeded sprinkle of dead
/// and weak cells. Both tenants of a pair see the same matrix (and digest),
/// which is what makes their identical jobs coalesce service-side.
IntMatrix pair_health(std::uint64_t pair_seed) {
  Rng rng(pair_seed);
  IntMatrix health(kChipSize, kChipSize, 3);
  const int dead = rng.uniform_int(2, 5);
  for (int i = 0; i < dead; ++i)
    health(rng.uniform_int(0, kChipSize - 1),
           rng.uniform_int(0, kChipSize - 1)) = 0;
  const int weak = rng.uniform_int(4, 10);
  for (int i = 0; i < weak; ++i)
    health(rng.uniform_int(0, kChipSize - 1),
           rng.uniform_int(0, kChipSize - 1)) = 1;
  return health;
}

std::uint64_t health_digest(const IntMatrix& health, std::uint64_t pair) {
  util::DigestBuilder d;
  d.mix(pair);
  for (const int v : health.data()) d.mix(v);
  return d.value();
}

/// Draws one routing job from the pair stream: a 3×3 droplet crossing a
/// decent chunk of the chip (goals too close to the start synthesize
/// trivially and would under-exercise the budget ledger).
assay::RoutingJob draw_job(Rng& rng) {
  assay::RoutingJob rj;
  for (;;) {
    const int sx = rng.uniform_int(0, kChipSize - 4);
    const int sy = rng.uniform_int(0, kChipSize - 4);
    const int gx = rng.uniform_int(0, kChipSize - 4);
    const int gy = rng.uniform_int(0, kChipSize - 4);
    if (std::abs(sx - gx) + std::abs(sy - gy) < 8) continue;
    rj.start = Rect::from_size(sx, sy, 3, 3);
    rj.goal = Rect::from_size(gx, gy, 3, 3);
    rj.hazard = kChip;
    return rj;
  }
}

struct LoadPoint {
  std::string mode;    // "open" | "closed"
  double lambda = 0.0; // arrivals per tenant per round (open mode)
};

struct CellResult {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t library_hits = 0;
  std::uint64_t solves = 0;  // live solves + journal replays (see below)
  std::uint64_t fallback_routes = 0;
  std::vector<std::uint64_t> waits;  // served jobs' queue waits, in ticks
  std::uint64_t final_clock = 0;

  std::uint64_t wait_percentile(double p) const {
    if (waits.empty()) return 0;
    std::vector<std::uint64_t> sorted = waits;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(rank + 0.5)];
  }
};

struct BenchConfig {
  int jobs = 1;
  int tenants = 8;
  int rounds = 40;
  std::uint64_t seed0 = 7100;
  util::RecordLog* journal = nullptr;
};

/// Runs one load point on a fresh service generation (the journal, if any,
/// spans every generation — that is the crash-recovery contract).
CellResult run_load_point(const BenchConfig& bench, const LoadPoint& load) {
  svc::ServiceConfig config;
  config.synthesis.rules.enable_morphing = false;
  config.synthesis.deadline_sweeps = 800;
  config.chip_bounds = kChip;
  config.health_bits = kHealthBits;
  config.queue_capacity = 12;       // small on purpose: saturation sheds
  config.tenant_inflight_cap = 2;
  config.tenant_budget_sweeps = 4000;
  config.jobs = bench.jobs;
  config.max_wave = 4;  // pinned: wave structure must not follow --jobs
  config.cost_state_divisor = 256;
  config.journal = bench.journal;
  svc::SynthesisService service(config);

  struct TenantState {
    int id = -1;
    Rng arrivals{0};
    Rng jobs{0};
    IntMatrix health;
    std::uint64_t digest = 0;
    std::size_t backoff_rounds = 0;   // rounds left to sit out
    std::size_t consecutive_sheds = 0;
  };
  std::vector<TenantState> tenants(static_cast<std::size_t>(bench.tenants));
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    TenantState& ts = tenants[t];
    ts.id = service.register_tenant("t" + std::to_string(t));
    // Paired streams: tenants 2k and 2k+1 share substrate and job/arrival
    // sequences, so their submissions coalesce whenever both are admitted.
    const std::uint64_t pair = bench.seed0 + t / 2;
    ts.arrivals = Rng(pair * 2654435761u + 1);
    ts.jobs = Rng(pair * 2654435761u + 2);
    ts.health = pair_health(pair);
    ts.digest = health_digest(ts.health, pair);
  }

  CellResult cell;
  core::FallbackConfig fallback_config;
  fallback_config.rules = config.synthesis.rules;
  const auto degrade_locally = [&](TenantState& ts,
                                   const assay::RoutingJob& rj) {
    // Overload degradation: the tenant routes this job itself with the
    // bounded-A* fallback and backs off the shared service exponentially.
    ++cell.fallback_routes;
    (void)core::fallback_route(rj, ts.health, kChip, fallback_config);
    ts.consecutive_sheds = std::min(ts.consecutive_sheds + 1,
                                    static_cast<std::size_t>(16));
    ts.backoff_rounds = std::min(std::size_t{1} << (ts.consecutive_sheds - 1),
                                 kMaxBackoffRounds);
  };

  struct OpenJob {
    svc::SubmitTicket ticket;
    assay::RoutingJob rj;
  };
  std::vector<OpenJob> open_tickets;
  for (int round = 0; round < bench.rounds; ++round) {
    if (round > 0 && round % kRefillEveryRounds == 0)
      service.refill_budgets();
    open_tickets.clear();
    for (TenantState& ts : tenants) {
      // Draw from the pair streams unconditionally (arrival count first,
      // then each job) so paired tenants stay in lockstep even when one of
      // them is backing off or shed.
      const int arriving = load.mode == "closed"
                               ? static_cast<int>(config.tenant_inflight_cap)
                               : poisson(ts.arrivals, load.lambda);
      for (int j = 0; j < arriving; ++j) {
        const assay::RoutingJob rj = draw_job(ts.jobs);
        ++cell.submitted;
        if (ts.backoff_rounds > 0) {
          // Still in backoff: don't even knock; route locally.
          degrade_locally(ts, rj);
          continue;
        }
        const svc::SubmitTicket ticket = service.submit(
            ts.id, rj, ts.health, kDeadlineTicks, ts.digest);
        if (!ticket.accepted) {
          ++cell.shed;
          degrade_locally(ts, rj);
          continue;
        }
        ++cell.accepted;
        ts.consecutive_sheds = 0;
        open_tickets.push_back({ticket, rj});
      }
      if (ts.backoff_rounds > 0) --ts.backoff_rounds;
    }
    service.drain();
    for (const OpenJob& open : open_tickets) {
      std::optional<svc::JobOutcome> out = service.take(open.ticket.seq);
      if (!out.has_value()) continue;  // unreachable: drain completes all
      if (out->cancelled) {
        // Its deadline lapsed in the queue: the service never spent a
        // solve on it; the tenant re-routes the same job locally, exactly
        // like a shed.
        ++cell.cancelled;
        degrade_locally(tenants[static_cast<std::size_t>(out->tenant)],
                        open.rj);
        continue;
      }
      cell.waits.push_back(out->wait_ticks);
      // Journal-replayed solves count as solves: whether a result came from
      // a live solve or from the crash journal is provenance, and the CSV
      // must be byte-identical across a crash/resume boundary.
      if (out->coalesced)
        ++cell.coalesced;
      else if (out->library_hit)
        ++cell.library_hits;
      else
        ++cell.solves;
    }
    service.advance(kRoundTicks);
  }
  cell.final_clock = service.now();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = util::has_flag(argc, argv, "--smoke");
  BenchConfig bench;
  bench.jobs = util::parse_jobs_flag(argc, argv);
  bench.tenants = std::max(
      2, std::stoi(util::flag_value(argc, argv, "--tenants", "8")));
  bench.tenants += bench.tenants % 2;  // pairs
  bench.rounds = std::max(
      1, std::stoi(util::flag_value(argc, argv, "--rounds",
                                    smoke ? "12" : "40")));

  std::vector<LoadPoint> loads;
  loads.push_back({"open", 0.5});
  if (!smoke) loads.push_back({"open", 1.5});
  loads.push_back({"open", 3.0});
  loads.push_back({"closed", 0.0});

  if (util::has_flag(argc, argv, "--metrics")) obs::ctx().metrics().enable();

  // One journal spans every service generation in the campaign, keyed on
  // the campaign shape (never on --jobs: a crashed --jobs 4 run may resume
  // under --jobs 1 and must still replay byte-identically).
  util::RecordLog journal;
  const std::string journal_path =
      util::flag_value(argc, argv, "--journal", "");
  if (!journal_path.empty()) {
    util::DigestBuilder digest;
    digest.mix(std::string("fleet_service v1"));
    digest.mix(bench.tenants);
    digest.mix(bench.rounds);
    digest.mix(static_cast<std::uint64_t>(bench.seed0));
    for (const LoadPoint& load : loads) {
      digest.mix(load.mode);
      digest.mix(load.lambda);
    }
    journal.open(journal_path, digest.value(),
                 util::has_flag(argc, argv, "--resume"));
    bench.journal = &journal;
  }

  std::cout << "=== Fleet service — " << bench.tenants
            << " tenants sharing one synthesis service ===\n(queue 12, "
               "in-flight cap 2/tenant, budget 4000 sweeps per "
            << kRefillEveryRounds << "-round window, " << bench.rounds
            << " rounds per load point"
            << (journal.enabled() ? ", crash journal on" : "") << ")\n\n";

  Table table({"mode", "load", "submitted", "shed%", "cancelled",
               "coalesced", "lib hits", "solves", "fallbacks", "p50 wait",
               "p99 wait"});
  CsvWriter csv("fleet_service.csv",
                {"mode", "load", "submitted", "accepted", "shed", "shed_rate",
                 "cancelled", "coalesced", "library_hits", "solves",
                 "fallback_routes", "p50_wait_ticks", "p90_wait_ticks",
                 "p99_wait_ticks", "final_clock_ticks"});
  for (const LoadPoint& load : loads) {
    const CellResult cell = run_load_point(bench, load);
    const double shed_rate =
        cell.submitted == 0
            ? 0.0
            : static_cast<double>(cell.shed) /
                  static_cast<double>(cell.submitted);
    const std::string load_label =
        load.mode == "closed" ? "cap" : fmt_double(load.lambda, 1);
    table.add_row({load.mode, load_label, std::to_string(cell.submitted),
                   fmt_double(100.0 * shed_rate, 1),
                   std::to_string(cell.cancelled),
                   std::to_string(cell.coalesced),
                   std::to_string(cell.library_hits),
                   std::to_string(cell.solves),
                   std::to_string(cell.fallback_routes),
                   std::to_string(cell.wait_percentile(0.5)),
                   std::to_string(cell.wait_percentile(0.99))});
    csv.write_row({load.mode, load_label, std::to_string(cell.submitted),
                 std::to_string(cell.accepted), std::to_string(cell.shed),
                 fmt_double(shed_rate, 4), std::to_string(cell.cancelled),
                 std::to_string(cell.coalesced),
                 std::to_string(cell.library_hits),
                 std::to_string(cell.solves),
                 std::to_string(cell.fallback_routes),
                 std::to_string(cell.wait_percentile(0.5)),
                 std::to_string(cell.wait_percentile(0.9)),
                 std::to_string(cell.wait_percentile(0.99)),
                 std::to_string(cell.final_clock)});
  }
  table.print(std::cout);
  std::cout << "\n(Series also written to fleet_service.csv.)\n";
  if (util::has_flag(argc, argv, "--metrics")) {
    obs::ctx().metrics().write_snapshot("fleet_service_metrics.json");
    std::cout << "(svc.* counters written to fleet_service_metrics.json.)\n";
  }
  return 0;
}
