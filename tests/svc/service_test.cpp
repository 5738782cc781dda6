#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/record_log.hpp"

namespace meda::svc {
namespace {

constexpr int kBits = 2;  // full health = 3

ServiceConfig base_config() {
  ServiceConfig config;
  config.synthesis.rules.enable_morphing = false;
  config.chip_bounds = Rect{0, 0, 19, 19};
  config.health_bits = kBits;
  return config;
}

assay::RoutingJob straight_east(int x0, int cells) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(x0, 4, 3, 3);
  rj.goal = Rect::from_size(x0 + cells, 4, 3, 3);
  rj.hazard = Rect{0, 0, 19, 19};
  return rj;
}

IntMatrix full_health() { return IntMatrix(20, 20, 3); }

/// Enables the global metrics registry for one test and restores the
/// previous state after, so metric assertions don't leak across tests.
class MetricsScope {
 public:
  MetricsScope() {
    obs::ctx().metrics().clear();
    obs::ctx().metrics().enable();
  }
  ~MetricsScope() {
    obs::ctx().metrics().clear();
    obs::ctx().metrics().disable();
  }
  std::uint64_t counter(const std::string& name) const {
    return obs::ctx().metrics().counter(name);
  }
};

TEST(SynthesisService, AdmissionShedsWithTypedReasonsInOrder) {
  MetricsScope metrics;
  ServiceConfig config = base_config();
  config.tenant_inflight_cap = 2;
  config.queue_capacity = 3;
  SynthesisService service(config);
  const int a = service.register_tenant("a");
  const int b = service.register_tenant("b");

  // Born-expired deadline is checked first.
  const SubmitTicket expired =
      service.submit(a, straight_east(0, 8), full_health(), 0, 1);
  EXPECT_FALSE(expired.accepted);
  EXPECT_EQ(expired.reason, ShedReason::kExpired);

  // Tenant cap: a's third in-flight job sheds, b is unaffected.
  EXPECT_TRUE(
      service.submit(a, straight_east(0, 8), full_health(), 100, 1).accepted);
  EXPECT_TRUE(
      service.submit(a, straight_east(1, 8), full_health(), 100, 2).accepted);
  const SubmitTicket capped =
      service.submit(a, straight_east(2, 8), full_health(), 100, 3);
  EXPECT_FALSE(capped.accepted);
  EXPECT_EQ(capped.reason, ShedReason::kTenantCap);

  // Queue capacity: the bounded queue (3) is full after b's first job.
  EXPECT_TRUE(
      service.submit(b, straight_east(2, 8), full_health(), 100, 3).accepted);
  const SubmitTicket overflow =
      service.submit(b, straight_east(3, 8), full_health(), 100, 4);
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.reason, ShedReason::kQueueFull);

  EXPECT_EQ(metrics.counter("svc.shed"), 3u);
  EXPECT_EQ(metrics.counter("svc.shed.expired"), 1u);
  EXPECT_EQ(metrics.counter("svc.shed.tenant_cap"), 1u);
  EXPECT_EQ(metrics.counter("svc.shed.queue_full"), 1u);
  EXPECT_EQ(metrics.counter("svc.accepted"), 3u);
}

TEST(SynthesisService, ExpiredQueuedJobsAreCancelledBeforeDispatch) {
  MetricsScope metrics;
  SynthesisService service(base_config());
  const int t = service.register_tenant("chip");
  const SubmitTicket ticket =
      service.submit(t, straight_east(0, 8), full_health(), 5, 1);
  ASSERT_TRUE(ticket.accepted);
  service.advance(10);
  EXPECT_EQ(service.drain(), 1u);
  const std::optional<JobOutcome> out = service.take(ticket.seq);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->cancelled);
  EXPECT_FALSE(out->result.feasible);
  EXPECT_EQ(out->wait_ticks, 10u);
  // Cancelled before dispatch: no solve was spent on it.
  EXPECT_EQ(metrics.counter("svc.solves"), 0u);
  EXPECT_EQ(metrics.counter("svc.cancelled"), 1u);
}

TEST(SynthesisService, CoalescesIdenticalJobsAcrossTenants) {
  MetricsScope metrics;
  ServiceConfig config = base_config();
  config.tenant_budget_sweeps = 10000;
  config.synthesis.deadline_sweeps = 1000;
  SynthesisService service(config);
  const int a = service.register_tenant("a");
  const int b = service.register_tenant("b");
  const assay::RoutingJob rj = straight_east(0, 8);
  const SubmitTicket ta = service.submit(a, rj, full_health(), 100, 42);
  const SubmitTicket tb = service.submit(b, rj, full_health(), 100, 42);
  ASSERT_TRUE(ta.accepted);
  ASSERT_TRUE(tb.accepted);
  EXPECT_EQ(service.drain(), 2u);

  const std::optional<JobOutcome> oa = service.take(ta.seq);
  const std::optional<JobOutcome> ob = service.take(tb.seq);
  ASSERT_TRUE(oa.has_value());
  ASSERT_TRUE(ob.has_value());
  EXPECT_FALSE(oa->coalesced);  // earliest submitter is the primary
  EXPECT_TRUE(ob->coalesced);
  EXPECT_TRUE(oa->result.feasible);
  EXPECT_EQ(oa->result.expected_cycles, ob->result.expected_cycles);
  EXPECT_EQ(oa->result.stats.states, ob->result.stats.states);

  // One solve served both waiters, and only the primary paid budget.
  EXPECT_EQ(metrics.counter("svc.solves"), 1u);
  EXPECT_EQ(metrics.counter("svc.coalesced"), 1u);
  EXPECT_GT(service.tenant_ledger(a).spent(), 0u);
  EXPECT_EQ(service.tenant_ledger(b).spent(), 0u);
}

TEST(SynthesisService, DispatchIsEarliestDeadlineFirst) {
  ServiceConfig config = base_config();
  config.max_wave = 1;  // one group per wave so dispatch order is visible
  SynthesisService service(config);
  const int t = service.register_tenant("chip");
  const SubmitTicket relaxed =
      service.submit(t, straight_east(0, 8), full_health(), 1000, 1);
  const SubmitTicket urgent =
      service.submit(t, straight_east(1, 8), full_health(), 10, 2);
  ASSERT_TRUE(relaxed.accepted);
  ASSERT_TRUE(urgent.accepted);
  EXPECT_EQ(service.drain(), 2u);
  const std::optional<JobOutcome> ou = service.take(urgent.seq);
  const std::optional<JobOutcome> orx = service.take(relaxed.seq);
  ASSERT_TRUE(ou.has_value());
  ASSERT_TRUE(orx.has_value());
  // The urgent job (submitted second) was dispatched in the first wave;
  // the relaxed one waited for the urgent wave's logical cost.
  EXPECT_FALSE(ou->cancelled);
  EXPECT_EQ(ou->wait_ticks, 0u);
  EXPECT_GT(orx->wait_ticks, 0u);
}

TEST(SynthesisService, LibraryHitsServeForFreeAndSkipTheSolver) {
  MetricsScope metrics;
  SynthesisService service(base_config());
  const int t = service.register_tenant("chip");
  const SubmitTicket first =
      service.submit(t, straight_east(0, 8), full_health(), 100, 7);
  service.drain();
  ASSERT_TRUE(service.take(first.seq)->result.feasible);

  const std::uint64_t clock_before = service.now();
  const SubmitTicket second =
      service.submit(t, straight_east(0, 8), full_health(), 100, 7);
  service.drain();
  const std::optional<JobOutcome> out = service.take(second.seq);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->library_hit);
  EXPECT_TRUE(out->result.feasible);
  EXPECT_EQ(service.now(), clock_before);  // hits cost zero logical ticks
  EXPECT_EQ(metrics.counter("svc.solves"), 1u);
  EXPECT_EQ(metrics.counter("svc.library_hits"), 1u);
}

TEST(SynthesisService, BudgetExhaustionIsolatesTenants) {
  ServiceConfig config = base_config();
  config.tenant_budget_sweeps = 1;  // one sweep per window: exhausts fast
  SynthesisService service(config);
  const int storm = service.register_tenant("storm");
  const int calm = service.register_tenant("calm");

  const SubmitTicket ticket =
      service.submit(storm, straight_east(0, 8), full_health(), 100, 1);
  ASSERT_TRUE(ticket.accepted);
  service.drain();
  const std::optional<JobOutcome> out = service.take(ticket.seq);
  ASSERT_TRUE(out.has_value());
  // A one-sweep budget cannot converge: the solve comes back expired...
  EXPECT_TRUE(out->result.deadline_expired);
  EXPECT_TRUE(service.tenant_ledger(storm).exhausted());

  // ...and the storm tenant is refused admission while its sibling is not.
  const SubmitTicket refused =
      service.submit(storm, straight_east(1, 8), full_health(), 100, 2);
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.reason, ShedReason::kBudgetExhausted);
  EXPECT_TRUE(
      service.submit(calm, straight_east(1, 8), full_health(), 100, 2)
          .accepted);
  EXPECT_FALSE(service.tenant_ledger(calm).exhausted());

  // A new budget window re-admits the storm tenant.
  service.refill_budgets();
  EXPECT_TRUE(
      service.submit(storm, straight_east(2, 8), full_health(), 100, 3)
          .accepted);
}

TEST(SynthesisService, TakeIsOneShot) {
  SynthesisService service(base_config());
  const int t = service.register_tenant("chip");
  const SubmitTicket ticket =
      service.submit(t, straight_east(0, 8), full_health(), 100, 1);
  EXPECT_FALSE(service.take(ticket.seq).has_value());  // not drained yet
  service.drain();
  EXPECT_TRUE(service.take(ticket.seq).has_value());
  EXPECT_FALSE(service.take(ticket.seq).has_value());
  EXPECT_FALSE(service.take(12345).has_value());
}

/// Drives one fixed submission scenario and snapshots everything observable.
struct Snapshot {
  std::vector<JobOutcome> outcomes;
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> spent;
};

Snapshot run_scenario(int jobs, util::RecordLog* journal = nullptr) {
  ServiceConfig config = base_config();
  config.jobs = jobs;
  config.max_wave = 4;  // fixed wave width: byte-identity at any jobs count
  config.tenant_budget_sweeps = 5000;
  config.synthesis.deadline_sweeps = 1000;
  config.journal = journal;
  SynthesisService service(config);
  const int a = service.register_tenant("a");
  const int b = service.register_tenant("b");
  std::vector<SubmitTicket> tickets;
  IntMatrix degraded = full_health();
  for (int y = 0; y < 20; ++y) degraded(9, y) = 1;
  tickets.push_back(service.submit(a, straight_east(0, 8), full_health(),
                                   100, 11));
  tickets.push_back(service.submit(b, straight_east(0, 8), full_health(),
                                   100, 11));  // coalesces with the first
  tickets.push_back(service.submit(a, straight_east(2, 9), degraded, 200, 12));
  tickets.push_back(service.submit(b, straight_east(1, 6), full_health(),
                                   50, 13));
  tickets.push_back(service.submit(a, straight_east(4, 7), full_health(),
                                   300, 14));
  service.drain();
  tickets.push_back(service.submit(b, straight_east(0, 8), full_health(),
                                   100, 11));  // library hit second round
  service.drain();
  Snapshot snap;
  snap.clock = service.now();
  snap.spent = {service.tenant_ledger(a).spent(),
                service.tenant_ledger(b).spent()};
  for (const SubmitTicket& t : tickets) {
    MEDA_REQUIRE(t.accepted, "scenario submissions must be accepted");
    std::optional<JobOutcome> out = service.take(t.seq);
    MEDA_REQUIRE(out.has_value(), "scenario job must complete");
    snap.outcomes.push_back(std::move(*out));
  }
  return snap;
}

void expect_identical(const Snapshot& x, const Snapshot& y,
                      bool expect_replayed) {
  EXPECT_EQ(x.clock, y.clock);
  EXPECT_EQ(x.spent, y.spent);
  ASSERT_EQ(x.outcomes.size(), y.outcomes.size());
  for (std::size_t i = 0; i < x.outcomes.size(); ++i) {
    const JobOutcome& a = x.outcomes[i];
    const JobOutcome& b = y.outcomes[i];
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.cancelled, b.cancelled);
    EXPECT_EQ(a.coalesced, b.coalesced);
    EXPECT_EQ(a.library_hit, b.library_hit);
    EXPECT_EQ(a.wait_ticks, b.wait_ticks);
    EXPECT_EQ(a.result.feasible, b.result.feasible);
    EXPECT_EQ(a.result.deadline_expired, b.result.deadline_expired);
    // Bit-exact, not approximate: crash resume and thread-count invariance
    // both promise byte-identical CSVs.
    EXPECT_EQ(a.result.expected_cycles, b.result.expected_cycles);
    EXPECT_EQ(a.result.reach_probability, b.result.reach_probability);
    EXPECT_EQ(a.result.stats.states, b.result.stats.states);
    EXPECT_EQ(a.result.stats.transitions, b.result.stats.transitions);
    EXPECT_EQ(a.result.strategy.size(), b.result.strategy.size());
    if (expect_replayed && !a.library_hit && !a.coalesced) {
      EXPECT_TRUE(b.replayed) << "outcome " << i;
    }
  }
}

TEST(SynthesisService, OutcomesAreIdenticalAtAnyThreadCount) {
  expect_identical(run_scenario(1), run_scenario(4),
                   /*expect_replayed=*/false);
}

TEST(SynthesisService, JournalReplayReproducesARunByteIdentically) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "svc_journal_test.log")
          .string();
  std::remove(path.c_str());

  util::RecordLog straight;
  straight.open(path, 0xfeedu, /*resume=*/false);
  ASSERT_TRUE(straight.enabled());
  const Snapshot first = run_scenario(2, &straight);

  // A fresh service generation resumes from the journal: every solve is
  // served by replay, and everything observable matches bit for bit —
  // including the tenants' ledger charges.
  util::RecordLog resumed;
  resumed.open(path, 0xfeedu, /*resume=*/true);
  EXPECT_GT(resumed.restored_count(), 0u);
  const Snapshot second = run_scenario(2, &resumed);
  expect_identical(first, second, /*expect_replayed=*/true);
  if (!HasFailure()) std::remove(path.c_str());
}

TEST(SynthesisService, ReplayIsKeyedOnTheArmedBudget) {
  // The same routing key solved under a different armed sweep budget must
  // not be served from the journal: the key includes the armed budget.
  const std::string path =
      (std::filesystem::temp_directory_path() / "svc_journal_key_test.log")
          .string();
  std::remove(path.c_str());
  util::RecordLog journal;
  journal.open(path, 0x1u, /*resume=*/false);

  ServiceConfig config = base_config();
  config.synthesis.deadline_sweeps = 1000;
  config.journal = &journal;
  {
    SynthesisService service(config);
    const int t = service.register_tenant("chip");
    service.submit(t, straight_east(0, 8), full_health(), 100, 5);
    service.drain();
  }
  util::RecordLog resumed;
  resumed.open(path, 0x1u, /*resume=*/true);
  config.journal = &resumed;
  config.synthesis.deadline_sweeps = 7;  // different per-solve arming
  SynthesisService service(config);
  const int t = service.register_tenant("chip");
  const SubmitTicket ticket =
      service.submit(t, straight_east(0, 8), full_health(), 100, 5);
  service.drain();
  const std::optional<JobOutcome> out = service.take(ticket.seq);
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->replayed);
  std::remove(path.c_str());
}

TEST(SynthesisService, GarbledJournalDoubleIsSolvedAfresh) {
  // A journal record whose expected_cycles token is not a number must be
  // skipped and re-solved, never replayed with a made-up value.
  const std::string path =
      (std::filesystem::temp_directory_path() / "svc_journal_garbled.log")
          .string();
  std::remove(path.c_str());
  ServiceConfig config = base_config();
  config.synthesis.deadline_sweeps = 1000;
  const auto solve_once = [&config](util::RecordLog* journal) {
    config.journal = journal;
    SynthesisService service(config);
    const int t = service.register_tenant("chip");
    const SubmitTicket ticket =
        service.submit(t, straight_east(0, 8), full_health(), 100, 5);
    service.drain();
    std::optional<JobOutcome> out = service.take(ticket.seq);
    MEDA_REQUIRE(out.has_value(), "the job must complete");
    return std::move(*out);
  };
  {
    util::RecordLog journal;
    journal.open(path, 0x1u, /*resume=*/false);
    solve_once(&journal);
  }

  // Token 19 of a solve record is expected_cycles: "solve", three rects,
  // digest and armed budget form the key; class, charge, feasible and
  // expired come next.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);  // header + one solve
  std::istringstream record(lines[1]);
  std::vector<std::string> tokens;
  for (std::string token; record >> token;) tokens.push_back(token);
  ASSERT_GT(tokens.size(), 19u);
  ASSERT_EQ(tokens[0], "solve");
  tokens[19] = "zzz";
  {
    std::ofstream out(path, std::ios::trunc);
    out << lines[0] << '\n';
    for (std::size_t i = 0; i < tokens.size(); ++i)
      out << (i > 0 ? " " : "") << tokens[i];
    out << '\n';
  }

  util::RecordLog resumed;
  resumed.open(path, 0x1u, /*resume=*/true);
  ASSERT_EQ(resumed.restored_count(), 1u);
  const JobOutcome out = solve_once(&resumed);
  const JobOutcome fresh = solve_once(nullptr);
  EXPECT_FALSE(out.replayed);
  EXPECT_EQ(out.result.feasible, fresh.result.feasible);
  EXPECT_EQ(out.result.expected_cycles, fresh.result.expected_cycles);
  EXPECT_EQ(out.result.reach_probability, fresh.result.reach_probability);
  EXPECT_EQ(out.result.stats.states, fresh.result.stats.states);
  EXPECT_EQ(out.result.strategy.size(), fresh.result.strategy.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace meda::svc
