#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "assay/helper.hpp"
#include "core/library.hpp"
#include "core/synthesizer.hpp"
#include "util/deadline.hpp"
#include "util/record_log.hpp"
#include "util/matrix.hpp"
#include "util/thread_pool.hpp"

/// @file service.hpp
/// The fault-tolerant multi-tenant synthesis service: one persistent
/// in-process provider that owns the shared StrategyLibrary and a
/// util::ThreadPool, fed by an async job queue that N simulated chips
/// (tenants) submit routing jobs to. This is the ROADMAP's
/// "routing-as-a-service" layer, built so that robustness — not raw
/// throughput — is the headline:
///
///  - **Admission control + overload shedding.** The queue is bounded and
///    each tenant has an in-flight cap; a submission that would exceed
///    either is rejected deterministically with a typed ShedReason instead
///    of blocking the assay. A shed caller degrades locally, e.g. to the
///    bounded-A* fallback router (core/fallback_router.hpp).
///  - **Per-tenant deadline budgets.** Every tenant owns a
///    util::DeadlineLedger of solver-sweep checks per refill window; each
///    of its solves is armed from the ledger and settled with the checks it
///    actually consumed. One chip's pathological re-synthesis storm
///    exhausts only its own window — its siblings' budgets are untouched.
///    Dispatch is earliest-deadline-first, and jobs whose deadline passed
///    while queued are cancelled *before* dispatch (counted, never after
///    wasting a solve).
///  - **Request coalescing.** Jobs with identical (position rects, masked-
///    health digest) keys — across tenants — batch into one solve whose
///    result fans out to every waiter; only the earliest submitter (the
///    primary) pays ledger budget.
///  - **Crash recovery.** Completed solves are appended to a
///    util::RecordLog (atomic header, flushed line per solve, torn-tail
///    drop); after a kill -9, a resumed service replays journaled solves
///    through the normal dispatch path, so the run's observable outputs are
///    byte-identical to a run that never crashed.
///
/// Determinism: the service runs on a logical tick clock, never wall time.
/// Solves execute in parallel into preallocated slots; every decision that
/// orders or charges anything (admission, cancellation, EDF sort, ledger
/// settle, library store, journal append, metric emission) happens in
/// serial pre/post passes in a fixed order — the PR 3 serial-reduction
/// discipline — so all outputs are byte-identical for a fixed submission
/// sequence at any `jobs` count.

namespace meda::svc {

/// Why a submission was refused (or a queued job cancelled).
enum class ShedReason : unsigned char {
  kNone,             ///< accepted
  kQueueFull,        ///< bounded queue at capacity
  kTenantCap,        ///< tenant's in-flight cap reached
  kBudgetExhausted,  ///< tenant's deadline-budget window is spent
  kExpired,          ///< deadline elapsed (at submission or while queued)
};

/// Stable label: "none" / "queue_full" / "tenant_cap" / "budget_exhausted"
/// / "expired".
const char* to_string(ShedReason reason);

/// Service configuration. All limits are deterministic logical quantities.
struct ServiceConfig {
  /// Synthesis settings shared by every tenant's solves. Use
  /// `synthesis.deadline_sweeps` (not wall-clock seconds) for reproducible
  /// runs: it doubles as the per-solve cap drawn from tenant ledgers.
  core::SynthesisConfig synthesis{};
  Rect chip_bounds{};  ///< chip the shared Synthesizer is built for
  int health_bits = 3;
  /// Bounded queue: submissions beyond this many queued jobs shed with
  /// kQueueFull. Must be >= 1.
  std::size_t queue_capacity = 64;
  /// Per-tenant in-flight (queued) cap; beyond it submissions shed with
  /// kTenantCap. 0 = no per-tenant cap.
  std::size_t tenant_inflight_cap = 8;
  /// Per-tenant deadline budget: solver-sweep checks per refill window
  /// (see util::DeadlineLedger). 0 = unlimited.
  std::uint64_t tenant_budget_sweeps = 0;
  /// Worker threads for the solve waves (the service's own ThreadPool).
  int jobs = 1;
  /// Shared library capacity (0 = unlimited).
  std::size_t library_capacity = 0;
  /// Logical ticks one solve costs: 1 + states / cost_state_divisor.
  /// Library hits cost 0 ticks. Drives queue-wait accounting and
  /// before-dispatch cancellation, deterministically.
  std::uint64_t cost_state_divisor = 512;
  /// Max coalesced groups dispatched per wave (0 = `jobs`).
  std::size_t max_wave = 0;
  /// Optional crash journal, externally owned (so one log can span several
  /// service generations in a bench). nullptr = no journal.
  util::RecordLog* journal = nullptr;
};

/// Admission verdict for one submission.
struct SubmitTicket {
  bool accepted = false;
  ShedReason reason = ShedReason::kNone;
  std::uint64_t seq = 0;  ///< job sequence number; valid only when accepted
};

/// Terminal outcome of one accepted job.
struct JobOutcome {
  std::uint64_t seq = 0;
  int tenant = -1;
  /// Deadline passed while queued: cancelled before dispatch, no solve was
  /// spent on it. `result` is the default (infeasible).
  bool cancelled = false;
  /// Served by a wave-mate's solve (same key, different submitter).
  bool coalesced = false;
  /// Served by the crash journal instead of a fresh solve.
  bool replayed = false;
  /// Served straight from the shared library.
  bool library_hit = false;
  /// Logical ticks between submission and the dispatching wave.
  std::uint64_t wait_ticks = 0;
  core::SynthesisResult result;
};

/// The persistent multi-tenant synthesis service. Not thread-safe itself:
/// one logical owner submits and drains; parallelism lives inside drain().
class SynthesisService {
 public:
  explicit SynthesisService(ServiceConfig config);

  /// Registers a tenant (chip) and returns its id. Names feed per-tenant
  /// metrics (`svc.wait.<name>`) and must be unique non-empty.
  int register_tenant(const std::string& name);
  int tenant_count() const { return static_cast<int>(tenants_.size()); }

  /// Submits a routing job for @p tenant. @p deadline_ticks is the job's
  /// logical-time budget from now (0 = already expired → kExpired).
  /// Admission checks, in deterministic order: expired deadline → tenant
  /// budget window exhausted → tenant in-flight cap → queue capacity.
  /// @p digest is the (salted) library-key digest over the job's masked
  /// health view; @p cls its stats family.
  SubmitTicket submit(int tenant, const assay::RoutingJob& rj,
                      const IntMatrix& health, std::uint64_t deadline_ticks,
                      std::uint64_t digest,
                      core::DigestClass cls = core::DigestClass::kPlain);

  /// Runs the queue to empty: waves of EDF-ordered coalesced groups, solved
  /// in parallel, settled serially. Returns the number of jobs that reached
  /// a terminal outcome (including cancellations); fetch each with take().
  std::size_t drain();

  /// Pops the terminal outcome for @p seq, if that job has completed.
  std::optional<JobOutcome> take(std::uint64_t seq);

  /// Logical clock (ticks). Advanced by solve costs during drain() and by
  /// advance() — e.g. a client backing off.
  std::uint64_t now() const { return clock_; }
  void advance(std::uint64_t ticks) { clock_ += ticks; }

  /// Starts a fresh budget window for every tenant.
  void refill_budgets();

  const util::DeadlineLedger& tenant_ledger(int tenant) const;
  std::size_t queue_depth() const { return queue_.size(); }

  /// The shared strategy library (concurrent-safe; see core/library.hpp).
  core::StrategyLibrary& library() { return library_; }
  const core::StrategyLibrary& library() const { return library_; }

  const ServiceConfig& config() const { return config_; }

 private:
  struct PendingJob {
    std::uint64_t seq = 0;
    int tenant = -1;
    assay::RoutingJob rj;
    IntMatrix health;
    std::uint64_t digest = 0;
    core::DigestClass cls = core::DigestClass::kPlain;
    std::uint64_t submit_tick = 0;
    std::uint64_t deadline_tick = 0;  ///< absolute; ~0 when unbounded
  };

  /// One coalesced dispatch group: queue members sharing a solve key.
  struct Group {
    std::vector<std::size_t> members;  ///< indexes into the wave snapshot
    std::uint64_t min_deadline = 0;
    std::uint64_t min_seq = 0;
  };

  void cancel_expired();
  void run_wave();
  std::string journal_key(const PendingJob& job,
                          std::uint64_t armed_sweeps) const;

  ServiceConfig config_;
  core::Synthesizer synthesizer_;
  core::StrategyLibrary library_;
  util::ThreadPool pool_;

  struct Tenant {
    std::string name;
    util::DeadlineLedger ledger;
    std::size_t queued = 0;
  };
  std::vector<Tenant> tenants_;

  std::deque<PendingJob> queue_;
  std::map<std::uint64_t, JobOutcome> completed_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t clock_ = 0;

  /// Journal replay index: key → journal record body (parsed lazily).
  std::map<std::string, std::string> replay_;
};

}  // namespace meda::svc
