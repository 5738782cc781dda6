#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// @file recovery.hpp
/// The scheduler's structured recovery ladder (robustness extension of
/// Algorithm 3). When execution misbehaves — a droplet stops making
/// progress, synthesis comes back infeasible, sensing contradicts reality —
/// the scheduler escalates through a fixed ladder instead of burning its
/// cycle budget or failing the whole bioassay outright:
///
///   1. droplet-stuck watchdog        → forced re-sense + strategy drop
///   2. re-synthesis, bounded retries → exponential backoff between attempts
///   3. hazard quarantine             → persistently misbehaving cells are
///                                      clamped dead in the health view and
///                                      routed around
///   4. replica failover              → on N-modular-redundant MOs a replica
///                                      that runs out of retries is abandoned
///                                      while its siblings keep racing
///   5. graceful per-job abort        → the MO (and its dependents) abort
///                                      with a structured reason; unrelated
///                                      MOs keep running
///
/// Every rung fired is recorded as a RecoveryEvent in the execution stats
/// and surfaced in the HTML execution report.

namespace meda::core {

/// Which rung of the ladder fired.
enum class RecoveryAction : unsigned char {
  kWatchdogResense,    ///< stuck droplet: forced re-sense, strategy dropped
  kSynthesisRetry,     ///< infeasible synthesis: retry scheduled
  kBackoff,            ///< exponential backoff wait entered
  kQuarantine,         ///< cells quarantined out of the health view
  kContentionDetour,   ///< droplet-blocked stall: re-route around the
                       ///< blocker instead of quarantining healthy cells
  kJobAbort,           ///< one MO aborted gracefully
  kSynthesisDeadline,  ///< synthesis blew its deadline: fallback route
                       ///< installed, full re-synthesis backed off
  kQuarantineParole,   ///< budget pressure: oldest quarantined cells that
                       ///< re-sensed alive were released back to the router
  kReplicaFailover,    ///< a redundant replica exhausted its per-replica
                       ///< retry budget and was abandoned; the MO keeps
                       ///< running on the surviving replicas (only
                       ///< all-replica failure escalates to kJobAbort)
};

std::string_view to_string(RecoveryAction action);

/// One recovery-ladder firing.
struct RecoveryEvent {
  RecoveryAction action = RecoveryAction::kWatchdogResense;
  std::uint64_t cycle = 0;  ///< relative to the start of the execution
  int mo = -1;              ///< affected MO (-1: execution-wide)
  std::string detail;

  friend bool operator==(const RecoveryEvent&, const RecoveryEvent&) =
      default;
};

/// Ladder tuning. `enabled = false` preserves the legacy behavior: any
/// infeasible synthesis fails the whole execution immediately and stuck
/// droplets run into the cycle limit.
struct RecoveryConfig {
  bool enabled = false;
  /// Commanded cycles without droplet progress before the watchdog fires.
  int stuck_cycles = 12;
  /// Re-synthesis attempts per routing job before escalating past retries.
  int max_retries = 3;
  /// Backoff before retry i is backoff_base_cycles << (i-1) cycles.
  int backoff_base_cycles = 4;
  /// Watchdog firings on the same routing job before its blocked frontier
  /// is quarantined.
  int quarantine_after_watchdogs = 2;
  /// Ceiling on the quarantine set as a fraction of the chip area (cells
  /// the health filter flags as suspect are quarantined too, within it).
  /// Quarantine targets a few persistently misbehaving cells; when the
  /// filter floods the scheduler with suspects (a failing *sensing
  /// channel*, not a failing substrate), quarantining them all would blind
  /// the router to most of a still-routable chip. Past the budget the
  /// ladder stops quarantining and trusts the filtered estimate instead.
  double max_quarantine_fraction = 0.15;
  /// Progress-rate watchdog (the default): instead of "exactly stuck_cycles
  /// commanded cycles at the same position", track an EWMA (α = 0.10) of
  /// Manhattan progress toward the goal frontier per commanded cycle and
  /// fire when it decays below 0.005 cells/cycle. End-of-life chips where
  /// pulls land every few cycles keep a healthy rate and are left to crawl;
  /// true stalls decay to zero and still fire. `false` restores the fixed
  /// stuck_cycles counter (the equivalence-test behavior). Either way a
  /// firing is classified: a stall blocked by another droplet re-routes
  /// around it (at most 3 detours without progress) instead of
  /// quarantining healthy cells.
  bool progress_watchdog = true;
  /// Deadline-expired synthesis degrades to the bounded fallback router
  /// (20000 expansions) instead of the infeasible-synthesis retry ladder.
  bool fallback_on_deadline = true;
  /// While a fallback route is active, full re-synthesis is retried only
  /// after an exponential backoff on health changes: attempt i waits
  /// fallback_backoff_base_cycles << (i-1) cycles (capped at 256) after
  /// the deadline expiry before the next full attempt.
  int fallback_backoff_base_cycles = 16;
};

/// Aggregated ladder counters for one execution.
struct RecoveryCounters {
  int watchdog_fires = 0;
  int forced_resenses = 0;
  int synthesis_retries = 0;
  std::uint64_t backoff_cycles = 0;
  int quarantined_cells = 0;
  int contention_detours = 0;
  int aborted_jobs = 0;
  int synthesis_deadlines = 0;  ///< deadline-expired synthesis calls
  int fallback_routes = 0;      ///< fallback routes installed
  int paroled_cells = 0;        ///< quarantined cells released on re-sense

  bool any() const {
    return watchdog_fires > 0 || forced_resenses > 0 ||
           synthesis_retries > 0 || backoff_cycles > 0 ||
           quarantined_cells > 0 || contention_detours > 0 ||
           aborted_jobs > 0 || synthesis_deadlines > 0 ||
           fallback_routes > 0 || paroled_cells > 0;
  }

  /// Sums @p other into this (campaign roll-ups).
  void accumulate(const RecoveryCounters& other) {
    watchdog_fires += other.watchdog_fires;
    forced_resenses += other.forced_resenses;
    synthesis_retries += other.synthesis_retries;
    backoff_cycles += other.backoff_cycles;
    quarantined_cells += other.quarantined_cells;
    contention_detours += other.contention_detours;
    aborted_jobs += other.aborted_jobs;
    synthesis_deadlines += other.synthesis_deadlines;
    fallback_routes += other.fallback_routes;
    paroled_cells += other.paroled_cells;
  }

  friend bool operator==(const RecoveryCounters&, const RecoveryCounters&) =
      default;
};

/// Renders events as one line each ("cycle 412 [quarantine] MO 3: ...").
std::string format_events(const std::vector<RecoveryEvent>& events);

}  // namespace meda::core
