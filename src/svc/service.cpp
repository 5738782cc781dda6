#include "svc/service.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "core/codec.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::svc {

namespace {

/// Serializes the journal record body for one completed solve. The key
/// (rects + digest + armed budget) is prepended by the caller; the body
/// carries everything needed to reproduce the solve's observable effects:
/// the settled ledger charge, the result values, the model shape (the
/// logical cost formula reads stats.states), and the full strategy.
std::string encode_body(core::DigestClass cls, std::uint64_t used,
                        const core::SynthesisResult& result) {
  std::ostringstream os;
  os << static_cast<int>(cls) << ' ' << used << ' '
     << (result.feasible ? 1 : 0) << ' ' << (result.deadline_expired ? 1 : 0)
     << ' ' << core::hex_double(result.expected_cycles) << ' '
     << core::hex_double(result.reach_probability) << ' '
     << result.stats.states << ' ' << result.stats.transitions << ' '
     << result.stats.choices << ' ';
  core::write_strategy(os, result.strategy, ' ');
  return os.str();
}

/// Inverse of encode_body. Returns false on any malformed field (a garbled
/// record, or one from a different build, is skipped rather than trusted).
bool decode_body(const std::string& body, core::DigestClass& cls,
                 std::uint64_t& used, core::SynthesisResult& result) {
  std::istringstream is(body);
  int cls_raw = 0, feasible = 0, expired = 0;
  is >> cls_raw >> used >> feasible >> expired;
  if (is.fail() || cls_raw < 0 || cls_raw > 2 ||
      !core::read_double(is, result.expected_cycles) ||
      !core::read_double(is, result.reach_probability))
    return false;
  is >> result.stats.states >> result.stats.transitions >>
      result.stats.choices;
  if (is.fail()) return false;
  cls = static_cast<core::DigestClass>(cls_raw);
  result.feasible = feasible != 0;
  result.deadline_expired = expired != 0;
  return core::read_strategy(is, result.strategy);
}

/// Splits a journal record "solve <key> <body>" into its key (the 14
/// tokens after the tag: 3 rects, digest, armed budget) and its body.
/// Returns false for records that are not solve records.
bool split_record(const std::string& record, std::string& key,
                  std::string& body) {
  if (record.rfind("solve ", 0) != 0) return false;
  std::size_t end = 5;  // the space after the tag
  for (int i = 0; i < 14 && end != std::string::npos; ++i)
    end = record.find(' ', end + 1);
  if (end == std::string::npos) return false;
  key = record.substr(6, end - 6);
  body = record.substr(end + 1);
  return !body.empty();
}

}  // namespace

const char* to_string(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone: return "none";
    case ShedReason::kQueueFull: return "queue_full";
    case ShedReason::kTenantCap: return "tenant_cap";
    case ShedReason::kBudgetExhausted: return "budget_exhausted";
    case ShedReason::kExpired: return "expired";
  }
  return "none";
}

SynthesisService::SynthesisService(ServiceConfig config)
    : config_(std::move(config)),
      synthesizer_(config_.chip_bounds, config_.synthesis),
      pool_(std::max(1, config_.jobs)) {
  MEDA_REQUIRE(config_.queue_capacity >= 1,
               "service queue capacity must be at least 1");
  library_.set_capacity(config_.library_capacity);
  if (config_.journal != nullptr) {
    // Index every journaled solve (including ones appended by an earlier
    // service generation sharing this journal). First record wins: a key
    // can only repeat after a library eviction, and the re-solve is
    // deterministic, so duplicates carry identical payloads.
    for (const std::string& record : config_.journal->records()) {
      std::string key, body;
      if (split_record(record, key, body)) replay_.emplace(key, body);
    }
  }
}

int SynthesisService::register_tenant(const std::string& name) {
  MEDA_REQUIRE(!name.empty(), "tenant name must be non-empty");
  for (const Tenant& t : tenants_)
    MEDA_REQUIRE(t.name != name, "duplicate tenant name " + name);
  tenants_.push_back(
      Tenant{name, util::DeadlineLedger(config_.tenant_budget_sweeps), 0});
  return static_cast<int>(tenants_.size()) - 1;
}

SubmitTicket SynthesisService::submit(int tenant, const assay::RoutingJob& rj,
                                      const IntMatrix& health,
                                      std::uint64_t deadline_ticks,
                                      std::uint64_t digest,
                                      core::DigestClass cls) {
  MEDA_REQUIRE(tenant >= 0 && tenant < tenant_count(), "unknown tenant id");
  MEDA_OBS_COUNT("svc.submitted", 1);
  const auto shed = [](ShedReason reason) {
    MEDA_OBS_COUNT("svc.shed", 1);
    MEDA_OBS_COUNT(std::string("svc.shed.") + to_string(reason), 1);
    return SubmitTicket{false, reason, 0};
  };
  Tenant& t = tenants_[static_cast<std::size_t>(tenant)];
  if (deadline_ticks == 0) return shed(ShedReason::kExpired);
  if (t.ledger.exhausted()) return shed(ShedReason::kBudgetExhausted);
  if (config_.tenant_inflight_cap > 0 &&
      t.queued >= config_.tenant_inflight_cap)
    return shed(ShedReason::kTenantCap);
  if (queue_.size() >= config_.queue_capacity)
    return shed(ShedReason::kQueueFull);

  PendingJob job;
  job.seq = next_seq_++;
  job.tenant = tenant;
  job.rj = rj;
  job.health = health;
  job.digest = digest;
  job.cls = cls;
  job.submit_tick = clock_;
  const std::uint64_t kNever = ~std::uint64_t{0};
  job.deadline_tick = deadline_ticks > kNever - clock_
                          ? kNever
                          : clock_ + deadline_ticks;  // saturate, never wrap
  ++t.queued;
  queue_.push_back(std::move(job));
  MEDA_OBS_COUNT("svc.accepted", 1);
  MEDA_OBS_GAUGE("svc.queue_depth", static_cast<double>(queue_.size()));
  return SubmitTicket{true, ShedReason::kNone, next_seq_ - 1};
}

void SynthesisService::cancel_expired() {
  // Before-dispatch cancellation: a queued job whose deadline passed is
  // terminal *now*, before any solve is spent on it. Never after: a job
  // that made it into a wave completes even if the wave's own cost pushes
  // the clock past its deadline.
  for (std::size_t i = 0; i < queue_.size();) {
    PendingJob& job = queue_[i];
    if (clock_ < job.deadline_tick) {
      ++i;
      continue;
    }
    JobOutcome out;
    out.seq = job.seq;
    out.tenant = job.tenant;
    out.cancelled = true;
    out.wait_ticks = clock_ - job.submit_tick;
    MEDA_OBS_COUNT("svc.cancelled", 1);
    MEDA_OBS_OBSERVE_LOG2(
        "svc.wait." + tenants_[static_cast<std::size_t>(job.tenant)].name,
        static_cast<double>(out.wait_ticks));
    --tenants_[static_cast<std::size_t>(job.tenant)].queued;
    completed_.emplace(out.seq, std::move(out));
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

std::string SynthesisService::journal_key(const PendingJob& job,
                                          std::uint64_t armed_sweeps) const {
  // The armed sweep budget is part of the key: the same routing key solved
  // under a different remaining budget can produce a different (e.g.
  // deadline-expired) result, and replay must never serve one for the
  // other.
  std::ostringstream os;
  core::write_rect(os, job.rj.start);
  os << ' ';
  core::write_rect(os, job.rj.goal);
  os << ' ';
  core::write_rect(os, job.rj.hazard);
  os << ' ' << job.digest << ' ' << armed_sweeps;
  return os.str();
}

std::size_t SynthesisService::drain() {
  const std::size_t before = completed_.size();
  while (!queue_.empty()) {
    cancel_expired();
    if (queue_.empty()) break;
    run_wave();
  }
  MEDA_OBS_GAUGE("svc.queue_depth", 0.0);
  return completed_.size() - before;
}

void SynthesisService::run_wave() {
  const std::uint64_t wave_start = clock_;

  // Coalesce: group queued jobs by solve key, members in seq order (the
  // queue is seq-ordered by construction).
  using SolveKey = std::tuple<Rect, Rect, Rect, std::uint64_t>;
  std::map<SolveKey, std::size_t> index_of;
  std::vector<Group> groups;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const PendingJob& job = queue_[i];
    const SolveKey key{job.rj.start, job.rj.goal, job.rj.hazard, job.digest};
    const auto [it, inserted] = index_of.emplace(key, groups.size());
    if (inserted) {
      groups.push_back(
          Group{{i}, job.deadline_tick, job.seq});
    } else {
      Group& g = groups[it->second];
      g.members.push_back(i);
      g.min_deadline = std::min(g.min_deadline, job.deadline_tick);
    }
  }

  // Earliest-deadline-first across groups; min_seq breaks ties so the
  // order is total and deterministic.
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return std::tie(a.min_deadline, a.min_seq) <
           std::tie(b.min_deadline, b.min_seq);
  });
  const std::size_t width =
      config_.max_wave > 0 ? config_.max_wave
                           : static_cast<std::size_t>(std::max(1, config_.jobs));
  if (groups.size() > width) groups.resize(width);

  // Serial pre-pass, in EDF order: library probe, ledger arming, journal
  // replay probe. Every ledger/library/metric touch happens here or in the
  // post-pass — never inside the parallel section.
  enum class Mode : unsigned char { kLibrary, kReplay, kSolve };
  struct Dispatch {
    Group group;
    PendingJob primary;
    Mode mode = Mode::kSolve;
    util::Deadline token;
    std::uint64_t armed = 0;
    std::uint64_t replay_used = 0;
    core::SynthesisResult result;
  };
  std::vector<Dispatch> dispatches;
  dispatches.reserve(groups.size());
  for (const Group& g : groups) {
    Dispatch d;
    d.group = g;
    d.primary = queue_[g.members.front()];
    const std::optional<core::SynthesisResult> cached = library_.lookup_copy(
        d.primary.rj, d.primary.digest, d.primary.cls, d.primary.tenant);
    if (cached.has_value()) {
      d.mode = Mode::kLibrary;
      d.result = *cached;
      MEDA_OBS_COUNT("svc.library_hits", 1);
    } else {
      // Only the primary (earliest) submitter pays budget for the group.
      d.token = tenants_[static_cast<std::size_t>(d.primary.tenant)]
                    .ledger.acquire(config_.synthesis.deadline_sweeps);
      d.armed = d.token.check_limit();
      const auto it = replay_.find(journal_key(d.primary, d.armed));
      if (it != replay_.end()) {
        core::DigestClass cls = core::DigestClass::kPlain;
        core::SynthesisResult replayed;
        std::uint64_t used = 0;
        if (decode_body(it->second, cls, used, replayed)) {
          d.mode = Mode::kReplay;
          d.result = std::move(replayed);
          d.replay_used = used;
        }
      }
    }
    dispatches.push_back(std::move(d));
  }

  // Parallel solve wave into preallocated slots. Solves touch only their
  // own Dispatch; the Synthesizer is stateless and const.
  for (Dispatch& d : dispatches) {
    if (d.mode != Mode::kSolve) continue;
    pool_.submit([this, &d] {
      d.result = synthesizer_.synthesize(d.primary.rj, d.primary.health,
                                         config_.health_bits, d.token);
    });
  }
  pool_.wait();

  // Serial post-pass, in EDF order: settle, journal, store, fan out.
  std::uint64_t wave_cost = 0;
  for (Dispatch& d : dispatches) {
    Tenant& owner = tenants_[static_cast<std::size_t>(d.primary.tenant)];
    std::uint64_t cost = 0;
    if (d.mode == Mode::kSolve) {
      owner.ledger.settle(d.token);
      const std::uint64_t used =
          d.token.has_check_limit()
              ? std::min(d.token.checks_used(), d.token.check_limit())
              : 0;
      if (config_.journal != nullptr)
        config_.journal->append("solve " + journal_key(d.primary, d.armed) +
                                ' ' + encode_body(d.primary.cls, used,
                                                  d.result));
      MEDA_OBS_COUNT("svc.solves", 1);
    } else if (d.mode == Mode::kReplay) {
      owner.ledger.charge(d.replay_used);
      MEDA_OBS_COUNT("svc.journal_replayed", 1);
    }
    if (d.mode != Mode::kLibrary) {
      // Deadline-expired results describe a budget, not the health state —
      // never cached (same rule as the scheduler's local path).
      if (!d.result.deadline_expired)
        library_.store(d.primary.rj, d.primary.digest, d.result,
                       d.primary.cls, d.primary.tenant);
      cost = 1 + d.result.stats.states /
                     std::max<std::uint64_t>(1, config_.cost_state_divisor);
      MEDA_OBS_OBSERVE_LOG2("svc.solve_cost_ticks",
                            static_cast<double>(cost));
    }
    for (std::size_t m = 0; m < d.group.members.size(); ++m) {
      const PendingJob& job = queue_[d.group.members[m]];
      JobOutcome out;
      out.seq = job.seq;
      out.tenant = job.tenant;
      out.coalesced = job.seq != d.primary.seq;
      out.replayed = d.mode == Mode::kReplay;
      out.library_hit = d.mode == Mode::kLibrary;
      out.wait_ticks = wave_start - job.submit_tick;
      out.result = d.result;
      MEDA_OBS_OBSERVE_LOG2(
          "svc.wait." + tenants_[static_cast<std::size_t>(job.tenant)].name,
          static_cast<double>(out.wait_ticks));
      --tenants_[static_cast<std::size_t>(job.tenant)].queued;
      completed_.emplace(out.seq, std::move(out));
    }
    if (d.group.members.size() > 1)
      MEDA_OBS_COUNT("svc.coalesced",
                     static_cast<std::uint64_t>(d.group.members.size() - 1));
    wave_cost += cost;
  }
  clock_ += wave_cost;

  // Remove the dispatched jobs from the queue, highest index first so the
  // collected indexes stay valid.
  std::vector<std::size_t> dispatched;
  for (const Dispatch& d : dispatches)
    dispatched.insert(dispatched.end(), d.group.members.begin(),
                      d.group.members.end());
  std::sort(dispatched.rbegin(), dispatched.rend());
  for (const std::size_t i : dispatched)
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
}

std::optional<JobOutcome> SynthesisService::take(std::uint64_t seq) {
  const auto it = completed_.find(seq);
  if (it == completed_.end()) return std::nullopt;
  JobOutcome out = std::move(it->second);
  completed_.erase(it);
  return out;
}

void SynthesisService::refill_budgets() {
  for (Tenant& t : tenants_) t.ledger.refill();
}

const util::DeadlineLedger& SynthesisService::tenant_ledger(int tenant) const {
  MEDA_REQUIRE(tenant >= 0 && tenant < tenant_count(), "unknown tenant id");
  return tenants_[static_cast<std::size_t>(tenant)].ledger;
}

}  // namespace meda::svc
