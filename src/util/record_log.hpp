#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

/// @file record_log.hpp
/// The one crash-safe persistence primitive: an append-only log of
/// single-line records behind a versioned digest header. Campaign drivers
/// checkpoint completed grid slots through it (SlotCheckpoint below).
///
/// File format:
///
///   meda-log v1 <digest-hex>
///   <record>
///   <record>
///   ...
///
/// The header (plus, on resume, the surviving records) is written to
/// "<path>.tmp" and POSIX-renamed over the destination, so a crash during
/// open leaves either the previous log or a complete new one. Each record is
/// appended and flushed at once, so a SIGKILL loses at most the record being
/// written: its torn tail line (no terminating '\n') is dropped on resume.
/// The digest encodes the configuration that produced the records; a header
/// whose digest or version does not match belongs to a different run, and
/// the log starts fresh instead of resuming from it.
namespace meda::util {

/// FNV-1a accumulator for building log digests out of the config fields and
/// seeds that determine a run's results (also the library's health digest).
class DigestBuilder {
 public:
  DigestBuilder& mix(std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 1099511628211ull;  // FNV prime
    return *this;
  }
  DigestBuilder& mix(std::int64_t v) {
    return mix(static_cast<std::uint64_t>(v));
  }
  DigestBuilder& mix(int v) { return mix(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(v))); }
  DigestBuilder& mix(double v);
  DigestBuilder& mix(const std::string& s);

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
};

/// Append-only crash-safe log of single-line records (format above).
class RecordLog {
 public:
  /// Binds the log to @p path. With @p resume set, an existing log whose
  /// header matches @p digest is replayed into `records()` (torn tail
  /// dropped); otherwise — mismatched digest, wrong version, garbage, or no
  /// file — a fresh log holding only the header is created. An empty
  /// @p path disables the log (appends are dropped, records stay empty). An
  /// unwritable path degrades the same way: the run proceeds without
  /// durability.
  void open(std::string path, std::uint64_t digest, bool resume);

  bool enabled() const { return enabled_; }

  /// Appends one single-line record and flushes it to disk. Safe to call
  /// from pool workers. The record is not added to `records()`.
  void append(const std::string& record);

  /// The records replayed from disk by the last `open(..., resume=true)`,
  /// in file order; empty after a fresh open.
  const std::vector<std::string>& records() const { return records_; }

 private:
  std::ofstream out_;
  bool enabled_ = false;  ///< set by open() only, so workers may read it
  std::vector<std::string> records_;
  std::mutex mutex_;
};

/// Slot checkpointing for campaign sweeps: a campaign flattens its grid into
/// `slot_count` independent work items and records each completed slot as a
/// "<slot> <payload>" record on a RecordLog, so a killed run resumes with
/// only the missing slots — and loses at most the slots in flight. The
/// slot count is folded into the digest; when a slot was recorded twice the
/// last record wins. Slot indices are payload keys, not an ordering:
/// resuming at a different `--jobs` count completes slots in a different
/// order yet restores the same payloads. Until open(), restored() is empty
/// and record() is a no-op.
class SlotCheckpoint {
 public:
  /// Opens the log at @p path for @p slot_count slots under @p digest. When
  /// @p resume is true the completed slots of a compatible log become
  /// available via restored(); otherwise the log starts empty.
  void open(std::string path, std::uint64_t digest, bool resume,
            std::size_t slot_count);

  bool active() const { return log_.enabled(); }

  /// Payload restored for @p slot from a previous run, or nullptr if the
  /// slot still needs computing.
  const std::string* restored(std::size_t slot) const;

  /// Number of distinct slots restored from the log at open().
  std::size_t restored_count() const { return restored_count_; }

  /// Records @p slot as complete (appended and flushed at once). Safe to
  /// call from pool workers. @p payload must be single-line (no '\n').
  void record(std::size_t slot, const std::string& payload);

 private:
  RecordLog log_;
  std::vector<std::optional<std::string>> restored_;
  std::size_t restored_count_ = 0;
};

}  // namespace meda::util
