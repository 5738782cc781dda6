#include "util/record_log.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "util/check.hpp"

namespace meda::util {

DigestBuilder& DigestBuilder::mix(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(bits);
}

DigestBuilder& DigestBuilder::mix(const std::string& s) {
  mix(static_cast<std::uint64_t>(s.size()));
  for (const char c : s)
    mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  return *this;
}

void RecordLog::open(std::string path, std::uint64_t digest, bool resume) {
  if (out_.is_open()) out_.close();
  enabled_ = false;
  records_.clear();
  if (path.empty()) return;

  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  const std::string header = std::string("meda-log v1 ") + digest_hex;
  if (resume) {
    std::ifstream in(path);
    std::string line;
    if (in && std::getline(in, line) && line == header) {
      while (std::getline(in, line)) {
        // A line with no terminating '\n' (eof hit mid-line) is the torn
        // tail of a killed append: drop it, its unit of work just re-runs.
        if (in.eof()) break;
        if (!line.empty()) records_.push_back(line);
      }
    }
  }

  // Write the header and the surviving prefix atomically (tmp + rename):
  // readers and resumed runs see either the old log or a well-formed new
  // one, and a torn tail is physically gone before new appends land.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;  // unwritable directory: run without durability
    out << header << '\n';
    for (const std::string& record : records_) out << record << '\n';
    if (!out.flush()) return;  // e.g. disk full: keep the previous log
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return;
  out_.open(path, std::ios::app);
  enabled_ = out_.is_open();
}

void RecordLog::append(const std::string& record) {
  MEDA_REQUIRE(record.find('\n') == std::string::npos,
               "log record must be single-line");
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << record << '\n';
  out_.flush();
}

void SlotCheckpoint::open(std::string path, std::uint64_t digest, bool resume,
                          std::size_t slot_count) {
  MEDA_REQUIRE(!path.empty(), "checkpoint path must be non-empty");
  log_.open(std::move(path),
            DigestBuilder()
                .mix(digest)
                .mix(static_cast<std::uint64_t>(slot_count))
                .value(),
            resume);
  restored_.assign(slot_count, std::nullopt);
  restored_count_ = 0;
  for (const std::string& record : log_.records()) {
    const char* end = record.data() + record.size();
    std::size_t slot = 0;
    const auto [ptr, ec] = std::from_chars(record.data(), end, slot);
    if (ec != std::errc() || slot >= slot_count || ptr == end || *ptr != ' ')
      continue;
    if (!restored_[slot].has_value()) ++restored_count_;
    restored_[slot] = std::string(ptr + 1, end);  // the last record wins
  }
}

const std::string* SlotCheckpoint::restored(std::size_t slot) const {
  if (slot >= restored_.size() || !restored_[slot].has_value())
    return nullptr;
  return &*restored_[slot];
}

void SlotCheckpoint::record(std::size_t slot, const std::string& payload) {
  if (!active()) return;
  MEDA_REQUIRE(slot < restored_.size(), "checkpoint slot out of range");
  log_.append(std::to_string(slot) + ' ' + payload);
}

}  // namespace meda::util
