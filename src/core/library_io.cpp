#include "core/library_io.hpp"

#include <fstream>

#include "core/codec.hpp"
#include "obs/obs.hpp"

namespace meda::core {

namespace {

/// Parses one entry body (everything after the "entry" keyword) into
/// temporaries. Returns false — storing nothing — on any truncation or
/// garbage; the caller resynchronizes.
bool parse_entry(std::istream& is, assay::RoutingJob& rj,
                 std::uint64_t& digest, SynthesisResult& result) {
  rj.start = read_rect(is);
  rj.goal = read_rect(is);
  rj.hazard = read_rect(is);
  int feasible = 0;
  is >> digest >> feasible;
  if (!is.good()) return false;
  result.feasible = feasible != 0;
  if (!read_double(is, result.expected_cycles)) return false;
  if (!read_double(is, result.reach_probability)) return false;
  if (!read_strategy(is, result.strategy)) return false;
  // Torn-tail rule (cf. util::RecordLog): save_library terminates every
  // entry with '\n', so an entry whose last token runs straight into EOF
  // may itself be a truncated longer token (action "19" torn to "1" still
  // parses). Reject the entry whole rather than store a distorted row.
  if (is.peek() == std::char_traits<char>::eof()) return false;
  return true;
}

}  // namespace

void save_library(const StrategyLibrary& library, std::ostream& os) {
  os << "medalib 1\n";
  for (const StrategyLibrary::EntryView& entry : library.entries()) {
    const SynthesisResult& r = *entry.result;
    os << "entry ";
    write_rect(os, entry.start);
    os << ' ';
    write_rect(os, entry.goal);
    os << ' ';
    write_rect(os, entry.hazard);
    os << ' ' << entry.digest << ' ' << (r.feasible ? 1 : 0) << ' '
       << hex_double(r.expected_cycles) << ' '
       << hex_double(r.reach_probability) << ' ';
    write_strategy(os, r.strategy, '\n');
    os << '\n';
  }
}

LibraryLoadStats load_library(StrategyLibrary& library, std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  if (magic != "medalib" || version != 1)
    throw LibraryLoadError("not a version-1 medalib file");
  LibraryLoadStats stats;
  std::string keyword;
  bool have_keyword = false;
  while (have_keyword || static_cast<bool>(is >> keyword)) {
    have_keyword = false;
    if (keyword != "entry") {
      // Garbage between entries: count the run as one rejected entry and
      // resynchronize at the next "entry" keyword (coordinates are bare
      // integers, so the keyword cannot occur inside a valid entry body).
      ++stats.rejected;
      MEDA_OBS_COUNT("library.load_rejected", 1);
      while (is >> keyword)
        if (keyword == "entry") break;
      if (keyword != "entry" || !is) break;
    }
    assay::RoutingJob rj;
    std::uint64_t digest = 0;
    SynthesisResult result;
    if (parse_entry(is, rj, digest, result)) {
      library.store(rj, digest, std::move(result));
      ++stats.loaded;
      continue;
    }
    // Truncated or garbled entry: nothing was stored (the strategy lives in
    // the temporary above). Count it and resynchronize.
    ++stats.rejected;
    MEDA_OBS_COUNT("library.load_rejected", 1);
    is.clear();
    while (is >> keyword) {
      if (keyword == "entry") {
        have_keyword = true;
        break;
      }
    }
    if (!have_keyword) break;
  }
  return stats;
}

void save_library_file(const StrategyLibrary& library,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open())
    throw LibraryLoadError("cannot open " + path + " for writing");
  save_library(library, out);
}

LibraryLoadStats load_library_file(StrategyLibrary& library,
                                   const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) throw LibraryLoadError("cannot open " + path);
  return load_library(library, in);
}

}  // namespace meda::core
