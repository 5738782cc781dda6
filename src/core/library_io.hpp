#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/library.hpp"
#include "util/check.hpp"

/// @file library_io.hpp
/// Persistence for the strategy library, so the offline phase of the hybrid
/// scheduling scheme (Section VI-D) survives process restarts: pre-compute
/// once per (chip, bioassay) pair, save, and ship the file with the
/// instrument.
///
/// Format (line-oriented text, versioned):
///   medalib 1
///   entry <start> <goal> <hazard> <digest> <feasible> <E[cycles]> <pmax> <n>
///   <xa> <ya> <xb> <yb> <action-index>     (n strategy rows)
/// Rectangles are four integers; the two doubles are exact hexfloats ("inf"
/// for infinity). The token codec is core/codec.hpp; files written with
/// 17-digit decimal doubles by older builds load the same way.
///
/// Corruption contract: a file whose *header* is wrong (bad magic, wrong
/// version, unopenable path) throws LibraryLoadError — the file as a whole
/// is not a library and the caller must decide what to do. Past a valid
/// header, corruption is entry-granular: a truncated, garbled, or
/// absurdly-sized entry is skipped whole (never partially stored — an
/// entry's strategy is parsed into a temporary and only stored on success),
/// counted in LibraryLoadStats::rejected and the `library.load_rejected`
/// metric, and the loader resynchronizes at the next "entry" keyword. Every
/// entry before the corruption loads normally, so a torn tail costs only
/// the torn entries.

namespace meda::core {

/// Typed error for files that are not loadable libraries at all (header or
/// I/O failures). Derives from PreconditionError so pre-existing callers
/// catching that still work.
struct LibraryLoadError : PreconditionError {
  using PreconditionError::PreconditionError;
};

/// Outcome of a load: entries stored vs entries skipped as corrupt.
struct LibraryLoadStats {
  std::size_t loaded = 0;
  std::size_t rejected = 0;
};

/// Writes every library entry to @p os.
void save_library(const StrategyLibrary& library, std::ostream& os);

/// Reads entries from @p is into @p library (merging with existing
/// entries). Throws LibraryLoadError on a bad header; corrupt entries past
/// the header are skipped and counted (see the corruption contract above).
LibraryLoadStats load_library(StrategyLibrary& library, std::istream& is);

/// File conveniences. Throw LibraryLoadError on I/O failure.
void save_library_file(const StrategyLibrary& library,
                       const std::string& path);
LibraryLoadStats load_library_file(StrategyLibrary& library,
                                   const std::string& path);

}  // namespace meda::core
