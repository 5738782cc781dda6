#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/strategy.hpp"
#include "geometry/rect.hpp"

/// @file codec.hpp
/// The exact text codec for persisted strategy results, shared by the
/// strategy-library file (core/library_io.hpp) and the campaign checkpoint
/// payloads. Tokens are whitespace-separated; every reader reports
/// malformed input instead of guessing, so a garbled record is skipped
/// rather than trusted.

namespace meda::core {

/// Sanity cap on strategy rows per encoded strategy: a garbled row count
/// must not make a reader chew through (and allocate for) gigabytes of
/// garbage. Real strategies are a few hundred cells; 2^20 is orders of
/// magnitude past any chip this code models.
inline constexpr std::size_t kMaxStrategyRows = std::size_t{1} << 20;

/// C99 hexfloat (%a) form of @p v: round-trips every double bit-exactly;
/// infinities print as "inf".
std::string hex_double(double v);

/// Parses one double token: hexfloat, decimal, or "inf". Returns false
/// unless the whole token is consumed.
bool parse_double(const std::string& token, double& out);

/// Reads the next token from @p is and parses it with parse_double.
bool read_double(std::istream& is, double& out);

/// Rectangles are four integers: "xa ya xb yb".
void write_rect(std::ostream& os, const Rect& r);
Rect read_rect(std::istream& is);

/// Writes the row count, then each row as @p sep followed by
/// "<xa> <ya> <xb> <yb> <action-index>", rows in sorted order so the
/// encoding is deterministic.
void write_strategy(std::ostream& os, const Strategy& strategy, char sep);

/// Inverse of write_strategy (any whitespace separator). Returns false on a
/// row count above kMaxStrategyRows, a truncated row or an action index out
/// of range; @p out may then hold a prefix of the rows.
bool read_strategy(std::istream& is, Strategy& out);

}  // namespace meda::core
